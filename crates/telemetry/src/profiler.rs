//! The hierarchical self-profiler: scoped phase timers over the engine's
//! hot loop, with calibrated-overhead subtraction.
//!
//! A [`Profiler`] is owned by whoever runs the instrumented code (the
//! engine holds an `Option<Profiler>`; `None` costs one branch per
//! instrumented site). Phases nest: entering `MemberSample` while
//! `HeapOps` is open charges the inner elapsed time to the child and
//! subtracts it from the parent's *self* time, so the per-phase table
//! attributes every nanosecond exactly once. Each enter/leave pair also
//! subtracts a calibrated per-pair timer overhead (measured at
//! construction by timing empty pairs), so the reported self-costs
//! approximate the un-instrumented run rather than the instrumented one.
//!
//! Results aggregate into a [`ProfileTable`] of per-phase call counts,
//! wall time, and per-event cost, which the trace sink serializes as an
//! additive `profile` record and `btfluid profile` renders as a table.

use std::time::Instant;

/// The fixed phase taxonomy (DESIGN.md §17). Indexes are stable wire
/// codes; names are stable wire strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Next-event selection: heap pops, lazy re-keys at the heap top, and
    /// the aggregate group argmin.
    HeapOps,
    /// Rate-cache recomputation (per-peer or aggregate-group).
    RateMaint,
    /// Aggregate-mode concrete-member draws (nested inside heap ops).
    MemberSample,
    /// Event dispatch including scenario-hook invocations.
    HookDispatch,
    /// Snapshot serialization during checkpoint cycles.
    SnapshotEncode,
    /// Telemetry emission: sample build plus probe/sink dispatch.
    SinkWrite,
}

/// All phases, index order (== wire code order).
pub const PHASES: [Phase; 6] = [
    Phase::HeapOps,
    Phase::RateMaint,
    Phase::MemberSample,
    Phase::HookDispatch,
    Phase::SnapshotEncode,
    Phase::SinkWrite,
];

impl Phase {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::HeapOps => "heap_ops",
            Phase::RateMaint => "rate_maint",
            Phase::MemberSample => "member_sample",
            Phase::HookDispatch => "hook_dispatch",
            Phase::SnapshotEncode => "snapshot_encode",
            Phase::SinkWrite => "sink_write",
        }
    }

    /// Stable index into per-phase arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Aggregated timings for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Enter/leave pairs (or externally-timed additions).
    pub calls: u64,
    /// Nanoseconds attributed to this phase alone (children and
    /// calibrated timer overhead subtracted, saturating at zero).
    pub self_ns: u64,
    /// Nanoseconds including nested child phases.
    pub total_ns: u64,
}

/// The rendered result: per-phase stats plus run-level denominators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileTable {
    /// Stats in [`PHASES`] order.
    pub phases: Vec<(&'static str, PhaseStats)>,
    /// Engine events the run dispatched (per-event-cost denominator).
    pub events: u64,
    /// Calibrated per-pair timer overhead that was subtracted, in ns.
    pub pair_overhead_ns: u64,
}

impl ProfileTable {
    /// Self-time across all phases, ns.
    pub fn accounted_ns(&self) -> u64 {
        self.phases.iter().map(|(_, s)| s.self_ns).sum()
    }
}

/// The scoped phase timer. Not `Clone`: there is one per run.
#[derive(Debug)]
pub struct Profiler {
    stats: [PhaseStats; 6],
    /// Open scopes: (phase, start, ns charged to children so far).
    stack: Vec<(Phase, Instant, u64)>,
    pair_overhead_ns: u64,
}

impl Profiler {
    /// A profiler with no overhead compensation (tests, externally-timed
    /// use).
    pub fn new() -> Self {
        Self {
            stats: [PhaseStats::default(); 6],
            stack: Vec::with_capacity(8),
            pair_overhead_ns: 0,
        }
    }

    /// Calibrates the per-pair enter/leave overhead by timing empty
    /// pairs, then returns a profiler that subtracts it from every
    /// scope. The calibration costs well under a millisecond.
    pub fn calibrated() -> Self {
        let mut probe = Self::new();
        const PAIRS: u32 = 4096;
        let started = Instant::now();
        for _ in 0..PAIRS {
            probe.enter(Phase::HeapOps);
            probe.leave(Phase::HeapOps);
        }
        let per_pair = started.elapsed().as_nanos() as u64 / u64::from(PAIRS);
        let mut p = Self::new();
        p.pair_overhead_ns = per_pair;
        p
    }

    /// The calibrated per-pair overhead being subtracted, ns.
    pub fn pair_overhead_ns(&self) -> u64 {
        self.pair_overhead_ns
    }

    /// Opens a phase scope. Scopes must strictly nest.
    #[inline]
    pub fn enter(&mut self, phase: Phase) {
        self.enter_at(phase, Instant::now());
    }

    /// Closes the innermost scope, which must be `phase`.
    #[inline]
    pub fn leave(&mut self, phase: Phase) {
        self.leave_at(phase, Instant::now());
    }

    #[inline]
    fn enter_at(&mut self, phase: Phase, now: Instant) {
        self.stack.push((phase, now, 0));
    }

    #[inline]
    fn leave_at(&mut self, phase: Phase, now: Instant) {
        let (opened, start, child_ns) = self
            .stack
            .pop()
            .expect("Profiler::leave without matching enter");
        debug_assert_eq!(opened, phase, "mismatched profiler scope");
        let raw = now.duration_since(start).as_nanos() as u64;
        let stat = &mut self.stats[phase.index()];
        stat.calls += 1;
        stat.total_ns += raw;
        stat.self_ns += raw.saturating_sub(child_ns + self.pair_overhead_ns);
        // Charge this scope (timer overhead included) to the parent's
        // child tally so the parent's self-time excludes it.
        if let Some(parent) = self.stack.last_mut() {
            parent.2 += raw;
        }
    }

    /// Adds externally-timed work to a phase (no nesting bookkeeping —
    /// for costs measured by another clock, e.g. the checkpoint driver's
    /// snapshot encode).
    pub fn add(&mut self, phase: Phase, ns: u64) {
        let stat = &mut self.stats[phase.index()];
        stat.calls += 1;
        stat.self_ns += ns;
        stat.total_ns += ns;
    }

    /// Stats for one phase.
    pub fn stats(&self, phase: Phase) -> PhaseStats {
        self.stats[phase.index()]
    }

    /// Renders the aggregate table; `events` is the run's event count
    /// (denominator for per-event costs).
    pub fn table(&self, events: u64) -> ProfileTable {
        ProfileTable {
            phases: PHASES.iter().map(|&p| (p.name(), self.stats(p))).collect(),
            events,
            pair_overhead_ns: self.pair_overhead_ns,
        }
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_child_time_is_subtracted_from_parent_self() {
        // Synthetic instants: parent opens at 0, child spans 200–600 µs,
        // parent closes at 700 µs.
        let base = Instant::now();
        let at = |us: u64| base + Duration::from_micros(us);
        let mut p = Profiler::new();
        p.enter_at(Phase::HeapOps, at(0));
        p.enter_at(Phase::MemberSample, at(200));
        p.leave_at(Phase::MemberSample, at(600));
        p.leave_at(Phase::HeapOps, at(700));

        let heap = p.stats(Phase::HeapOps);
        let member = p.stats(Phase::MemberSample);
        assert_eq!(
            (member.calls, member.self_ns, member.total_ns),
            (1, 400_000, 400_000)
        );
        assert_eq!(
            (heap.calls, heap.self_ns, heap.total_ns),
            (1, 300_000, 700_000)
        );
    }

    #[test]
    fn pair_overhead_comes_out_of_self_time_only() {
        let base = Instant::now();
        let mut p = Profiler::new();
        p.pair_overhead_ns = 50;
        p.enter_at(Phase::RateMaint, base);
        p.leave_at(Phase::RateMaint, base + Duration::from_nanos(1_000));
        let s = p.stats(Phase::RateMaint);
        assert_eq!((s.self_ns, s.total_ns), (950, 1_000));
    }

    #[test]
    fn add_accumulates_without_nesting() {
        let mut p = Profiler::new();
        p.add(Phase::SnapshotEncode, 1_000);
        p.add(Phase::SnapshotEncode, 2_000);
        let s = p.stats(Phase::SnapshotEncode);
        assert_eq!(s.calls, 2);
        assert_eq!(s.self_ns, 3_000);
        assert_eq!(s.total_ns, 3_000);
    }

    #[test]
    fn table_lists_every_phase_in_order() {
        let p = Profiler::new();
        let t = p.table(42);
        assert_eq!(t.events, 42);
        let names: Vec<&str> = t.phases.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec![
                "heap_ops",
                "rate_maint",
                "member_sample",
                "hook_dispatch",
                "snapshot_encode",
                "sink_write"
            ]
        );
    }

    #[test]
    fn calibration_is_sane() {
        let p = Profiler::calibrated();
        // An empty pair costs nanoseconds, not milliseconds.
        assert!(p.pair_overhead_ns() < 100_000);
    }

    #[test]
    #[should_panic(expected = "without matching enter")]
    fn unbalanced_leave_panics() {
        let mut p = Profiler::new();
        p.leave(Phase::HeapOps);
    }
}
