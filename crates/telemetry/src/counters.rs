//! Hot-loop counters the engine maintains unconditionally.
//!
//! All fields are plain `u64`s so the per-event cost is a handful of
//! integer increments — cheap enough (the engine spends tens of
//! microseconds per event) to keep even when no probe is attached, which
//! in turn keeps snapshots identical whether or not telemetry is enabled.

use crate::json::Json;
use std::fmt::Write as _;

/// Cumulative engine counters since the start of the run (they survive
/// snapshot/restore, so a resumed run continues the same series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events popped from the queue and dispatched.
    pub events_popped: u64,
    /// Lazy re-keys at the event-queue top: a completion whose rate slowed
    /// keeps its early key until it surfaces, then is re-keyed in place at
    /// its true deadline. (The name predates the indexed queue, which holds
    /// no stale entries.) Not resume-invariant: restore keys every entry
    /// exactly, so a resumed run re-keys less.
    pub stale_discards: u64,
    /// Peak event-queue length observed: one entry per armed per-peer
    /// deadline (aggregate group deadlines are not queued), so it depends
    /// on simulation state alone and survives a resume unchanged.
    pub heap_peak: u64,
    /// Per-download rate recomputations performed by the rate cache
    /// (each is one `recompute_rate` evaluation).
    pub rate_recomputes: u64,
    /// Rate-cache refreshes satisfied without touching any aggregate
    /// (nothing dirty — the incremental fast path).
    pub rate_clean_hits: u64,
    /// Snapshots written by a checkpointing driver.
    pub snapshots_taken: u64,
    /// Total bytes of those snapshots.
    pub snapshot_bytes: u64,
    /// Total wall-clock microseconds spent writing them.
    pub snapshot_micros: u64,
    /// Group-rate recomputations performed by the aggregate cache
    /// (aggregate scheduling mode; zero under per-peer scheduling).
    pub agg_rate_updates: u64,
    /// Aggregate completion events dispatched (one member sampled each).
    pub agg_samples: u64,
}

impl Counters {
    /// The counters' wire names, in field order: the one list every JSON
    /// writer and reader of counters (trace records, the sweep journal)
    /// keys by.
    pub const NAMES: [&'static str; 10] = [
        "events_popped",
        "stale_discards",
        "heap_peak",
        "rate_recomputes",
        "rate_clean_hits",
        "snapshots_taken",
        "snapshot_bytes",
        "snapshot_micros",
        "agg_rate_updates",
        "agg_samples",
    ];

    fn fields_mut(&mut self) -> [&mut u64; 10] {
        [
            &mut self.events_popped,
            &mut self.stale_discards,
            &mut self.heap_peak,
            &mut self.rate_recomputes,
            &mut self.rate_clean_hits,
            &mut self.snapshots_taken,
            &mut self.snapshot_bytes,
            &mut self.snapshot_micros,
            &mut self.agg_rate_updates,
            &mut self.agg_samples,
        ]
    }

    /// `(wire name, value)` pairs in [`Self::NAMES`] order.
    fn named(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut copy = *self;
        let values = copy.fields_mut().map(|v| *v);
        Self::NAMES.into_iter().zip(values)
    }

    /// Renders the counters as a JSON object (raw text, no trailing
    /// newline), the exact shape the trace schema embeds.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        for (name, value) in self.named() {
            out.push(if out.is_empty() { '{' } else { ',' });
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push('}');
        out
    }

    /// The counters as a JSON object value, for writers that build a
    /// [`Json`] document (the sweep journal).
    pub fn to_json_value(&self) -> Json {
        Json::Obj(
            self.named()
                .map(|(name, value)| (name.to_string(), Json::num_u64(value)))
                .collect(),
        )
    }

    /// Reads counters from a JSON object. A counter that is absent (an
    /// older writer that predates it) or not a `u64` reads as zero.
    pub fn from_json(v: &Json) -> Self {
        let mut c = Self::default();
        for (name, field) in Self::NAMES.into_iter().zip(c.fields_mut()) {
            *field = v.u64_at(name);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let c = Counters {
            events_popped: 3,
            snapshot_bytes: u64::MAX,
            ..Counters::default()
        };
        let s = c.to_json();
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\"events_popped\":3"));
        assert!(s.contains(&format!("\"snapshot_bytes\":{}", u64::MAX)));
        assert!(s.contains("\"agg_rate_updates\":0"));
        assert!(s.contains("\"agg_samples\":0"));
        assert!(!s.contains(' '), "compact encoding only: {s}");
    }

    #[test]
    fn reader_inverts_both_writers() {
        let c = Counters {
            events_popped: u64::MAX,
            stale_discards: 1,
            heap_peak: 2,
            rate_recomputes: 3,
            rate_clean_hits: 4,
            snapshots_taken: 5,
            snapshot_bytes: 6,
            snapshot_micros: 7,
            agg_rate_updates: 8,
            agg_samples: 9,
        };
        assert_eq!(Counters::from_json(&Json::parse(&c.to_json()).unwrap()), c);
        assert_eq!(Counters::from_json(&c.to_json_value()), c);
        assert_eq!(c.to_json_value().to_string(), c.to_json());
        let old = Json::parse("{\"heap_peak\":3,\"agg_samples\":-1}").unwrap();
        let read = Counters::from_json(&old);
        assert_eq!(
            (read.heap_peak, read.agg_samples, read.events_popped),
            (3, 0, 0)
        );
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Counters::default(), Counters::default());
        assert!(Counters::default().to_json().contains("\"heap_peak\":0"));
    }
}
