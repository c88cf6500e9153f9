//! The flight recorder: a fixed-capacity, allocation-free ring buffer of
//! recent engine happenings, dumped as a versioned JSONL artifact when a
//! run fails.
//!
//! The recorder sits behind the same [`Probe`] seam as the sampler, so it
//! inherits the crate's zero-perturbation contract: records are built
//! from values the engine already computed (clock, event count, counter
//! deltas) and the recorder has nowhere to write back. When no probe
//! wants flight records the engine pays one cached boolean test per
//! event; when one does, each record is a fixed-size `Copy` struct
//! written into a preallocated ring — no allocation on the hot path
//! either way.
//!
//! On failure (supervisor quarantine, chaos invariant violation, typed
//! engine error) the ring is serialized oldest-first as a `flightrec v1`
//! JSONL dump: one meta line carrying schema/version/capacity/totals
//! (and, when known, the failure time), then one compact line per
//! surviving record. The dump answers "what were the last N things the
//! engine did" without anyone having had to enable tracing in advance.
//! [`FlightDump::read`] is the format's one reader.

use crate::counters::Counters;
use crate::json::{self, Json};
use crate::probe::Probe;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Schema tag on the dump's meta line.
pub const FLIGHTREC_SCHEMA: &str = "flightrec";
/// Current dump format version.
pub const FLIGHTREC_VERSION: u32 = 1;
/// Ring capacity used when the caller does not choose one.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What kind of engine happening a [`FlightRecord`] describes.
///
/// The payload fields `a`/`b` of the record are kind-specific; the table
/// below is the schema contract (also documented in DESIGN.md §17).
///
/// | kind         | `a`                               | `b`                         |
/// |--------------|-----------------------------------|-----------------------------|
/// | `pop`        | event-kind code (engine dispatch) | 0                           |
/// | `rate`       | Δ incremental group-rate recomputes | Δ aggregate group updates |
/// | `resample`   | Δ aggregate member draws          | 0                           |
/// | `handoff`    | 0 = DES→fluid, 1 = fluid→DES      | population at the membrane  |
/// | `checkpoint` | snapshot bytes                    | 0                           |
/// | `fault`      | fault-site code                   | matched-kind code + 1, or 0 |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// One event popped from the calendar and dispatched.
    EventPop,
    /// Rate-cache maintenance ran (per-peer or aggregate-group).
    RateRecompute,
    /// Aggregate mode drew concrete members for a class-level completion.
    AggResample,
    /// The hybrid driver crossed the fluid/DES membrane.
    Handoff,
    /// A checkpoint cycle committed a snapshot to disk.
    Checkpoint,
    /// The fault injector was consulted while armed.
    FaultConsult,
}

impl FlightKind {
    /// Stable wire name used in the JSONL dump.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::EventPop => "pop",
            FlightKind::RateRecompute => "rate",
            FlightKind::AggResample => "resample",
            FlightKind::Handoff => "handoff",
            FlightKind::Checkpoint => "checkpoint",
            FlightKind::FaultConsult => "fault",
        }
    }

    /// Inverse of [`FlightKind::name`]; `None` for unknown wire names
    /// (readers skip those, the additive-schema discipline).
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "pop" => FlightKind::EventPop,
            "rate" => FlightKind::RateRecompute,
            "resample" => FlightKind::AggResample,
            "handoff" => FlightKind::Handoff,
            "checkpoint" => FlightKind::Checkpoint,
            "fault" => FlightKind::FaultConsult,
            _ => return None,
        })
    }
}

/// One fixed-size flight-recorder entry.
///
/// `t` is the simulated clock at the record point (`-1.0` when no clock
/// is in scope, e.g. fault-injector consults from the I/O layer), and
/// `events` the engine's monotone event count. `a`/`b` are kind-specific
/// payloads — see [`FlightKind`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightRecord {
    /// Simulated time (`-1.0` = not applicable).
    pub t: f64,
    /// Engine event count at the record point (resume-stable).
    pub events: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First kind-specific payload.
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

impl FlightRecord {
    /// Encodes the record as one compact JSONL line (no trailing
    /// newline). Floats use shortest-roundtrip formatting, so encoding is
    /// deterministic given bit-identical inputs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"k\":\"");
        out.push_str(self.kind.name());
        out.push_str("\",\"t\":");
        json::push_f64(&mut out, self.t);
        let _ = write!(
            out,
            ",\"ev\":{},\"a\":{},\"b\":{}}}",
            self.events, self.a, self.b
        );
        out
    }
}

/// The ring buffer: holds exactly the last `capacity` records.
///
/// Construction preallocates the full ring; `record` never allocates.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightRecord>,
    capacity: usize,
    /// Next write position once the ring is full.
    head: usize,
    /// Records ever offered (`total - capacity` of them overwritten).
    total: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding the last `capacity` records
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records ever offered (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records currently held (`min(total, capacity)`).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a record, overwriting the oldest once full.
    pub fn record(&mut self, rec: FlightRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// The held records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let (wrapped, tail) = self.buf.split_at(self.head);
        tail.iter().chain(wrapped.iter())
    }

    /// Serializes the ring as a `flightrec v1` JSONL dump: a meta line,
    /// then one line per held record, oldest first. `failure_t` stamps
    /// the failure's simulated time into the meta line when the caller
    /// knows it, so readers can flag a dump whose newest record predates
    /// the failure it claims to explain.
    pub fn dump_string(&self, failure_t: Option<f64>) -> String {
        let mut out = String::with_capacity(64 + self.buf.len() * 64);
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"version\":{},\"capacity\":{},\"total\":{},\"dropped\":{}",
            FLIGHTREC_SCHEMA,
            FLIGHTREC_VERSION,
            self.capacity,
            self.total,
            self.total.saturating_sub(self.buf.len() as u64),
        );
        if let Some(t) = failure_t {
            out.push_str(",\"failure_t\":");
            json::push_f64(&mut out, t);
        }
        out.push_str("}\n");
        for rec in self.iter() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_FLIGHT_CAPACITY)
    }
}

/// A recorder shared between a probe and the failure path that dumps it.
pub type SharedRecorder = Arc<Mutex<FlightRecorder>>;

/// Creates a [`SharedRecorder`] with the given ring capacity.
pub fn shared_recorder(capacity: usize) -> SharedRecorder {
    Arc::new(Mutex::new(FlightRecorder::new(capacity)))
}

/// A probe that feeds every flight record into a [`SharedRecorder`] and
/// observes nothing else. Sampling stays disabled (`sample_every` = 0),
/// so attaching it never makes the engine build a [`Sample`].
///
/// [`Sample`]: crate::probe::Sample
#[derive(Debug)]
pub struct RecorderProbe(SharedRecorder);

impl RecorderProbe {
    /// Wraps a shared recorder as a probe.
    pub fn new(recorder: SharedRecorder) -> Self {
        Self(recorder)
    }
}

impl Probe for RecorderProbe {
    fn wants_flight(&self) -> bool {
        true
    }

    fn on_flight(&mut self, rec: &FlightRecord) {
        self.0.lock().unwrap().record(*rec);
    }
}

/// A probe that fans every callback out to several child probes, for
/// call sites that need e.g. both a counter capture and a flight
/// recorder on the engine's single probe slot. The cadence is the
/// fastest child's (a child with a slower cadence simply sees extra
/// samples — observation only, so nothing perturbs).
pub struct FanoutProbe(Vec<Box<dyn Probe>>);

impl FanoutProbe {
    /// Combines `probes` into one.
    pub fn new(probes: Vec<Box<dyn Probe>>) -> Self {
        Self(probes)
    }
}

impl Probe for FanoutProbe {
    fn sample_every(&self) -> f64 {
        self.0
            .iter()
            .map(|p| p.sample_every())
            .filter(|&c| c > 0.0)
            .fold(0.0, |acc, c| if acc == 0.0 { c } else { acc.min(c) })
    }

    fn wants_flight(&self) -> bool {
        self.0.iter().any(|p| p.wants_flight())
    }

    fn on_sample(&mut self, sample: &crate::probe::Sample<'_>) {
        for p in &mut self.0 {
            p.on_sample(sample);
        }
    }

    fn on_span(&mut self, name: &str, micros: u64) {
        for p in &mut self.0 {
            p.on_span(name, micros);
        }
    }

    fn on_flight(&mut self, rec: &FlightRecord) {
        for p in &mut self.0 {
            p.on_flight(rec);
        }
    }

    fn on_finish(&mut self, t: f64, counters: &Counters) {
        for p in &mut self.0 {
            p.on_finish(t, counters);
        }
    }
}

/// One dump record as read back, its kind kept as written so a newer
/// writer's kinds survive (see [`FlightKind::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DumpRecord {
    /// Wire name of the kind (`"pop"`, `"rate"`, …).
    pub kind: String,
    /// Simulated time; `None` when written as `null` (non-finite).
    pub t: Option<f64>,
    /// Engine event count at the record point.
    pub events: u64,
    /// First kind-specific payload.
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

/// A `flightrec` dump as read back: the meta line's fields (zero when an
/// older writer omitted one) and the records, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Dump format version (compare with [`FLIGHTREC_VERSION`]).
    pub version: u64,
    /// Ring capacity of the recorder that wrote the dump.
    pub capacity: u64,
    /// Records ever offered to the ring.
    pub total: u64,
    /// Records overwritten before the dump.
    pub dropped: u64,
    /// Simulated failure time, when the writer knew it.
    pub failure_t: Option<f64>,
    /// The retained records, oldest first.
    pub records: Vec<DumpRecord>,
}

impl FlightDump {
    /// Reads a dump written by [`FlightRecorder::dump_string`]; blank
    /// lines are ignored. `Ok(None)` when the first line is not a
    /// `flightrec` meta line, i.e. the text is not a dump at all.
    ///
    /// # Errors
    /// `"<line>: <detail>"`, numbering non-blank lines from 1, for a
    /// record line that is not JSON or has no `k`.
    pub fn read(text: &str) -> Result<Option<Self>, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let meta = lines.next().and_then(|first| Json::parse(first).ok());
        let Some(meta) = meta.filter(|m| m.str_at("schema") == Some(FLIGHTREC_SCHEMA)) else {
            return Ok(None);
        };
        let records = (2..)
            .zip(lines)
            .map(|(lineno, line)| {
                let v = Json::parse(line).map_err(|e| format!("{lineno}: {e}"))?;
                let kind = v
                    .str_at("k")
                    .ok_or_else(|| format!("{lineno}: record without 'k'"))?;
                Ok(DumpRecord {
                    kind: kind.to_string(),
                    t: v.f64_at("t"),
                    events: v.u64_at("ev"),
                    a: v.u64_at("a"),
                    b: v.u64_at("b"),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Some(Self {
            version: meta.u64_at("version"),
            capacity: meta.u64_at("capacity"),
            total: meta.u64_at("total"),
            dropped: meta.u64_at("dropped"),
            failure_t: meta.f64_at("failure_t"),
            records,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> FlightRecord {
        FlightRecord {
            t: i as f64 * 0.5,
            events: i,
            kind: FlightKind::EventPop,
            a: i % 7,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_last_capacity_records() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(rec(i));
        }
        assert_eq!(r.total(), 10);
        assert_eq!(r.len(), 4);
        let held: Vec<u64> = r.iter().map(|x| x.events).collect();
        assert_eq!(held, vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_ring_is_in_order() {
        let mut r = FlightRecorder::new(8);
        for i in 0..3 {
            r.record(rec(i));
        }
        let held: Vec<u64> = r.iter().map(|x| x.events).collect();
        assert_eq!(held, vec![0, 1, 2]);
    }

    #[test]
    fn dump_has_meta_then_records() {
        let mut r = FlightRecorder::new(2);
        r.record(rec(1));
        r.record(rec(2));
        r.record(rec(3));
        let dump = r.dump_string(Some(7.25));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"flightrec\""));
        assert!(lines[0].contains("\"version\":1"));
        assert!(lines[0].contains("\"total\":3"));
        assert!(lines[0].contains("\"dropped\":1"));
        assert!(lines[0].contains("\"failure_t\":7.25"));
        assert!(lines[1].contains("\"ev\":2"));
        assert!(lines[2].contains("\"ev\":3"));
    }

    #[test]
    fn dump_reader_returns_the_last_window() {
        for (capacity, n) in [(4, 0), (4, 3), (4, 4), (4, 11), (1, 5)] {
            let mut r = FlightRecorder::new(capacity);
            let stream: Vec<FlightRecord> = (0..n)
                .map(|i| FlightRecord {
                    kind: [FlightKind::Handoff, FlightKind::FaultConsult][i as usize % 2],
                    b: u64::MAX - i,
                    t: if i == 2 { f64::NAN } else { i as f64 * 0.1 },
                    ..rec(i)
                })
                .collect();
            stream.iter().for_each(|&x| r.record(x));
            let failure_t = (n % 2 == 1).then_some(0.3);
            let dump = FlightDump::read(&r.dump_string(failure_t))
                .unwrap()
                .unwrap();
            assert_eq!(dump.version, u64::from(FLIGHTREC_VERSION));
            assert_eq!((dump.capacity, dump.total), (capacity as u64, n));
            assert_eq!(dump.failure_t, failure_t);
            let kept = n.min(capacity as u64) as usize;
            assert_eq!(dump.dropped, n - kept as u64);
            let want = &stream[stream.len() - kept..];
            assert_eq!(dump.records.len(), want.len());
            for (got, want) in dump.records.iter().zip(want) {
                assert_eq!(FlightKind::parse(&got.kind), Some(want.kind));
                assert_eq!(got.t, Some(want.t).filter(|t| t.is_finite()));
                assert_eq!((got.events, got.a, got.b), (want.events, want.a, want.b));
            }
        }
    }

    #[test]
    fn dump_reader_keeps_unknown_kinds_and_locates_errors() {
        let text =
            "{\"schema\":\"flightrec\",\"version\":1}\n\n{\"k\":\"warp\",\"t\":1,\"ev\":2}\n";
        let dump = FlightDump::read(text).unwrap().unwrap();
        assert_eq!(dump.records[0].kind, "warp");
        assert_eq!((dump.capacity, dump.records[0].a), (0, 0));
        for other in [
            "",
            "\n{\"schema\":\"btfluid-trace\"}",
            "not json\n{\"k\":1}",
        ] {
            assert_eq!(FlightDump::read(other), Ok(None), "{other:?}");
        }
        for (bad, prefix) in [
            (
                "{\"schema\":\"flightrec\"}\n{\"t\":1}",
                "2: record without 'k'",
            ),
            ("{\"schema\":\"flightrec\"}\n\n{\"k\":\"pop\"}\nnope", "3: "),
        ] {
            let err = FlightDump::read(bad).unwrap_err();
            assert!(err.starts_with(prefix), "{bad:?}: {err}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [
            FlightKind::EventPop,
            FlightKind::RateRecompute,
            FlightKind::AggResample,
            FlightKind::Handoff,
            FlightKind::Checkpoint,
            FlightKind::FaultConsult,
        ] {
            assert_eq!(FlightKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(FlightKind::parse("warp"), None);
    }

    #[test]
    fn recorder_probe_feeds_shared_ring() {
        let shared = shared_recorder(3);
        let mut probe = RecorderProbe::new(Arc::clone(&shared));
        assert!(probe.wants_flight());
        assert_eq!(probe.sample_every(), 0.0);
        for i in 0..5 {
            probe.on_flight(&rec(i));
        }
        let ring = shared.lock().unwrap();
        assert_eq!(ring.total(), 5);
        let held: Vec<u64> = ring.iter().map(|x| x.events).collect();
        assert_eq!(held, vec![2, 3, 4]);
    }

    #[test]
    fn fanout_forwards_to_all_children() {
        let a = shared_recorder(4);
        let b = shared_recorder(4);
        let mut fan = FanoutProbe::new(vec![
            Box::new(RecorderProbe::new(Arc::clone(&a))),
            Box::new(RecorderProbe::new(Arc::clone(&b))),
        ]);
        assert!(fan.wants_flight());
        fan.on_flight(&rec(9));
        assert_eq!(a.lock().unwrap().len(), 1);
        assert_eq!(b.lock().unwrap().len(), 1);
    }

    #[test]
    fn fanout_cadence_is_fastest_child() {
        struct C(f64);
        impl Probe for C {
            fn sample_every(&self) -> f64 {
                self.0
            }
        }
        let fan = FanoutProbe::new(vec![Box::new(C(0.0)), Box::new(C(10.0)), Box::new(C(2.5))]);
        assert_eq!(fan.sample_every(), 2.5);
        let silent = FanoutProbe::new(vec![Box::new(C(0.0))]);
        assert_eq!(silent.sample_every(), 0.0);
    }
}
