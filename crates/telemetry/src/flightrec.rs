//! The flight recorder: a fixed-capacity, allocation-free ring buffer of
//! recent engine happenings, dumped as a btfluid-trace run when a run
//! fails.
//!
//! The ring is fed through the same [`Probe`] seam as the sampler (the
//! [`TelemetryProbe`]'s optional ring), so it inherits the crate's
//! zero-perturbation contract: records are built from values the engine
//! already computed (clock, event count, counter deltas) and the recorder
//! has nowhere to write back. When no probe wants flight records the
//! engine pays one cached boolean test per event; when one does, each
//! record is a fixed-size `Copy` struct written into a preallocated ring
//! — no allocation on the hot path either way. Records are encoded only
//! at dump time.
//!
//! On failure (supervisor quarantine, chaos invariant violation, typed
//! engine error) [`FlightRecorder::dump_string`] serializes the ring as
//! one btfluid-trace v1 run: a schema-stamped `meta` record carrying the
//! ring's `capacity`, `total`, `dropped` and (when known) `failure_t`,
//! then one `flight` record per surviving entry, oldest first. The dump
//! answers "what were the last N things the engine did" without anyone
//! having had to enable tracing in advance, and [`read_trace`] reads it
//! back like any trace.
//!
//! [`Probe`]: crate::Probe
//! [`TelemetryProbe`]: crate::TelemetryProbe
//! [`read_trace`]: crate::read_trace

use crate::json::Json;
use crate::sink;
use std::sync::{Arc, Mutex};

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

    /// Serializes the ring as one btfluid-trace run: the meta record
    /// (`capacity`, `total`, `dropped`), then one `flight` record per held
    /// entry, oldest first. `failure_t` stamps the failure's simulated
    /// time into the meta record when the caller knows it, so readers can
    /// flag a dump whose newest record predates the failure it claims to
    /// explain.
    pub fn dump_string(&self, failure_t: Option<f64>) -> String {
        let mut meta = vec![
            ("capacity", Json::num_u64(self.capacity as u64)),
            ("total", Json::num_u64(self.total)),
            ("dropped", Json::num_u64(self.total - self.buf.len() as u64)),
        ];
        meta.extend(failure_t.map(|t| ("failure_t", Json::num_f64(t))));
        let mut out = sink::meta_line(&meta);
        out.reserve(1 + self.buf.len() * 80);
        out.push('\n');
        for rec in self.iter() {
            sink::push_flight_line(&mut out, rec);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Probe, TelemetryProbe};

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
        assert_eq!(
            lines,
            [
                "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\",\"capacity\":2,\
                 \"total\":3,\"dropped\":1,\"failure_t\":7.25}",
                "{\"kind\":\"flight\",\"k\":\"pop\",\"t\":1,\"ev\":2,\"a\":2,\"b\":0}",
                "{\"kind\":\"flight\",\"k\":\"pop\",\"t\":1.5,\"ev\":3,\"a\":3,\"b\":0}",
            ]
        );
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
            let runs = crate::read_trace(&r.dump_string(failure_t)).unwrap();
            let [run] = runs.as_slice() else {
                panic!("one run per dump, read {}", runs.len());
            };
            assert!(run.is_flight_dump() && run.end.is_none());
            assert_eq!(run.meta.u64_at("version"), u64::from(crate::TRACE_VERSION));
            let meta = |key| run.meta.u64_at(key);
            assert_eq!((meta("capacity"), meta("total")), (capacity as u64, n));
            assert_eq!(run.meta.f64_at("failure_t"), failure_t);
            let kept = n.min(capacity as u64) as usize;
            assert_eq!(meta("dropped"), n - kept as u64);
            let want = &stream[stream.len() - kept..];
            assert_eq!(run.flights.len(), want.len());
            for (got, want) in run.flights.iter().zip(want) {
                assert_eq!(FlightKind::parse(&got.kind), Some(want.kind));
                assert_eq!(got.t, Some(want.t).filter(|t| t.is_finite()));
                assert_eq!((got.events, got.a, got.b), (want.events, want.a, want.b));
            }
        }
    }

    #[test]
    fn dump_reader_keeps_unknown_kinds_and_locates_errors() {
        let text =
            "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\",\"capacity\":2}\n\n\
                    {\"kind\":\"flight\",\"k\":\"warp\",\"t\":1,\"ev\":2}\n";
        let runs = crate::read_trace(text).unwrap();
        assert_eq!(runs[0].flights[0].kind, "warp");
        assert_eq!((runs[0].meta.u64_at("total"), runs[0].flights[0].a), (0, 0));
        for (bad, prefix) in [
            (
                "{\"schema\":\"flightrec\",\"version\":1}\n{\"k\":\"pop\",\"t\":1}",
                "1: schema 'flightrec' is not 'btfluid-trace'",
            ),
            ("{\"k\":\"pop\",\"t\":1}", "1: record without a kind"),
            (
                "{\"schema\":\"btfluid-trace\",\"kind\":\"meta\"}\n\n{\"kind\":\"flight\"}\nnope",
                "4: ",
            ),
        ] {
            let err = crate::read_trace(bad).unwrap_err();
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

    /// A ring-only probe feeds the shared ring and never asks the engine
    /// for a sample.
    #[test]
    fn recorder_probe_feeds_shared_ring() {
        let shared = shared_recorder(3);
        let mut probe = TelemetryProbe {
            flight: Some(Arc::clone(&shared)),
            ..TelemetryProbe::default()
        };
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

    /// A probe holding both a sink and a ring sends each callback to the
    /// observer that records it: spans and the end to the sink, flight
    /// records to the ring, and the sink's cadence to the engine.
    #[test]
    fn fanout_forwards_to_all_children() {
        let dir = crate::ScratchDir::new("telemetry").unwrap();
        let mut sink = crate::TraceSink::create(&dir.join("both.jsonl")).unwrap();
        sink.meta(&[]);
        let sink = sink.shared();
        let ring = shared_recorder(4);
        let mut probe = TelemetryProbe {
            sink: Some((Arc::clone(&sink), 2.5)),
            flight: Some(Arc::clone(&ring)),
        };
        assert_eq!((probe.sample_every(), probe.wants_flight()), (2.5, true));
        probe.on_flight(&rec(9));
        probe.on_span("engine", 3);
        probe.on_finish(1.0, &crate::Counters::default());
        assert_eq!(ring.lock().unwrap().len(), 1);
        let path = sink.lock().unwrap().finish().unwrap();
        let run = &crate::read_trace(&std::fs::read_to_string(path).unwrap()).unwrap()[0];
        assert_eq!(
            (run.spans.len(), run.end.is_some(), run.flights.len()),
            (1, true, 0)
        );
    }
}
