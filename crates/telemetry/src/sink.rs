//! The versioned JSONL trace sink, and the schema's one reader.
//!
//! One trace file is a sequence of newline-delimited JSON objects, in
//! one or more runs, each made of:
//!
//! 1. a `meta` record stamped with the schema name and version (plus
//!    caller-supplied run parameters),
//! 2. any number of `sample`, `span`, `profile` and `flight` records,
//! 3. a final `end` record with the closing clock and counters.
//!
//! A flight-recorder dump ([`FlightRecorder::dump_string`]) is a run of
//! the same schema: its meta record carries the ring's `capacity`,
//! `total`, `dropped` and optional `failure_t`, and its `flight` records
//! are the retained window, oldest first. A ring has no `end` record.
//!
//! Writes follow the snapshot layer's atomic discipline: everything goes
//! to `<path>.tmp` and is renamed over the final path by
//! [`TraceSink::finish`], so a crash leaves either no trace or a
//! complete one — a lingering `.tmp` always means "this run did not
//! finish".
//!
//! [`read_trace`] is the schema's one reader: it decodes traces and
//! flight dumps back into typed [`TraceRun`]s for `btfluid inspect`, the
//! self-check oracle and the tests.
//!
//! [`FlightRecorder::dump_string`]: crate::FlightRecorder::dump_string

use crate::counters::Counters;
use crate::flightrec::FlightRecord;
use crate::json::{self, Json};
use crate::probe::Sample;
use crate::profiler::PhaseStats;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped on every trace's meta record.
pub const TRACE_SCHEMA: &str = "btfluid-trace";
/// Current trace schema version.
pub const TRACE_VERSION: u32 = 1;

/// Encodes a schema-stamped `meta` record (no trailing newline).
pub(crate) fn meta_line(fields: &[(&str, Json)]) -> String {
    let mut s =
        format!("{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION},\"kind\":\"meta\"");
    for (key, value) in fields {
        s.push(',');
        json::push_str_lit(&mut s, key);
        let _ = write!(s, ":{value}");
    }
    s.push('}');
    s
}

/// Appends one `flight` record (no trailing newline). Floats use
/// shortest-roundtrip formatting, so the line is deterministic given
/// bit-identical inputs.
pub(crate) fn push_flight_line(out: &mut String, rec: &FlightRecord) {
    out.push_str("{\"kind\":\"flight\",\"k\":\"");
    out.push_str(rec.kind.name());
    out.push_str("\",\"t\":");
    json::push_f64(out, rec.t);
    let _ = write!(
        out,
        ",\"ev\":{},\"a\":{},\"b\":{}}}",
        rec.events, rec.a, rec.b
    );
}

/// An append-only JSONL trace writer (see module docs for the record
/// grammar and atomicity guarantees).
#[derive(Debug)]
pub struct TraceSink {
    final_path: PathBuf,
    tmp_path: PathBuf,
    out: Option<BufWriter<File>>,
    error: Option<String>,
    lines: u64,
}

impl TraceSink {
    /// Opens `<path>.tmp` for writing; the final path appears only on
    /// [`TraceSink::finish`].
    ///
    /// # Errors
    /// Propagates the file creation failure.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        let tmp_path = PathBuf::from(os);
        let file = File::create(&tmp_path)?;
        Ok(Self {
            final_path: path.to_path_buf(),
            tmp_path,
            out: Some(BufWriter::new(file)),
            error: None,
            lines: 0,
        })
    }

    /// Wraps the sink for sharing between a probe and the caller.
    pub fn shared(self) -> SharedSink {
        Arc::new(Mutex::new(self))
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        let Some(out) = self.out.as_mut() else {
            self.error = Some("write after finish".into());
            return;
        };
        // The chaos injection seam: a scripted fault here behaves exactly
        // like the OS failing the buffered write — the error is deferred
        // and surfaces (typed) at finish(), the sink's normal discipline.
        let wrote =
            match crate::faults::write_plan(crate::faults::FaultSite::TraceWrite, line.len()) {
                crate::faults::WritePlan::Full | crate::faults::WritePlan::Corrupt => out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n")),
                crate::faults::WritePlan::Short(n, e) => {
                    let _ = out.write_all(&line.as_bytes()[..n]);
                    Err(e)
                }
                crate::faults::WritePlan::Fail(e) => Err(e),
            };
        match wrote {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// Writes the schema-stamped meta record; call once per run, first.
    pub fn meta(&mut self, fields: &[(&str, Json)]) {
        self.write_line(&meta_line(fields));
    }

    /// Writes one sample record.
    pub fn sample(&mut self, sample: &Sample<'_>) {
        let mut s = String::with_capacity(256);
        s.push_str("{\"kind\":\"sample\",\"t\":");
        json::push_f64(&mut s, sample.t);
        let _ = write!(s, ",\"events\":{}", sample.events);
        s.push_str(",\"downloaders\":");
        json::push_usize_arr(&mut s, sample.downloaders);
        s.push_str(",\"download_pairs\":");
        json::push_usize_arr(&mut s, sample.download_pairs);
        s.push_str(",\"seed_pairs\":");
        json::push_usize_arr(&mut s, sample.seed_pairs);
        s.push_str(",\"weight\":");
        json::push_f64_arr(&mut s, sample.weight);
        s.push_str(",\"pool_real\":");
        json::push_f64_arr(&mut s, sample.pool_real);
        s.push_str(",\"pool_virtual\":");
        json::push_f64_arr(&mut s, sample.pool_virtual);
        s.push_str(",\"rho_mean\":");
        json::push_f64(&mut s, sample.rho_mean);
        s.push_str(",\"delta_mean\":");
        json::push_f64(&mut s, sample.delta_mean);
        let _ = write!(s, ",\"counters\":{}}}", sample.counters.to_json());
        self.write_line(&s);
    }

    /// Writes one span-timing record.
    pub fn span(&mut self, name: &str, micros: u64) {
        let mut s = String::with_capacity(64);
        s.push_str("{\"kind\":\"span\",\"name\":");
        json::push_str_lit(&mut s, name);
        let _ = write!(s, ",\"micros\":{micros}}}");
        self.write_line(&s);
    }

    /// Writes a span-timing record anchored to a simulated-time instant
    /// (an additive `"t"` field on the span record; schema version
    /// unchanged — readers without the field ignore it).
    ///
    /// Hybrid fluid↔DES handoffs use this: *when* in model time a switch
    /// happened matters to later thrash analysis, not just how long the
    /// handoff took in wall time.
    pub fn span_at(&mut self, name: &str, micros: u64, t: f64) {
        let mut s = String::with_capacity(80);
        s.push_str("{\"kind\":\"span\",\"name\":");
        json::push_str_lit(&mut s, name);
        let _ = write!(s, ",\"micros\":{micros},\"t\":");
        json::push_f64(&mut s, t);
        s.push('}');
        self.write_line(&s);
    }

    /// Writes one self-profiler record (an additive `"profile"` record
    /// kind; schema version unchanged — readers without it skip unknown
    /// kinds, the same discipline as [`TraceSink::span_at`]'s `"t"`).
    pub fn profile(&mut self, table: &crate::profiler::ProfileTable) {
        let mut s = String::with_capacity(64 + table.phases.len() * 96);
        let _ = write!(
            s,
            "{{\"kind\":\"profile\",\"events\":{},\"pair_overhead_ns\":{},\"phases\":[",
            table.events, table.pair_overhead_ns
        );
        for (i, (name, stat)) in table.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{name}\",\"calls\":{},\"self_ns\":{},\"total_ns\":{}}}",
                stat.calls, stat.self_ns, stat.total_ns
            );
        }
        s.push_str("]}");
        self.write_line(&s);
    }

    /// Writes the final end record.
    pub fn end(&mut self, t: f64, counters: &Counters) {
        let mut s = String::with_capacity(128);
        s.push_str("{\"kind\":\"end\",\"t\":");
        json::push_f64(&mut s, t);
        let _ = write!(s, ",\"counters\":{}}}", counters.to_json());
        self.write_line(&s);
    }

    /// Flushes, fsyncs, and renames the temp file over the final path.
    ///
    /// # Errors
    /// Surfaces the first deferred write error, or the flush/rename
    /// failure. On error the temp file is removed best-effort.
    pub fn finish(&mut self) -> io::Result<PathBuf> {
        let fail = |tmp: &Path, e: io::Error| {
            let _ = std::fs::remove_file(tmp);
            Err(e)
        };
        if let Some(msg) = self.error.take() {
            self.out = None;
            return fail(&self.tmp_path, io::Error::other(msg));
        }
        let Some(mut out) = self.out.take() else {
            return Ok(self.final_path.clone());
        };
        if let Err(e) = out.flush() {
            return fail(&self.tmp_path, e);
        }
        let file = match out.into_inner() {
            Ok(f) => f,
            Err(e) => return fail(&self.tmp_path, e.into_error()),
        };
        if let Err(e) = file.sync_all() {
            return fail(&self.tmp_path, e);
        }
        drop(file);
        if let Some(kind) = crate::faults::intercept(crate::faults::FaultSite::TraceFinish) {
            return fail(&self.tmp_path, kind.to_io_error());
        }
        if let Err(e) = std::fs::rename(&self.tmp_path, &self.final_path) {
            return fail(&self.tmp_path, e);
        }
        Ok(self.final_path.clone())
    }
}

/// A trace sink shared between a [`TelemetryProbe`] and the caller that
/// will [`TraceSink::finish`] it after the run.
///
/// [`TelemetryProbe`]: crate::TelemetryProbe
pub type SharedSink = Arc<Mutex<TraceSink>>;

/// One `sample` record as read back, field for field as in [`Sample`].
/// Floats JSON cannot carry (NaN, ±∞) were written as `null` and read back
/// as `None`; fields an older writer omitted read as zero or empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSample {
    /// Simulated time of the sample.
    pub t: Option<f64>,
    /// Events dispatched so far.
    pub events: u64,
    /// Per-class downloading users.
    pub downloaders: Vec<u64>,
    /// Per-class active (peer, file) downloads.
    pub download_pairs: Vec<u64>,
    /// Per-class (peer, file) seeding pairs.
    pub seed_pairs: Vec<u64>,
    /// Per-subtorrent downloader weight.
    pub weight: Vec<Option<f64>>,
    /// Per-subtorrent real-seed pool.
    pub pool_real: Vec<Option<f64>>,
    /// Per-subtorrent virtual-seed pool.
    pub pool_virtual: Vec<Option<f64>>,
    /// Mean individual ρ.
    pub rho_mean: Option<f64>,
    /// Mean Adapt Δ at the latest epoch.
    pub delta_mean: Option<f64>,
    /// Cumulative counters.
    pub counters: Counters,
}

/// One `span` record as read back.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Span name.
    pub name: String,
    /// Wall-clock duration.
    pub micros: u64,
    /// Simulated time of a [`TraceSink::span_at`] span; `None` on others.
    pub t: Option<f64>,
}

/// One `profile` record as read back ([`TraceSink::profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Engine events the run dispatched.
    pub events: u64,
    /// Calibrated per-pair timer overhead that was subtracted, in ns.
    pub pair_overhead_ns: u64,
    /// `(phase name, stats)` in written order.
    pub phases: Vec<(String, PhaseStats)>,
}

/// One `flight` record as read back, its kind kept as written so a newer
/// writer's kinds survive (see [`FlightKind::parse`]).
///
/// [`FlightKind::parse`]: crate::FlightKind::parse
#[derive(Debug, Clone, PartialEq)]
pub struct TraceFlight {
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

/// One engine run of a trace: a `meta` record and every record up to the
/// next `meta`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRun {
    /// The meta record as written: `version`, the writer's run parameters
    /// (`label`, `aggregate`, …) and a flight dump's `capacity`, `total`,
    /// `dropped` and `failure_t`.
    pub meta: Json,
    /// Sample records, in order.
    pub samples: Vec<TraceSample>,
    /// Span records, in order.
    pub spans: Vec<TraceSpan>,
    /// Profile records, in order.
    pub profiles: Vec<TraceProfile>,
    /// Flight records, oldest first.
    pub flights: Vec<TraceFlight>,
    /// The end record's clock and counters (`None`: the run did not
    /// finish, or the run is a flight ring, which has no end by design).
    pub end: Option<(Option<f64>, Counters)>,
    /// `(line, kind)` of records of kinds this build does not know.
    pub skipped: Vec<(usize, String)>,
}

impl TraceRun {
    /// The run's closing counters: the end record's, or the last
    /// sample's for a truncated trace.
    pub fn final_counters(&self) -> Counters {
        self.end
            .map(|(_, c)| c)
            .or_else(|| self.samples.last().map(|s| s.counters))
            .unwrap_or_default()
    }

    /// Whether the run is a flight-recorder dump (its meta carries the
    /// ring's `capacity`).
    pub fn is_flight_dump(&self) -> bool {
        self.meta.get("capacity").is_some()
    }
}

/// Reads a `btfluid-trace` JSONL file into its runs, one per `meta`
/// record (none for text without one). Blank lines are ignored, unknown
/// record kinds are skipped into [`TraceRun::skipped`], and the schema
/// version is reported in [`TraceRun::meta`], not checked.
///
/// # Errors
/// `"<line>: <detail>"` for a line that is not JSON, a record of another
/// schema (an old `flightrec` dump among them), a record without a
/// `kind`, or a record before any meta.
pub fn read_trace(text: &str) -> Result<Vec<TraceRun>, String> {
    let mut runs: Vec<TraceRun> = Vec::new();
    for (lineno, line) in (1..)
        .zip(text.lines())
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = Json::parse(line.trim()).map_err(|e| format!("{lineno}: {e}"))?;
        // A meta record, or any record naming a schema (an old
        // `flightrec` dump's header among them), must name this one.
        let kind = v.str_at("kind");
        if kind == Some("meta") || v.get("schema").is_some() {
            let schema = v.str_at("schema").unwrap_or("?");
            if schema != TRACE_SCHEMA {
                return Err(format!(
                    "{lineno}: schema '{schema}' is not '{TRACE_SCHEMA}'"
                ));
            }
        }
        let kind = kind.ok_or_else(|| format!("{lineno}: record without a kind"))?;
        let u64s = |key| {
            v.arr_at(key)
                .iter()
                .map(|x| x.as_u64().unwrap_or(0))
                .collect()
        };
        let f64s = |key| v.arr_at(key).iter().map(Json::as_f64).collect();
        let counters = || {
            v.get("counters")
                .map(Counters::from_json)
                .unwrap_or_default()
        };
        if kind == "meta" {
            runs.push(TraceRun {
                meta: v,
                ..TraceRun::default()
            });
            continue;
        }
        let Some(run) = runs.last_mut() else {
            return Err(format!(
                "{lineno}: '{kind}' record before any meta — not a btfluid trace?"
            ));
        };
        match kind {
            "sample" => run.samples.push(TraceSample {
                t: v.f64_at("t"),
                events: v.u64_at("events"),
                downloaders: u64s("downloaders"),
                download_pairs: u64s("download_pairs"),
                seed_pairs: u64s("seed_pairs"),
                weight: f64s("weight"),
                pool_real: f64s("pool_real"),
                pool_virtual: f64s("pool_virtual"),
                rho_mean: v.f64_at("rho_mean"),
                delta_mean: v.f64_at("delta_mean"),
                counters: counters(),
            }),
            "span" => run.spans.push(TraceSpan {
                name: v.str_at("name").unwrap_or("?").into(),
                micros: v.u64_at("micros"),
                t: v.f64_at("t"),
            }),
            "profile" => run.profiles.push(TraceProfile {
                events: v.u64_at("events"),
                pair_overhead_ns: v.u64_at("pair_overhead_ns"),
                phases: v
                    .arr_at("phases")
                    .iter()
                    .map(|ph| {
                        let stats = PhaseStats {
                            calls: ph.u64_at("calls"),
                            self_ns: ph.u64_at("self_ns"),
                            total_ns: ph.u64_at("total_ns"),
                        };
                        (ph.str_at("name").unwrap_or("?").to_string(), stats)
                    })
                    .collect(),
            }),
            "flight" => run.flights.push(TraceFlight {
                kind: v.str_at("k").unwrap_or("?").into(),
                t: v.f64_at("t"),
                events: v.u64_at("ev"),
                a: v.u64_at("a"),
                b: v.u64_at("b"),
            }),
            "end" => run.end = Some((v.f64_at("t"), counters())),
            other => run.skipped.push((lineno, other.to_string())),
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Probe, ScratchDir};

    fn sample_bufs() -> ([usize; 2], [f64; 2]) {
        ([3, 1], [1.5, 0.0])
    }

    fn sample<'a>(bufs: &'a ([usize; 2], [f64; 2])) -> Sample<'a> {
        Sample {
            t: 10.0,
            events: 99,
            downloaders: &bufs.0,
            download_pairs: &bufs.0,
            seed_pairs: &bufs.0,
            weight: &bufs.1,
            pool_real: &bufs.1,
            pool_virtual: &bufs.1,
            rho_mean: 0.75,
            delta_mean: f64::NAN,
            counters: Counters::default(),
        }
    }

    #[test]
    fn full_trace_is_atomic_and_well_formed() {
        let dir = ScratchDir::new("telemetry").unwrap();
        let path = dir.join("full.jsonl");
        let mut sink = TraceSink::create(&path).unwrap();
        sink.meta(&[
            ("scheme", Json::Str("MTCD".into())),
            ("seed", Json::num_u64(u64::MAX)),
            ("sample_every", Json::num_f64(5.0)),
            ("aggregate", Json::Bool(false)),
        ]);
        let bufs = sample_bufs();
        sink.sample(&sample(&bufs));
        sink.span("engine", 1234);
        sink.end(80.0, &Counters::default());
        assert!(!path.exists(), "final path must not exist before finish");
        assert_eq!(sink.lines(), 4);
        sink.finish().unwrap();
        assert!(path.exists());

        let body = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"btfluid-trace\""));
        assert!(lines[0].contains("\"version\":1"));
        assert!(lines[0].contains(&format!("\"seed\":{}", u64::MAX)));
        assert!(lines[1].contains("\"kind\":\"sample\""));
        assert!(lines[1].contains("\"downloaders\":[3,1]"));
        assert!(lines[1].contains("\"delta_mean\":null"));
        assert!(lines[2].contains("\"kind\":\"span\""));
        assert!(lines[3].contains("\"kind\":\"end\""));
    }

    /// A sink-only probe streams samples and the end record into the
    /// shared sink at its cadence, and asks for no flight records.
    #[test]
    fn sink_probe_streams_through_shared_sink() {
        let dir = ScratchDir::new("telemetry").unwrap();
        let path = dir.join("probe.jsonl");
        let shared = TraceSink::create(&path).unwrap().shared();
        let mut probe = crate::TelemetryProbe {
            sink: Some((shared.clone(), 2.5)),
            flight: None,
        };
        assert_eq!((probe.sample_every(), probe.wants_flight()), (2.5, false));
        let bufs = sample_bufs();
        probe.on_sample(&sample(&bufs));
        probe.on_finish(80.0, &Counters::default());
        shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .finish()
            .unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 2);
        assert!(body.contains("\"kind\":\"end\""));
    }

    #[test]
    fn reader_decodes_what_the_sink_wrote() {
        let dir = ScratchDir::new("telemetry").unwrap();
        let path = dir.join("read.jsonl");
        let mut sink = TraceSink::create(&path).unwrap();
        sink.meta(&[
            ("label", Json::Str("MTCD".into())),
            ("aggregate", Json::Bool(true)),
        ]);
        let weight = [f64::INFINITY, 0.25];
        let pool = [0.1 + 0.2, f64::NAN];
        let written = Sample {
            t: 12.5,
            events: 7,
            downloaders: &[3, 0],
            download_pairs: &[4, 0],
            seed_pairs: &[1, 2],
            weight: &weight,
            pool_real: &pool,
            pool_virtual: &[0.0, -0.0],
            rho_mean: f64::NAN,
            delta_mean: f64::NEG_INFINITY,
            counters: Counters {
                heap_peak: 9,
                ..Counters::default()
            },
        };
        sink.sample(&written);
        sink.span("engine", 1234);
        sink.span_at("handoff:des->fluid", 17, 500.25);
        let table = crate::profiler::ProfileTable {
            phases: vec![
                (
                    "heap_ops",
                    PhaseStats {
                        calls: 3,
                        self_ns: 40,
                        total_ns: 55,
                    },
                ),
                (
                    "rate_maint",
                    PhaseStats {
                        calls: 2,
                        self_ns: 0,
                        total_ns: u64::MAX,
                    },
                ),
            ],
            events: 11,
            pair_overhead_ns: 80,
        };
        sink.profile(&table);
        let end = Counters {
            events_popped: u64::MAX,
            agg_samples: 5,
            ..Counters::default()
        };
        sink.end(f64::INFINITY, &end);
        sink.finish().unwrap();

        let runs = read_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.meta.u64_at("version"), u64::from(TRACE_VERSION));
        assert_eq!(run.meta.str_at("label"), Some("MTCD"));
        assert_eq!(run.meta.get("aggregate"), Some(&Json::Bool(true)));
        assert!(!run.is_flight_dump());
        assert_eq!(
            run.samples,
            vec![TraceSample {
                t: Some(12.5),
                events: 7,
                downloaders: vec![3, 0],
                download_pairs: vec![4, 0],
                seed_pairs: vec![1, 2],
                weight: vec![None, Some(0.25)],
                pool_real: vec![Some(0.1 + 0.2), None],
                pool_virtual: vec![Some(0.0), Some(-0.0)],
                rho_mean: None,
                delta_mean: None,
                counters: written.counters,
            }]
        );
        let spans: Vec<(&str, u64, Option<f64>)> = run
            .spans
            .iter()
            .map(|s| (s.name.as_str(), s.micros, s.t))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("engine", 1234, None),
                ("handoff:des->fluid", 17, Some(500.25))
            ]
        );
        let phases: Vec<(&str, PhaseStats)> = table.phases.clone();
        assert_eq!(run.profiles.len(), 1);
        assert_eq!(run.profiles[0].events, 11);
        assert_eq!(run.profiles[0].pair_overhead_ns, 80);
        let read: Vec<(&str, PhaseStats)> = run.profiles[0]
            .phases
            .iter()
            .map(|(n, s)| (n.as_str(), *s))
            .collect();
        assert_eq!(read, phases);
        assert_eq!(run.end, Some((None, end)));
        assert_eq!(run.final_counters(), end);
        assert!(run.skipped.is_empty());
    }

    #[test]
    fn reader_splits_runs_and_locates_errors() {
        let text = "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\"}\n\
                    {\"kind\":\"sample\",\"t\":1,\"counters\":{\"heap_peak\":4}}\n\
                    \n\
                    {\"kind\":\"warp\"}\n\
                    {\"schema\":\"btfluid-trace\",\"version\":2,\"kind\":\"meta\",\"label\":\"B\"}\n";
        let runs = read_trace(text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].skipped, vec![(4, "warp".to_string())]);
        assert_eq!(runs[0].end, None);
        assert_eq!(
            runs[0].final_counters().heap_peak,
            4,
            "truncated: last sample's"
        );
        let meta = &runs[1].meta;
        assert_eq!(
            (meta.u64_at("version"), meta.str_at("label")),
            (2, Some("B"))
        );
        assert!(read_trace("").unwrap().is_empty());
        for (bad, line) in [
            ("{\"kind\":\"sample\"}", "1: "),
            ("{\"schema\":\"x\",\"kind\":\"meta\"}", "1: schema 'x'"),
            ("{\"kind\":\"meta\"}", "1: schema '?'"),
            (
                "{\"schema\":\"flightrec\",\"version\":1,\"capacity\":4}",
                "1: schema 'flightrec' is not 'btfluid-trace'",
            ),
            (
                "{\"schema\":\"btfluid-trace\",\"kind\":\"meta\"}\n{}",
                "2: record without",
            ),
            (
                "{\"schema\":\"btfluid-trace\",\"kind\":\"meta\"}\n\n{",
                "3: ",
            ),
        ] {
            let err = read_trace(bad).unwrap_err();
            assert!(err.starts_with(line), "{bad:?}: {err}");
        }
    }

    #[test]
    fn unfinished_trace_leaves_only_tmp() {
        let dir = ScratchDir::new("telemetry").unwrap();
        let path = dir.join("crash.jsonl");
        let tmp_path = {
            let mut sink = TraceSink::create(&path).unwrap();
            sink.span("engine", 1);
            sink.tmp_path.clone()
            // dropped without finish(), mimicking a crash
        };
        assert!(!path.exists());
        assert!(tmp_path.exists(), "the torn .tmp is the crash marker");
    }
}
