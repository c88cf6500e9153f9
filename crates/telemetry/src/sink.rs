//! The versioned JSONL trace sink.
//!
//! One trace file is a sequence of newline-delimited JSON objects:
//!
//! 1. a `meta` record stamped with the schema name and version (plus
//!    caller-supplied run parameters),
//! 2. any number of `sample` and `span` records,
//! 3. a final `end` record with the closing clock and counters.
//!
//! Writes follow the snapshot layer's atomic discipline: everything goes
//! to `<path>.tmp` and is renamed over the final path by
//! [`TraceSink::finish`], so a crash leaves either no trace or a
//! complete one — a lingering `.tmp` always means "this run did not
//! finish".

use crate::counters::Counters;
use crate::jsonw;
use crate::probe::{Probe, Sample};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Schema identifier stamped on every trace's meta record.
pub const TRACE_SCHEMA: &str = "btfluid-trace";
/// Current trace schema version.
pub const TRACE_VERSION: u32 = 1;

/// A typed value for one meta-record field.
#[derive(Debug, Clone)]
pub enum MetaField {
    /// A string field.
    Str(String),
    /// A float field (non-finite encodes as `null`).
    F64(f64),
    /// An unsigned integer field (seeds survive exactly).
    U64(u64),
    /// A boolean field.
    Bool(bool),
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

    /// Writes the schema-stamped meta record; call once, first.
    pub fn meta(&mut self, fields: &[(&str, MetaField)]) {
        let mut s = format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"version\":{TRACE_VERSION},\"kind\":\"meta\""
        );
        for (key, value) in fields {
            s.push(',');
            jsonw::push_str_lit(&mut s, key);
            s.push(':');
            match value {
                MetaField::Str(x) => jsonw::push_str_lit(&mut s, x),
                MetaField::F64(x) => jsonw::push_f64(&mut s, *x),
                MetaField::U64(x) => {
                    let _ = write!(s, "{x}");
                }
                MetaField::Bool(x) => {
                    let _ = write!(s, "{x}");
                }
            }
        }
        s.push('}');
        self.write_line(&s);
    }

    /// Writes one sample record.
    pub fn sample(&mut self, sample: &Sample<'_>) {
        let mut s = String::with_capacity(256);
        s.push_str("{\"kind\":\"sample\",\"t\":");
        jsonw::push_f64(&mut s, sample.t);
        let _ = write!(s, ",\"events\":{}", sample.events);
        s.push_str(",\"downloaders\":");
        jsonw::push_usize_arr(&mut s, sample.downloaders);
        s.push_str(",\"download_pairs\":");
        jsonw::push_usize_arr(&mut s, sample.download_pairs);
        s.push_str(",\"seed_pairs\":");
        jsonw::push_usize_arr(&mut s, sample.seed_pairs);
        s.push_str(",\"weight\":");
        jsonw::push_f64_arr(&mut s, sample.weight);
        s.push_str(",\"pool_real\":");
        jsonw::push_f64_arr(&mut s, sample.pool_real);
        s.push_str(",\"pool_virtual\":");
        jsonw::push_f64_arr(&mut s, sample.pool_virtual);
        s.push_str(",\"rho_mean\":");
        jsonw::push_f64(&mut s, sample.rho_mean);
        s.push_str(",\"delta_mean\":");
        jsonw::push_f64(&mut s, sample.delta_mean);
        let _ = write!(s, ",\"counters\":{}}}", sample.counters.to_json());
        self.write_line(&s);
    }

    /// Writes one span-timing record.
    pub fn span(&mut self, name: &str, micros: u64) {
        let mut s = String::with_capacity(64);
        s.push_str("{\"kind\":\"span\",\"name\":");
        jsonw::push_str_lit(&mut s, name);
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
        jsonw::push_str_lit(&mut s, name);
        let _ = write!(s, ",\"micros\":{micros},\"t\":");
        jsonw::push_f64(&mut s, t);
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
        jsonw::push_f64(&mut s, t);
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

/// A trace sink shared between a [`SinkProbe`] and the caller that will
/// [`TraceSink::finish`] it after the run.
pub type SharedSink = Arc<Mutex<TraceSink>>;

/// The probe that streams every observation into a shared [`TraceSink`].
#[derive(Debug)]
pub struct SinkProbe {
    sink: SharedSink,
    cadence: f64,
}

impl SinkProbe {
    /// Creates a probe sampling every `cadence` time units into `sink`.
    pub fn new(sink: SharedSink, cadence: f64) -> Self {
        Self { sink, cadence }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceSink> {
        self.sink.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Probe for SinkProbe {
    fn sample_every(&self) -> f64 {
        self.cadence
    }

    fn on_sample(&mut self, sample: &Sample<'_>) {
        self.lock().sample(sample);
    }

    fn on_span(&mut self, name: &str, micros: u64) {
        self.lock().span(name, micros);
    }

    fn on_finish(&mut self, t: f64, counters: &Counters) {
        self.lock().end(t, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

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
        let path = tmp("full.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sink = TraceSink::create(&path).unwrap();
        sink.meta(&[
            ("scheme", MetaField::Str("MTCD".into())),
            ("seed", MetaField::U64(u64::MAX)),
            ("sample_every", MetaField::F64(5.0)),
            ("aggregate", MetaField::Bool(false)),
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

    #[test]
    fn sink_probe_streams_through_shared_sink() {
        let path = tmp("probe.jsonl");
        let _ = std::fs::remove_file(&path);
        let shared = TraceSink::create(&path).unwrap().shared();
        let mut probe = SinkProbe::new(shared.clone(), 2.5);
        assert_eq!(probe.sample_every(), 2.5);
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
    fn unfinished_trace_leaves_only_tmp() {
        let path = tmp("crash.jsonl");
        let _ = std::fs::remove_file(&path);
        let tmp_path = {
            let mut sink = TraceSink::create(&path).unwrap();
            sink.span("engine", 1);
            sink.tmp_path.clone()
            // dropped without finish(), mimicking a crash
        };
        assert!(!path.exists());
        assert!(tmp_path.exists(), "the torn .tmp is the crash marker");
        let _ = std::fs::remove_file(&tmp_path);
    }
}
