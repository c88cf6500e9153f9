//! The sweep journal: an append-only JSONL manifest of finished cells.
//!
//! Every cell the supervisor finishes — successfully or not — is recorded
//! as one JSON object per line. A restarted sweep loads the journal and
//! skips cells already `done`; `failed` cells are run again (their failure
//! may have been environmental). Appends are flushed and fsynced per line,
//! so a crash can lose at most the line being written — and a torn final
//! line (no trailing newline) is tolerated on load, since the cell it
//! described will simply be re-run.

use crate::error::{io_err, HarnessError};
use btfluid_des::Counters;
use btfluid_telemetry::faults::{self, FaultSite, WritePlan};
use btfluid_telemetry::json::Json;
use btfluid_telemetry::{diag, Level};
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Terminal status of one sweep cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// The cell ran to completion and its results are valid.
    Done,
    /// The cell was quarantined after exhausting its retry budget.
    Failed,
}

impl CellStatus {
    fn as_str(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Failed => "failed",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        match s {
            "done" => Some(CellStatus::Done),
            "failed" => Some(CellStatus::Failed),
            _ => None,
        }
    }
}

/// One journal line: a cell's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// The cell id (unique within the sweep).
    pub id: String,
    /// Terminal status.
    pub status: CellStatus,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Engine events executed by the final attempt.
    pub events: u64,
    /// Wall-clock milliseconds of the final attempt (0 when unknown —
    /// journals written before telemetry landed carry no timing).
    pub wall_ms: u64,
    /// Engine telemetry counters of a successful attempt, when captured.
    pub counters: Option<Counters>,
    /// Free-form detail: a result summary for `done`, the failure reason
    /// for `failed`.
    pub detail: String,
}

impl CellRecord {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("status".into(), Json::Str(self.status.as_str().into())),
            ("attempts".into(), Json::num_u64(u64::from(self.attempts))),
            ("events".into(), Json::num_u64(self.events)),
            ("wall_ms".into(), Json::num_u64(self.wall_ms)),
        ];
        if let Some(c) = &self.counters {
            fields.push(("counters".into(), c.to_json_value()));
        }
        fields.push(("detail".into(), Json::Str(self.detail.clone())));
        Json::Obj(fields)
    }

    fn from_json(v: &Json) -> Option<Self> {
        Some(CellRecord {
            id: v.get("id")?.as_str()?.to_string(),
            status: CellStatus::from_str(v.get("status")?.as_str()?)?,
            attempts: u32::try_from(v.get("attempts")?.as_u64()?).ok()?,
            events: v.get("events")?.as_u64()?,
            // Both telemetry fields are optional so journals from before
            // this schema grew them still load under `--resume`.
            wall_ms: v.u64_at("wall_ms"),
            // The counters object is dropped unless it carries every
            // counter but the last two, which journals from before
            // aggregate mode lack.
            counters: v
                .get("counters")
                .filter(|c| {
                    Counters::NAMES[..8]
                        .iter()
                        .all(|k| c.get(k).and_then(Json::as_u64).is_some())
                })
                .map(Counters::from_json),
            detail: v.get("detail")?.as_str()?.to_string(),
        })
    }
}

/// Loads a journal. A missing file is an empty journal; a torn *final*
/// line (crash mid-append — with or without its trailing newline) is
/// skipped with a warning, since the cell it described will simply be
/// re-run; a malformed line anywhere *before* the final one means the
/// journal itself is corrupt and is an error.
pub fn load(path: &Path) -> Result<Vec<CellRecord>, HarnessError> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(path, e)),
    };
    let mut records = Vec::new();
    let complete_len = text.rfind('\n').map_or(0, |i| i + 1);
    let lines: Vec<(usize, &str)> = text[..complete_len]
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let last = lines.len().saturating_sub(1);
    for (i, (lineno, line)) in lines.iter().enumerate() {
        let parsed = Json::parse(line)
            .ok()
            .as_ref()
            .and_then(CellRecord::from_json);
        match parsed {
            Some(r) => records.push(r),
            // A torn write killed mid-append can persist any prefix of the
            // line — including one that happens to end in a newline. Only
            // the final line can be a torn append; treat it like the
            // unterminated case below and let the cell re-run.
            None if i == last => {
                diag!(
                    Level::Warn,
                    "{}: skipping truncated final journal line {} (torn append); \
                     its cell will be re-run",
                    path.display(),
                    lineno + 1
                );
            }
            None => {
                return Err(HarnessError::Manifest {
                    path: path.display().to_string(),
                    detail: format!("line {}: not a cell record", lineno + 1),
                })
            }
        }
    }
    if complete_len < text.len() {
        diag!(
            Level::Warn,
            "{}: dropping unterminated final journal line (torn append); \
             its cell will be re-run",
            path.display()
        );
    }
    Ok(records)
}

/// The ids recorded `done` — the skip set for `--resume`.
pub fn done_ids(records: &[CellRecord]) -> BTreeSet<String> {
    records
        .iter()
        .filter(|r| r.status == CellStatus::Done)
        .map(|r| r.id.clone())
        .collect()
}

/// An open journal, appending one fsynced line per record.
#[derive(Debug)]
pub struct ManifestWriter {
    path: PathBuf,
    file: File,
}

impl ManifestWriter {
    /// Opens (creating if needed) the journal for appending. An
    /// unterminated final line from a torn append is truncated away first
    /// — otherwise the next append would glue a fresh record onto the
    /// garbage tail and turn a recoverable torn line into a corrupt
    /// middle line.
    pub fn open(path: &Path) -> Result<Self, HarnessError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
            }
        }
        match std::fs::read_to_string(path) {
            Ok(text) if !text.is_empty() && !text.ends_with('\n') => {
                let keep = text.rfind('\n').map_or(0, |i| i + 1);
                diag!(
                    Level::Warn,
                    "{}: truncating torn final journal line before appending",
                    path.display()
                );
                std::fs::write(path, &text[..keep]).map_err(|e| io_err(path, e))?;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(path, e)),
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one record and forces it to disk. Passes through the chaos
    /// injection seam: a scripted short write persists a torn prefix of
    /// the line — exactly what a kill mid-append leaves behind.
    pub fn append(&mut self, record: &CellRecord) -> Result<(), HarnessError> {
        let line = format!("{}\n", record.to_json());
        match faults::write_plan(FaultSite::ManifestAppend, line.len()) {
            WritePlan::Full | WritePlan::Corrupt => {}
            WritePlan::Short(n, e) => {
                let _ = self
                    .file
                    .write_all(&line.as_bytes()[..n])
                    .and_then(|()| self.file.flush())
                    .and_then(|()| self.file.sync_data());
                return Err(io_err(&self.path, e));
            }
            WritePlan::Fail(e) => return Err(io_err(&self.path, e)),
        }
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err(&self.path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("btfs-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn rec(id: &str, status: CellStatus) -> CellRecord {
        CellRecord {
            id: id.into(),
            status,
            attempts: 1,
            events: 123,
            wall_ms: 45,
            counters: Some(Counters {
                events_popped: 100,
                heap_peak: 7,
                ..Default::default()
            }),
            detail: "ok".into(),
        }
    }

    #[test]
    fn telemetry_fields_roundtrip_and_stay_optional() {
        let path = tmp("telemetry.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("a", CellStatus::Done)).unwrap();
        drop(w);
        let records = load(&path).unwrap();
        assert_eq!(records[0], rec("a", CellStatus::Done));
        // A pre-telemetry journal line (no wall_ms/counters) still loads.
        std::fs::write(
            &path,
            "{\"id\":\"old\",\"status\":\"done\",\"attempts\":1,\
             \"events\":9,\"detail\":\"ok\"}\n",
        )
        .unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records[0].wall_ms, 0);
        assert_eq!(records[0].counters, None);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn roundtrip_and_skip_set() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("a", CellStatus::Done)).unwrap();
        w.append(&rec("b", CellStatus::Failed)).unwrap();
        drop(w);
        // Reopening appends, not truncates.
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("c", CellStatus::Done)).unwrap();
        drop(w);

        let records = load(&path).unwrap();
        assert_eq!(records.len(), 3);
        let done = done_ids(&records);
        assert!(done.contains("a") && done.contains("c") && !done.contains("b"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty() {
        assert_eq!(load(Path::new("/nonexistent/sweep.jsonl")).unwrap(), vec![]);
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = tmp("torn.jsonl");
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("a", CellStatus::Done)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"b\",\"sta"); // crash mid-append
        std::fs::write(&path, text).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, "a");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_final_line_with_newline_is_skipped() {
        // A torn append can persist any prefix of the line — including one
        // that ends in a newline. The final line must be skipped with a
        // warning, not fail the whole sweep resume.
        let path = tmp("torn-newline.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("a", CellStatus::Done)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"b\",\"sta\n"); // hand-truncated, newline intact
        std::fs::write(&path, text).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, "a");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_middle_line_is_an_error() {
        // Corruption before the final line is not a torn append — the
        // journal is damaged and resuming over it silently would lose
        // cells.
        let path = tmp("bad.jsonl");
        let mut text = String::from("{\"id\":\"a\"}\n");
        let mut w = ManifestWriter::open(&tmp("bad-donor.jsonl")).unwrap();
        w.append(&rec("b", CellStatus::Done)).unwrap();
        drop(w);
        text.push_str(&std::fs::read_to_string(tmp("bad-donor.jsonl")).unwrap());
        std::fs::write(&path, text).unwrap();
        assert!(matches!(load(&path), Err(HarnessError::Manifest { .. })));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(tmp("bad-donor.jsonl")).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        // Appending after a torn tail must not weld the new record onto
        // the garbage — open() repairs the file back to its last complete
        // line first.
        let path = tmp("reopen-torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("a", CellStatus::Done)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"b\",\"sta"); // unterminated torn append
        std::fs::write(&path, text).unwrap();

        let mut w = ManifestWriter::open(&path).unwrap();
        w.append(&rec("c", CellStatus::Done)).unwrap();
        drop(w);
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].id, "a");
        assert_eq!(records[1].id, "c");
        std::fs::remove_file(&path).unwrap();
    }
}
