//! Structural fuzz targets: serialized artifacts (snapshots, JSONL traces)
//! fed back through their decoders after deterministic mutation. The
//! contract is *typed errors, never panics, never silent acceptance of
//! corrupt bytes*.

use crate::report::OracleConfig;
use btfluid_des::{DesConfig, SchemeKind, Simulation};
use btfluid_numkit::rng::{RngCore, Xoshiro256StarStar};
use btfluid_telemetry::{
    read_trace, Counters, FlightDump, FlightKind, FlightRecord, FlightRecorder, MetaField, Sample,
    TraceSink, FLIGHTREC_VERSION,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Builds a realistic snapshot by stepping a live engine a few hundred
/// events.
fn live_snapshot_bytes(seed: u64) -> Result<Vec<u8>, String> {
    let mut cfg = DesConfig::paper_small(SchemeKind::Cmfsd { rho: 0.5 }, 0.5, seed)
        .map_err(|e| e.to_string())?;
    cfg.horizon = 600.0;
    cfg.warmup = 100.0;
    cfg.drain = 600.0;
    let mut sim = Simulation::new(cfg).map_err(|e| e.to_string())?;
    for _ in 0..300 {
        if !sim.step().map_err(|e| e.to_string())? {
            break;
        }
    }
    Ok(sim.snapshot().to_bytes())
}

/// Snapshot decoder under fire: random bit flips and truncations of a
/// genuine snapshot must every time produce a typed [`SnapshotError`] —
/// no panic (the FNV checksum trails the content, so any mutation is
/// detectable), and no mutated file may decode as valid.
///
/// [`SnapshotError`]: btfluid_des::SnapshotError
pub fn snapshot_fuzz(cfg: &OracleConfig) -> Result<String, String> {
    let bytes = live_snapshot_bytes(cfg.seed.wrapping_add(3))?;
    // Sanity: the pristine bytes must decode.
    btfluid_des::Snapshot::from_bytes(&bytes)
        .map_err(|e| format!("pristine snapshot failed to decode: {e}"))?;

    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 1);
    let trials = if cfg.full { 512 } else { 96 };
    let mut rejected = 0usize;
    for trial in 0..trials {
        let mut mutated = bytes.clone();
        let what = if trial % 3 == 2 {
            // Truncate to a strictly shorter prefix (possibly empty).
            let cut = (rng.next_u64() % bytes.len() as u64) as usize;
            mutated.truncate(cut);
            format!("truncation to {cut} bytes")
        } else {
            // Flip one random bit anywhere, checksum included.
            let byte = (rng.next_u64() % bytes.len() as u64) as usize;
            let bit = rng.next_u64() % 8;
            mutated[byte] ^= 1u8 << bit;
            format!("bit flip at byte {byte}, bit {bit}")
        };
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            btfluid_des::Snapshot::from_bytes(&mutated)
        }));
        match verdict {
            Err(_) => return Err(format!("decoder PANICKED on {what}")),
            Ok(Ok(_)) => return Err(format!("decoder ACCEPTED corrupt bytes ({what})")),
            Ok(Err(_)) => rejected += 1,
        }
    }
    Ok(format!(
        "{rejected}/{trials} mutations of a {}-byte snapshot rejected with typed errors",
        bytes.len()
    ))
}

/// Trace JSONL round-trip: a sink fed non-finite samples must emit a file
/// the trace reader accepts whole (every line parses as JSON), the
/// non-finite fields must read back as absent, and the process-wide
/// downgrade counter must advance.
pub fn trace_jsonl_round_trip(cfg: &OracleConfig) -> Result<String, String> {
    let dir = std::env::temp_dir().join(format!(
        "btfluid_oracle_trace_{}_{}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("temp dir: {e}"))?;
    let result = (|| {
        let before = btfluid_telemetry::non_finite_null_count();
        let mut sink = TraceSink::create(&dir.join("oracle.jsonl")).map_err(|e| e.to_string())?;
        sink.meta(&[
            ("scheme", MetaField::Str("CMFSD".into())),
            ("rho", MetaField::F64(0.5)),
        ]);
        for i in 0..8u64 {
            let poison = if i % 2 == 0 { f64::NAN } else { f64::INFINITY };
            sink.sample(&Sample {
                t: i as f64 * 10.0,
                events: i * 100,
                downloaders: &[3, 1],
                download_pairs: &[3, 1],
                seed_pairs: &[1, 0],
                weight: &[1.0, poison],
                pool_real: &[0.25, 0.25],
                pool_virtual: &[0.0, 0.0],
                rho_mean: poison,
                delta_mean: 0.1,
                counters: Counters::default(),
            });
        }
        sink.end(80.0, &Counters::default());
        let path = sink.finish().map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let runs = read_trace(&text).map_err(|e| format!("trace line {e}"))?;
        let [run] = runs.as_slice() else {
            return Err(format!("expected one run, read {}", runs.len()));
        };
        let lines = text.lines().count();
        let null_fields = run.samples.iter().filter(|s| s.rho_mean.is_none()).count();
        if null_fields != 8 || run.end.is_none() {
            return Err(format!(
                "expected 8 null rho_mean fields, found {null_fields}"
            ));
        }
        let after = btfluid_telemetry::non_finite_null_count();
        if after < before + 16 {
            return Err(format!(
                "downgrade counter advanced by {} — expected ≥ 16",
                after - before
            ));
        }
        Ok(format!(
            "{lines} JSONL lines all parse; 16 non-finite fields downgraded to null and counted"
        ))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Flight-recorder dump contract: for seeded random record streams and
/// ring capacities, the dump reader must accept what `dump_string` emits,
/// its meta fields must reconcile (`total = retained + dropped`), every
/// record must carry a known kind, and the retained records must be
/// **exactly the last `min(capacity, total)`** of the stream, in order.
pub fn flightrec_round_trip(cfg: &OracleConfig) -> Result<String, String> {
    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 9);
    let trials = if cfg.full { 64 } else { 16 };
    let kinds = [
        FlightKind::EventPop,
        FlightKind::RateRecompute,
        FlightKind::AggResample,
        FlightKind::Handoff,
        FlightKind::Checkpoint,
        FlightKind::FaultConsult,
    ];
    let mut lines_checked = 0usize;
    for trial in 0..trials {
        let capacity = 1 + (rng.next_u64() % 40) as usize;
        let n = (rng.next_u64() % 120) as usize;
        let mut rec = FlightRecorder::new(capacity);
        let mut stream = Vec::with_capacity(n);
        for i in 0..n {
            let r = FlightRecord {
                t: i as f64 * 0.5,
                events: i as u64,
                kind: kinds[(rng.next_u64() % kinds.len() as u64) as usize],
                a: rng.next_u64() % 100,
                b: rng.next_u64() % 100,
            };
            rec.record(r);
            stream.push(r);
        }
        let failure_t = (trial % 2 == 0).then_some(n as f64);
        let dump = rec.dump_string(failure_t);
        let read = FlightDump::read(&dump)
            .map_err(|e| format!("dump line {e}\n{dump}"))?
            .ok_or_else(|| format!("not a flightrec dump: {dump}"))?;
        if read.version != u64::from(FLIGHTREC_VERSION) {
            return Err(format!("bad version in meta: {dump}"));
        }
        if read.failure_t.is_some() != failure_t.is_some() {
            return Err("failure_t presence mismatch".into());
        }
        let (total, dropped, records) = (read.total, read.dropped, &read.records);
        if total != n as u64 || total != records.len() as u64 + dropped {
            return Err(format!(
                "accounting mismatch: total {total}, retained {}, dropped {dropped} (n = {n})",
                records.len()
            ));
        }
        let expect = &stream[n - n.min(capacity)..];
        if records.len() != expect.len() {
            return Err(format!(
                "retained {} records, expected the last {}",
                records.len(),
                expect.len()
            ));
        }
        for (got, want) in records.iter().zip(expect) {
            if FlightKind::parse(&got.kind) != Some(want.kind)
                || got.t != Some(want.t)
                || (got.events, got.a, got.b) != (want.events, want.a, want.b)
            {
                return Err(format!("record mismatch: {got:?} vs {want:?}"));
            }
            lines_checked += 1;
        }
    }
    Ok(format!(
        "{trials} seeded ring configurations round-trip; {lines_checked} record \
         lines parsed and matched the last-capacity window exactly"
    ))
}

/// Builds a genuine hybrid snapshot (format v4) by stepping a runner
/// across a couple of regime boundaries of the fast flash-crowd config.
fn live_hybrid_snapshot_bytes(
    seed: u64,
) -> Result<(btfluid_hybrid::HybridConfig, Vec<u8>), String> {
    let cfg = btfluid_hybrid::HybridConfig {
        program: btfluid_hybrid::amplified_flash_crowd(512.0, 0.005),
        scheme: SchemeKind::Mtcd,
        seed,
        tol: 0.1,
        aggregate: false,
    };
    let mut runner =
        btfluid_hybrid::HybridRunner::new(cfg.clone()).map_err(|e| format!("hybrid new: {e}"))?;
    for _ in 0..2 {
        if !runner
            .step_boundary()
            .map_err(|e| format!("hybrid step: {e}"))?
        {
            break;
        }
    }
    Ok((cfg, runner.snapshot()))
}

/// Hybrid snapshot v4 decoder under fire: *every* single-byte corruption
/// of a valid file (one flipped bit per byte position, plus seeded
/// truncations) must come back as a typed [`HybridError::Snapshot`] —
/// never a panic, never an accepted resume, never a different error
/// class. The v4 format ends in an FNV-1a checksum over the content, so
/// any one-byte change is detectable.
///
/// [`HybridError::Snapshot`]: btfluid_hybrid::HybridError
pub fn hybrid_snapshot_fuzz(cfg: &OracleConfig) -> Result<String, String> {
    use btfluid_hybrid::{HybridError, HybridRunner};

    let (hcfg, bytes) = live_hybrid_snapshot_bytes(cfg.seed.wrapping_add(11))?;
    // Sanity: the pristine bytes must resume.
    HybridRunner::resume(hcfg.clone(), &bytes)
        .map_err(|e| format!("pristine hybrid snapshot failed to resume: {e}"))?;

    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 4);
    // Visit every byte position when the file is small (or in --full);
    // otherwise stride so ~1024 positions are covered — still spanning
    // header, payload, and trailing checksum.
    let stride = if cfg.full || bytes.len() <= 1024 {
        1
    } else {
        bytes.len().div_ceil(1024)
    };
    let mut rejected = 0usize;
    let mut byte = 0usize;
    while byte < bytes.len() {
        let bit = rng.next_u64() % 8;
        let mut mutated = bytes.clone();
        mutated[byte] ^= 1u8 << bit;
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            HybridRunner::resume(hcfg.clone(), &mutated).map(|_| ())
        }));
        match verdict {
            Err(_) => return Err(format!("resume PANICKED on bit flip at byte {byte}")),
            Ok(Ok(())) => {
                return Err(format!(
                    "resume ACCEPTED corrupt bytes (bit flip at byte {byte}, bit {bit})"
                ))
            }
            Ok(Err(HybridError::Snapshot(_))) => rejected += 1,
            Ok(Err(other)) => {
                return Err(format!(
                    "bit flip at byte {byte} produced a non-snapshot error class: {other}"
                ))
            }
        }
        byte += stride;
    }
    // Truncations: strictly shorter prefixes, including the empty file.
    let cuts = if cfg.full { 64 } else { 24 };
    for _ in 0..cuts {
        let cut = (rng.next_u64() % bytes.len() as u64) as usize;
        let mutated = &bytes[..cut];
        let verdict = catch_unwind(AssertUnwindSafe(|| {
            HybridRunner::resume(hcfg.clone(), mutated).map(|_| ())
        }));
        match verdict {
            Err(_) => return Err(format!("resume PANICKED on truncation to {cut} bytes")),
            Ok(Ok(())) => return Err(format!("resume ACCEPTED a truncated file ({cut} bytes)")),
            Ok(Err(HybridError::Snapshot(_))) => rejected += 1,
            Ok(Err(other)) => {
                return Err(format!(
                    "truncation to {cut} bytes produced a non-snapshot error class: {other}"
                ))
            }
        }
    }
    Ok(format!(
        "{rejected} mutations of a {}-byte v4 hybrid snapshot rejected as HybridError::Snapshot (stride {stride})",
        bytes.len()
    ))
}

/// Trace codec under fire: random bit flips and truncations of genuine
/// `btfluid-trace-arrivals v1` CSV and JSONL encodings must never panic
/// the importers — every outcome is either a typed [`NumError`] rejection
/// or an accepted trace that itself round-trips bit-exactly (a text codec
/// carries no checksum, so some single-character mutations remain valid
/// traces; the contract is *no panic, no torn state*, not
/// reject-everything).
///
/// [`NumError`]: btfluid_numkit::NumError
pub fn trace_codec_fuzz(cfg: &OracleConfig) -> Result<String, String> {
    let model = btfluid_workload::CorrelationModel::new(6, 0.5, 0.5).map_err(|e| e.to_string())?;
    let mut gen_rng = Xoshiro256StarStar::stream(cfg.seed, 41);
    let trace = btfluid_workload::ArrivalTrace::generate(&model, 200.0, &mut gen_rng)
        .map_err(|e| e.to_string())?;
    let corpora: [(&str, Vec<u8>); 2] = [
        ("csv", trace.to_csv().into_bytes()),
        ("jsonl", trace.to_jsonl().into_bytes()),
    ];
    let decode = |codec: &str, bytes: &[u8]| {
        let text = String::from_utf8_lossy(bytes).into_owned();
        if codec == "csv" {
            btfluid_workload::ArrivalTrace::from_csv(&text)
        } else {
            btfluid_workload::ArrivalTrace::from_jsonl(&text)
        }
    };

    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 42);
    let trials_per_codec = if cfg.full { 400 } else { 120 };
    let mut rejected = 0usize;
    let mut accepted = 0usize;
    for (codec, bytes) in &corpora {
        // Sanity: the pristine encoding must decode to the original.
        match decode(codec, bytes) {
            Ok(t) if t == trace => {}
            Ok(_) => return Err(format!("pristine {codec} decoded to a different trace")),
            Err(e) => return Err(format!("pristine {codec} failed to decode: {e}")),
        }
        for trial in 0..trials_per_codec {
            let mut mutated = bytes.clone();
            let what = if trial % 3 == 2 {
                let cut = (rng.next_u64() % bytes.len() as u64) as usize;
                mutated.truncate(cut);
                format!("{codec} truncation to {cut} bytes")
            } else {
                let byte = (rng.next_u64() % bytes.len() as u64) as usize;
                let bit = rng.next_u64() % 8;
                mutated[byte] ^= 1u8 << bit;
                format!("{codec} bit flip at byte {byte}, bit {bit}")
            };
            let verdict = catch_unwind(AssertUnwindSafe(|| decode(codec, &mutated)));
            match verdict {
                Err(_) => return Err(format!("importer PANICKED on {what}")),
                Ok(Err(_)) => rejected += 1,
                Ok(Ok(t)) => {
                    // A mutation that still parses must yield a coherent
                    // trace: its own re-encoding round-trips bit-exactly.
                    let again = if *codec == "csv" {
                        btfluid_workload::ArrivalTrace::from_csv(&t.to_csv())
                    } else {
                        btfluid_workload::ArrivalTrace::from_jsonl(&t.to_jsonl())
                    };
                    if again.as_ref() != Ok(&t) {
                        return Err(format!(
                            "accepted mutation broke the round-trip invariant ({what})"
                        ));
                    }
                    accepted += 1;
                }
            }
        }
    }
    Ok(format!(
        "{rejected} mutations rejected with typed errors, {accepted} still-valid \
         mutations round-tripped, 0 panics over {} trials",
        2 * trials_per_codec
    ))
}
