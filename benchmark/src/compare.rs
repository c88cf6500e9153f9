//! `compare A.json B.json`: for every workload and end-to-end metric, B's
//! median against A's and the bound `BENCHMARK.json` fixes.
//!
//! A delta smaller than either side's interquartile spread is reported
//! as unresolved, not unchanged, unless every sample of one side beats
//! every sample of the other. Only the untraced passes are compared: the
//! per-layer metrics have no bounds.

use crate::stats::{median, rel_iqr};
use crate::workloads::NAMES;
use crate::{load_benchmark_json, Args};
use btfluid_harness::json::Json;
use std::process::ExitCode;

/// Exit code when a regression is found.
const EXIT_REGRESSION: u8 = 4;

/// Factor `--canary` applies to B's wall times: beyond the 22% bound of
/// `wall_min_s` by more than two runs of the same code drift apart
/// (up to 10%), so every workload must be flagged.
const CANARY: f64 = 1.5;

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound and than the spread.
    Regression,
    /// Better by more than the spread.
    Improved,
    /// Worse by no more than the bound.
    Unchanged,
    /// The delta is inside the run-to-run spread.
    Unresolved,
}

/// Judges samples `b` against `a` for a metric where `lower` is better
/// (or higher, when false) and `bound` is the allowed relative
/// worsening. Returns the verdict and the relative worsening of B's
/// median (negative when B is better). A side with a single sample has
/// no spread to clear: the bound alone decides, both ways.
pub fn verdict(a: &[f64], b: &[f64], lower: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let delta = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    let worse = if lower { delta } else { -delta };
    if a.len() < 2 || b.len() < 2 {
        let v = if worse > bound {
            Verdict::Regression
        } else if worse < -bound {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        return (v, worse);
    }
    let spread = rel_iqr(a).max(rel_iqr(b));
    let max = |s: &[f64]| s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    let (b_better_everywhere, b_worse_everywhere) = if lower {
        (max(b) < min(a), min(b) > max(a))
    } else {
        (min(b) > max(a), max(b) < min(a))
    };
    let v = if worse.abs() < spread && !b_better_everywhere && !b_worse_everywhere {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (v, worse)
}

/// A metric's samples in one pass report: its per-block values (the
/// metric's statistic over each tenth of the run), whose spread is how
/// far the metric drifts within a run, which a delta between two runs
/// has to clear. A metric without blocks is its single value.
fn samples(report: &Json, metric: &str) -> Vec<f64> {
    let blocks: Vec<f64> = report
        .get("blocks")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if !blocks.is_empty() {
        return blocks;
    }
    report
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .into_iter()
        .collect()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare` (module docs).
///
/// # Errors
/// Unreadable inputs or a malformed `BENCHMARK.json`.
pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("compare takes two run files: compare A.json B.json [--canary]".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let canary = args.has("canary");
    let bench = load_benchmark_json()?;
    let metrics: Vec<(String, bool, f64)> = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            (name, lower, bound)
        })
        .collect();

    for key in ["nproc", "cpu", "rustc"] {
        let side = |d: &Json| {
            d.get("host")
                .and_then(|h| h.get(key))
                .map(ToString::to_string)
        };
        if side(&a) != side(&b) {
            eprintln!(
                "warning: hosts differ in {key}: {} vs {}",
                side(&a).unwrap_or_default(),
                side(&b).unwrap_or_default()
            );
        }
    }
    if a.get("seed") != b.get("seed") {
        eprintln!("warning: the runs used different seeds, so different inputs");
    }

    println!(
        "{:<16} {:<12} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "spread", "bound"
    );
    let mut regressions = 0usize;
    for name in NAMES {
        let pass = |d: &Json| {
            d.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get("untraced"))
                .cloned()
        };
        let (Some(pa), Some(pb)) = (pass(&a), pass(&b)) else {
            continue;
        };
        let mut flagged = false;
        for (metric, lower, bound) in &metrics {
            let sa = samples(&pa, metric);
            let mut sb = samples(&pb, metric);
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            if canary && metric.starts_with("wall") {
                sb.iter_mut().for_each(|v| *v *= CANARY);
            }
            let (v, worse) = verdict(&sa, &sb, *lower, *bound);
            flagged |= v == Verdict::Regression;
            println!(
                "{name:<16} {metric:<12} {:>12.6} {:>12.6} {:>+7.1}% {:>7.1}% {:>5.0}%  {v:?}",
                median(&sa),
                median(&sb),
                100.0 * worse,
                100.0 * rel_iqr(&sa).max(rel_iqr(&sb)),
                100.0 * bound,
            );
        }
        regressions += usize::from(flagged);
    }
    if regressions > 0 {
        println!("{regressions} workload(s) regressed");
        Ok(ExitCode::from(EXIT_REGRESSION))
    } else {
        println!("no regression");
        Ok(ExitCode::SUCCESS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [1.0, 1.01, 0.99, 1.0];
        // 15% slower everywhere: beyond a 10% bound.
        let slow: Vec<f64> = a.iter().map(|v| v * 1.15).collect();
        assert_eq!(verdict(&a, &slow, true, 0.10).0, Verdict::Regression);
        // Same numbers for a higher-is-better metric: an improvement.
        assert_eq!(verdict(&a, &slow, false, 0.10).0, Verdict::Improved);
        // 5% slower against a 10% bound.
        let bit: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&a, &bit, true, 0.10).0, Verdict::Unchanged);
        // A delta inside a wide, overlapping spread.
        let noisy = [0.6, 1.0, 1.4, 0.8, 1.2];
        let shifted = [0.62, 1.03, 1.45, 0.82, 1.25];
        assert_eq!(verdict(&noisy, &shifted, true, 0.10).0, Verdict::Unresolved);
        // Single values: only the bound decides.
        assert_eq!(verdict(&[10.0], &[9.9], true, 0.2).0, Verdict::Unchanged);
        assert_eq!(verdict(&[10.0], &[12.5], true, 0.2).0, Verdict::Regression);
        assert_eq!(verdict(&[10.0], &[7.5], true, 0.2).0, Verdict::Improved);
    }
}
