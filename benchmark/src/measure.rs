//! One measured run of one workload, the benchmark's command:
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! A run is a discarded warm-up iteration, then timed iterations until
//! `seconds` have passed and at least three were untraced. The
//! untraced run reports the end-to-end metrics; its report keeps every
//! sample, plus per-block values for `compare`. The traced run
//! alternates untraced and traced iterations, so both see the same host
//! conditions; the per-layer metrics come from the traced ones, and the
//! tracing overhead is the ratio of the two medians.

use crate::golden;
use crate::metrics::{tail_quantile, END_TO_END, PER_LAYER};
use crate::spans::{RepSummary, Tracer};
use crate::stats::{blocks, count_beyond, median, min, quantile};
use crate::workloads::{self, Obs, RepOutput};
use btfluid_harness::json::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Ceiling on the deviation of a flash workload's mean downloading users
/// from the scheduled MTCD fluid model.
pub const MODEL_CEILING: f64 = 0.10;

/// Fewest timed iterations of a time-bounded run.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed the workload's inputs are made from.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Directory for the report, the spans, and working files.
    pub out: PathBuf,
    /// Record the warm-up output as the golden reference.
    pub bless: bool,
}

/// One finished iteration.
struct Iteration {
    setup_s: f64,
    wall_s: f64,
    obs: Obs,
    out: RepOutput,
}

/// The outcome of a run: the full report and the result line.
pub struct Measurement {
    /// Everything measured, raw samples included.
    pub report: Json,
    /// `{"correct", "attempted", "failed", "metrics"}`.
    pub line: Json,
    /// Whether every check passed.
    pub correct: bool,
}

fn num(x: f64) -> Json {
    Json::num_f64(if x.is_finite() { x } else { 0.0 })
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| num(x)).collect())
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `o` and checks every output.
///
/// # Errors
/// Set-up failures that leave nothing to measure (unknown workload,
/// unwritable output directory, a failing warm-up).
pub fn measure(o: &Options) -> Result<Measurement, String> {
    let work_dir = o
        .out
        .join("work")
        .join(format!("{}-{}", o.workload, std::process::id()));
    let result = run(o, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run(o: &Options, work_dir: &std::path::Path) -> Result<Measurement, String> {
    let mut w = workloads::build(&o.workload, o.seed, work_dir)?;
    let mut tracer = Tracer::new();
    let mut iterate = |i: u32, traced: bool| -> Result<Iteration, String> {
        tracer.set_enabled(traced);
        tracer.set_rep(i);
        let mut obs = Obs::new();
        let t0 = Instant::now();
        tracer.span("setup", |t| w.setup(t, &mut obs))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let out = tracer.span("rep", |t| w.rep(t, &mut obs))?;
        let wall_s = t1.elapsed().as_secs_f64();
        Ok(Iteration {
            setup_s,
            wall_s,
            obs,
            out,
        })
    };

    let mut errors: Vec<String> = Vec::new();
    let warm = iterate(0, false).map_err(|e| format!("warm-up: {e}"))?;
    // Memory of one set-up plus one rep, as one CLI invocation holds it;
    // later reps only add allocator fragmentation that grows with the
    // rep count.
    let peak_rss = peak_rss_mib();
    let reference = warm.out.digest.clone();
    let mut golden_err = None;
    if golden::applies(&o.workload, o.seed) {
        let path = golden::path(&o.workload);
        if o.bless {
            std::fs::write(&path, &reference)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            eprintln!("blessed {}", path.display());
        } else {
            match std::fs::read_to_string(&path) {
                Ok(g) => {
                    let dev = golden::deviation(&reference, &g);
                    if dev > golden::CEILING {
                        errors.push(format!(
                            "output deviates from {} by {dev:e} (ceiling {:e})",
                            path.display(),
                            golden::CEILING
                        ));
                    }
                    golden_err = Some(dev);
                }
                Err(e) => errors.push(format!("reading {}: {e}", path.display())),
            }
        }
    }

    let mut attempted = 1u64;
    let mut failed = u64::from(!errors.is_empty());
    let mut model_err = warm.out.model_err;
    let mut check = |it: &Iteration, errors: &mut Vec<String>| -> bool {
        let mut ok = true;
        if it.out.digest != reference {
            errors.push("output differs from the warm-up rep's (nondeterminism)".into());
            ok = false;
        }
        if let Some(e) = it.out.model_err {
            model_err = Some(model_err.map_or(e, |m: f64| m.max(e)));
            if e > MODEL_CEILING {
                errors.push(format!(
                    "mean downloading users deviate from the fluid model by {e:.4} \
                     (ceiling {MODEL_CEILING})"
                ));
                ok = false;
            }
        }
        ok
    };
    if !check(&warm, &mut errors) {
        failed = 1;
    }

    let mut plain: Vec<Iteration> = Vec::new();
    let mut traced: Vec<(u32, Iteration)> = Vec::new();
    let budget = Duration::from_secs_f64(o.seconds.max(0.0));
    let start = Instant::now();
    let mut i = 1u32;
    // Iterations tried, untraced and traced, failed ones included.
    let mut tried = [0usize; 2];
    loop {
        let done = start.elapsed() >= budget && tried[0] >= MIN_REPS && (!o.trace || tried[1] > 0);
        if done {
            break;
        }
        let is_traced = o.trace && i.is_multiple_of(2);
        tried[usize::from(is_traced)] += 1;
        attempted += 1;
        match iterate(i, is_traced) {
            Ok(it) => {
                if !check(&it, &mut errors) {
                    failed += 1;
                }
                if is_traced {
                    traced.push((i, it));
                } else {
                    plain.push(it);
                }
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
        i += 1;
    }

    let walls: Vec<f64> = plain.iter().map(|it| it.wall_s).collect();
    let setups: Vec<f64> = plain.iter().map(|it| it.setup_s).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|(_, it)| it.wall_s).collect();
    let q = tail_quantile(&o.workload);

    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if o.trace {
        let summary = tracer.summarize("rep");
        let per = |f: &dyn Fn(&RepSummary, &Iteration) -> f64| -> f64 {
            let no_spans = RepSummary::default();
            let values: Vec<f64> = traced
                .iter()
                .map(|(i, it)| f(summary.get(i).unwrap_or(&no_spans), it))
                .collect();
            median(&values)
        };
        let rate = |f: &dyn Fn(&RepOutput) -> f64| -> f64 {
            median(
                &plain
                    .iter()
                    .map(|it| f(&it.out) / it.wall_s)
                    .collect::<Vec<_>>(),
            )
        };
        for (name, unit) in PER_LAYER {
            let v = match name {
                "run.downloads_per_s" => rate(&|r| r.downloads as f64),
                "run.sim_time_per_s" => rate(&|r| r.sim_time),
                "trace.overhead_frac" => median(&traced_walls) / median(&walls) - 1.0,
                "trace.unaccounted_frac" => per(&|s, _| s.unaccounted),
                _ => per(&|s, it| {
                    let span = name.strip_suffix("_s").unwrap_or(name);
                    let observed = || it.obs.iter().find(|(m, _)| *m == name).map(|(_, v)| *v);
                    s.totals.get(span).copied().or_else(observed).unwrap_or(0.0)
                }),
            };
            values.push((name, unit, v));
        }
        let path = o.out.join(format!("{}.spans.jsonl", o.workload));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "wall_min_s" => min(&walls),
                "setup_s" => median(&setups),
                "peak_rss_mb" => peak_rss,
                other => unreachable!("unhandled end-to-end metric {other}"),
            };
            values.push((name, unit, v));
        }
    }

    let correct = failed == 0 && errors.is_empty();
    let metrics = Json::Obj(
        values
            .iter()
            .map(|(n, u, v)| {
                (
                    n.to_string(),
                    obj(vec![("value", num(*v)), ("unit", Json::Str(u.to_string()))]),
                )
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        ("metrics", metrics.clone()),
    ]);
    let opt = |v: Option<f64>| v.map_or(Json::Null, num);
    let report = obj(vec![
        ("workload", Json::Str(o.workload.clone())),
        ("seed", Json::num_u64(o.seed)),
        ("trace", Json::Bool(o.trace)),
        ("seconds", num(o.seconds)),
        ("reps", Json::num_u64(plain.len() as u64)),
        ("traced_reps", Json::num_u64(traced.len() as u64)),
        ("warmup_reps", Json::num_u64(1)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u64(attempted)),
        ("failed", Json::num_u64(failed)),
        ("golden_err", opt(golden_err)),
        ("model_err", opt(model_err)),
        (
            "wall",
            obj(vec![
                ("median_s", num(median(&walls))),
                ("tail_quantile", num(q)),
                ("tail_s", num(quantile(&walls, q))),
                ("tail_beyond", Json::num_u64(count_beyond(&walls, q) as u64)),
            ]),
        ),
        (
            "samples",
            obj(vec![
                ("wall_s", nums(&walls)),
                ("setup_s", nums(&setups)),
                ("traced_wall_s", nums(&traced_walls)),
            ]),
        ),
        (
            "blocks",
            obj(vec![
                ("wall_min_s", nums(&blocks(&walls, min))),
                ("setup_s", nums(&blocks(&setups, median))),
            ]),
        ),
        ("metrics", metrics),
        (
            "errors",
            Json::Arr(errors.iter().map(|e| Json::Str(e.clone())).collect()),
        ),
    ]);
    for e in &errors {
        eprintln!("{}: {e}", o.workload);
    }
    Ok(Measurement {
        report,
        line,
        correct,
    })
}
