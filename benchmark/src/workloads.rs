//! The four workloads. Each calls the same public functions the `btfluid`
//! CLI calls for the command it stands for, with its inputs made from
//! the benchmark seed.
//!
//! A workload is driven as a sequence of iterations, each a
//! [`Workload::setup`] (timed as set-up) followed by a [`Workload::rep`]
//! (timed as the rep). Set-up builds every input the rep consumes, so
//! the rep times only the calls into the program.

use crate::spans::Tracer;
use crate::stats::median;
use btfluid_bench::{ablation, fig2, fig3, fig4a, fig4bc, transient, Table};
use btfluid_des::{SchemeKind, Simulation};
use btfluid_harness::{self as harness, CellSpec, ScenarioRef, SupervisorConfig};
use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridRunner, Regime};
use btfluid_numkit::rng::Xoshiro256StarStar;
use btfluid_scenario::{
    des_avg_downloaders, fluid_avg_downloaders, trace_program, RateMode, ScenarioProgram, Schedule,
    TraceShaper,
};
use btfluid_telemetry::Profiler;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = ["figures", "flash_aggregate", "flash_hybrid", "sweep_trace"];

/// Peak visitor rate of the flash-crowd workloads: the heavy-traffic
/// regime the paper's multi-torrent claim is about.
const FLASH_PEAK: f64 = 2048.0;

/// Worker threads of the sweep (the benchmark host has two cores).
const SWEEP_WORKERS: usize = 2;

/// Per-layer observations of one iteration, by metric name.
pub type Obs = Vec<(&'static str, f64)>;

/// What one rep produced.
#[derive(Debug, Clone)]
pub struct RepOutput {
    /// Canonical text of the rep's results: identical on every rep of a
    /// run, and compared token by token with the golden file.
    pub digest: String,
    /// Downloads completed (user records).
    pub downloads: u64,
    /// Simulated time units covered.
    pub sim_time: f64,
    /// Relative deviation from the workload's fluid reference, where it
    /// has one.
    pub model_err: Option<f64>,
}

/// One workload; see the module docs.
pub trait Workload {
    /// Builds the inputs of the next rep.
    ///
    /// # Errors
    /// Any failure of the program's set-up calls.
    fn setup(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<(), String>;

    /// Runs one rep on the inputs the last set-up built.
    ///
    /// # Errors
    /// Any failure of the program's calls, or an output that breaks an
    /// invariant the workload checks itself.
    fn rep(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<RepOutput, String>;
}

/// Builds workload `name` for `seed`; `work_dir` receives its files.
///
/// # Errors
/// Unknown names and failures computing a fluid reference.
pub fn build(name: &str, seed: u64, work_dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "figures" => Box::new(Figures { cfg: None }),
        "flash_aggregate" => Box::new(FlashAggregate {
            seed,
            fluid_ref: fluid_reference(AGGREGATE_TIME_SCALE)?,
            sim: None,
        }),
        "flash_hybrid" => Box::new(FlashHybrid {
            seed,
            fluid_ref: fluid_reference(HYBRID_TIME_SCALE)?,
            runner: None,
        }),
        "sweep_trace" => Box::new(SweepTrace::new(seed, work_dir)?),
        other => {
            return Err(format!(
                "unknown workload '{other}' (one of {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// Shortest round-trip rendering of a list of floats.
fn floats(values: impl IntoIterator<Item = f64>) -> String {
    values
        .into_iter()
        .map(|v| format!("{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------- figures

/// The seven fluid computations behind `btfluid all`, CLI defaults.
struct FigureConfigs {
    fig2: fig2::Fig2Config,
    fig3: fig3::Fig3Config,
    fig4a: fig4a::Fig4aConfig,
    fig4b: fig4bc::Fig4bcConfig,
    fig4c: fig4bc::Fig4bcConfig,
    transient: transient::TransientConfig,
    ablation: ablation::AblationConfig,
}

struct Figures {
    cfg: Option<FigureConfigs>,
}

impl Workload for Figures {
    fn setup(&mut self, _t: &mut Tracer, _obs: &mut Obs) -> Result<(), String> {
        let fig4bc_at = |p: f64| fig4bc::Fig4bcConfig {
            correlations: vec![p],
            ..Default::default()
        };
        self.cfg = Some(FigureConfigs {
            fig2: fig2::Fig2Config::default(),
            fig3: fig3::Fig3Config::default(),
            fig4a: fig4a::Fig4aConfig::default(),
            fig4b: fig4bc_at(0.9),
            fig4c: fig4bc_at(0.1),
            transient: transient::TransientConfig::default(),
            ablation: ablation::AblationConfig::default(),
        });
        Ok(())
    }

    fn rep(&mut self, t: &mut Tracer, _obs: &mut Obs) -> Result<RepOutput, String> {
        let c = self.cfg.take().ok_or("figures: rep without set-up")?;
        let err = |e: btfluid_numkit::NumError| e.to_string();
        let f2 = t.span("bench.fig2", |_| fig2::run(&c.fig2)).map_err(err)?;
        let f3 = t.span("bench.fig3", |_| fig3::run(&c.fig3)).map_err(err)?;
        let f4a = t
            .span("bench.fig4a", |_| fig4a::run(&c.fig4a))
            .map_err(err)?;
        let f4b = t
            .span("bench.fig4b", |_| fig4bc::run(&c.fig4b))
            .map_err(err)?;
        let f4c = t
            .span("bench.fig4c", |_| fig4bc::run(&c.fig4c))
            .map_err(err)?;
        let tr = t
            .span("bench.transient", |_| transient::run(&c.transient))
            .map_err(err)?;
        let ab = t
            .span("bench.ablation", |_| ablation::run(&c.ablation))
            .map_err(err)?;
        // Exactly what `btfluid all --csv` prints, in its order; each
        // table is also rendered as aligned text, as without `--csv`.
        let digest = t.span("bench.table_render", |_| {
            let mut csv = String::new();
            let emit = |csv: &mut String, tables: &[Table]| {
                for table in tables {
                    black_box(table.render());
                    csv.push_str(&table.to_csv());
                }
            };
            emit(&mut csv, &[f2.table()]);
            emit(&mut csv, &f3.tables());
            emit(&mut csv, &[f4a.table()]);
            emit(&mut csv, &f4b.tables());
            emit(&mut csv, &f4c.tables());
            emit(&mut csv, &[tr.table()]);
            csv.push_str(&tr.mtcd.to_csv());
            emit(&mut csv, &[ab.table()]);
            csv
        });
        Ok(RepOutput {
            digest,
            downloads: 0,
            sim_time: 0.0,
            model_err: None,
        })
    }
}

// ------------------------------------------------------- flash workloads

/// Time compression of the pure-DES flash crowd (181k events a run).
const AGGREGATE_TIME_SCALE: f64 = 0.02;
/// The hybrid runs the full flash-crowd axis.
const HYBRID_TIME_SCALE: f64 = 1.0;

/// The amplified flash crowd with origin seeds zeroed: the fluid model
/// has no publisher, and under MTCD a pinned origin seed adds a full μ
/// per subtorrent (as in `btfluid scenario --fluid`).
fn flash_program(time_scale: f64) -> ScenarioProgram {
    let mut program = amplified_flash_crowd(FLASH_PEAK, time_scale);
    program.origin_seeds = 0;
    program
}

/// Total mean downloading users the scheduled MTCD fluid model predicts.
fn fluid_reference(time_scale: f64) -> Result<f64, String> {
    fluid_avg_downloaders(&flash_program(time_scale), 0.5).map_err(|e| e.to_string())
}

fn rel_dev(value: f64, reference: f64) -> f64 {
    (value - reference).abs() / reference.abs().max(1e-12)
}

/// The flash crowd amplified to a peak λ₀ = 2048 on a compressed time
/// axis, through the engine path of `btfluid scenario <name> --aggregate
/// --scheme mtcd`.
struct FlashAggregate {
    seed: u64,
    fluid_ref: f64,
    sim: Option<Simulation>,
}

impl Workload for FlashAggregate {
    fn setup(&mut self, t: &mut Tracer, _obs: &mut Obs) -> Result<(), String> {
        let program = flash_program(AGGREGATE_TIME_SCALE);
        let mut cfg = program
            .des_config(SchemeKind::Mtcd, self.seed)
            .map_err(|e| e.to_string())?;
        RateMode::Aggregate.apply(&mut cfg);
        cfg.validate().map_err(|e| e.to_string())?;
        let mut sim =
            Simulation::with_hook(cfg, Box::new(program.hook())).map_err(|e| e.to_string())?;
        if t.enabled() {
            sim.enable_profiler(Profiler::calibrated());
        }
        self.sim = Some(sim);
        Ok(())
    }

    fn rep(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<RepOutput, String> {
        let mut sim = self
            .sim
            .take()
            .ok_or("flash_aggregate: rep without set-up")?;
        // The body of `Simulation::try_run`, so the counters and profile
        // can be read before `finish` consumes the engine.
        let (outcome, counters, profile, sim_time) = t
            .span("des.run", |_| {
                while sim.step()? {}
                let (c, p, st) = (sim.counters(), sim.profiler_table(), sim.sim_time());
                Ok::<_, btfluid_des::DesError>((sim.finish(), c, p, st))
            })
            .map_err(|e| e.to_string())?;
        let run_ns = t.last_ns() as f64;

        let downloads = outcome.records.len() as u64;
        obs.extend(des_counter_obs(&counters, outcome.events, downloads));
        obs.push(("des.ns_per_event", ratio(run_ns, outcome.events as f64)));
        if let Some(p) = profile {
            for (name, stats) in &p.phases {
                let metric = match *name {
                    "heap_ops" => "des.heap_ops_ns",
                    "rate_maint" => "des.rate_maint_ns",
                    "member_sample" => "des.member_sample_ns",
                    "hook_dispatch" => "des.hook_dispatch_ns",
                    "sink_write" => "des.sink_write_ns",
                    _ => continue,
                };
                obs.push((metric, ratio(stats.self_ns as f64, p.events as f64)));
            }
            obs.push((
                "des.unaccounted_frac",
                1.0 - ratio(p.accounted_ns() as f64, run_ns),
            ));
        }

        let class_means = (1..=outcome.k()).map(|i| outcome.population.avg_downloader_peers(i));
        let digest = format!(
            "events {}\narrivals {}\ncompleted {downloads}\ncensored {}\nclass_means {}\n",
            outcome.events,
            outcome.arrivals,
            outcome.censored,
            floats(class_means)
        );
        Ok(RepOutput {
            digest,
            downloads,
            sim_time,
            model_err: Some(rel_dev(des_avg_downloaders(&outcome), self.fluid_ref)),
        })
    }
}

/// Engine counters as per-layer observations; `events` is the count of
/// dispatched events (`SimOutcome::events`, the profiler's per-event
/// denominator), which exceeds the heap pops by the arrivals and
/// control events generated outside the queue.
fn des_counter_obs(c: &btfluid_des::Counters, events: u64, downloads: u64) -> Obs {
    let pops = c.events_popped as f64;
    vec![
        ("des.events", events as f64),
        (
            "des.events_per_download",
            ratio(events as f64, downloads as f64),
        ),
        ("des.heap_peak", c.heap_peak as f64),
        (
            "des.stale_frac",
            ratio(c.stale_discards as f64, pops + c.stale_discards as f64),
        ),
        ("des.rate_recomputes", c.rate_recomputes as f64),
        (
            "des.rate_clean_hit_frac",
            ratio(
                c.rate_clean_hits as f64,
                (c.rate_clean_hits + c.rate_recomputes) as f64,
            ),
        ),
        ("des.agg_rate_updates", c.agg_rate_updates as f64),
        ("des.agg_samples", c.agg_samples as f64),
    ]
}

/// The flash crowd amplified to a peak λ₀ = 2048 over its full time axis,
/// through the stepping loop of `btfluid scenario <name> --hybrid
/// --aggregate --scheme mtcd`.
struct FlashHybrid {
    seed: u64,
    fluid_ref: f64,
    runner: Option<HybridRunner>,
}

impl Workload for FlashHybrid {
    fn setup(&mut self, _t: &mut Tracer, _obs: &mut Obs) -> Result<(), String> {
        let cfg = HybridConfig {
            program: flash_program(HYBRID_TIME_SCALE),
            scheme: SchemeKind::Mtcd,
            seed: self.seed,
            tol: 0.1,
            aggregate: true,
        };
        self.runner = Some(HybridRunner::new(cfg).map_err(|e| e.to_string())?);
        Ok(())
    }

    fn rep(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<RepOutput, String> {
        let mut runner = self
            .runner
            .take()
            .ok_or("flash_hybrid: rep without set-up")?;
        // Each boundary step is one span, named by the regime it ran in.
        // The handoff itself happens inside the step that ends in a
        // regime switch; those steps' time is reported apart as well.
        let (mut boundaries, mut fluid_ns, mut discrete_ns, mut handoff_ns) = (0u64, 0, 0, 0);
        loop {
            let regime = runner.regime();
            let switches = runner.handoffs().len();
            let name = match regime {
                Regime::Fluid => "hybrid.fluid",
                Regime::Discrete => "hybrid.discrete",
            };
            let more = t
                .span(name, |_| runner.step_boundary())
                .map_err(|e| e.to_string())?;
            boundaries += 1;
            match regime {
                Regime::Fluid => fluid_ns += t.last_ns(),
                Regime::Discrete => discrete_ns += t.last_ns(),
            }
            if runner.handoffs().len() != switches {
                handoff_ns += t.last_ns();
            }
            if !more {
                break;
            }
        }
        let outcome = t.span("hybrid.finish", |_| runner.finish());

        obs.extend([
            ("hybrid.handoff_s", handoff_ns as f64 * 1e-9),
            ("hybrid.boundaries", boundaries as f64),
            ("hybrid.handoffs", outcome.handoffs.len() as f64),
            ("hybrid.des_events", outcome.des_events as f64),
            ("hybrid.fluid_steps", outcome.fluid_steps as f64),
            (
                "hybrid.ns_per_fluid_step",
                ratio(fluid_ns as f64, outcome.fluid_steps as f64),
            ),
            (
                "hybrid.ns_per_des_event",
                ratio(discrete_ns as f64, outcome.des_events as f64),
            ),
        ]);
        let digest = format!(
            "des_events {}\nfluid_steps {}\nhandoffs {}\nfinal_t {}\nclass_means {}\n",
            outcome.des_events,
            outcome.fluid_steps,
            outcome.handoffs.len(),
            outcome.final_t,
            floats(outcome.class_means.iter().copied())
        );
        Ok(RepOutput {
            digest,
            downloads: 0,
            sim_time: outcome.final_t,
            model_err: Some(rel_dev(outcome.total_mean(), self.fluid_ref)),
        })
    }
}

// ------------------------------------------------------------ sweep_trace

/// Scheme specs of the sweep, as `btfluid sweep` spells its defaults.
const SWEEP_SCHEMES: [(&str, SchemeKind); 4] = [
    ("mtsd", SchemeKind::Mtsd),
    ("mtcd", SchemeKind::Mtcd),
    ("mfcd", SchemeKind::Mfcd),
    ("cmfsd:0.5", SchemeKind::Cmfsd { rho: 0.5 }),
];
/// Seeds per scheme (`btfluid sweep --reps`).
const SWEEP_REPS: u64 = 2;

/// `btfluid trace gen` of a diurnal trace, then `btfluid sweep
/// --workload <trace> --workers 2 --reps 2 --checkpoint-every 1000`.
pub struct SweepTrace {
    seed: u64,
    trace_path: PathBuf,
    manifest: PathBuf,
    arrivals: usize,
    cells: Vec<CellSpec>,
}

impl SweepTrace {
    /// The workload for `seed`, keeping its files in `work_dir`.
    ///
    /// # Errors
    /// An uncreatable `work_dir`.
    pub fn new(seed: u64, work_dir: &Path) -> Result<Self, String> {
        std::fs::create_dir_all(work_dir)
            .map_err(|e| format!("creating {}: {e}", work_dir.display()))?;
        Ok(Self {
            seed,
            trace_path: work_dir.join("trace.csv"),
            manifest: work_dir.join("manifest.jsonl"),
            arrivals: 0,
            cells: Vec::new(),
        })
    }

    /// The trace file the cells replay.
    pub fn trace_path(&self) -> &Path {
        &self.trace_path
    }

    /// Diurnal arrivals with heavy-tailed sessions and a 70% leecher
    /// share, after the measurements of arXiv:1110.6265, at an intensity
    /// that keeps a few hundred users in the swarm.
    fn shaper() -> TraceShaper {
        TraceShaper {
            lambda0: Schedule::Periodic {
                mean: 2.0,
                amplitude: 1.2,
                period: 500.0,
                phase: 0.0,
            },
            correlation: Schedule::Constant(0.4),
            k: 10,
            horizon: 1000.0,
            session_alpha: 1.5,
            leecher_fraction: 0.7,
        }
    }

    fn supervisor(&self) -> SupervisorConfig {
        SupervisorConfig {
            manifest: self.manifest.clone(),
            bundle_dir: self.manifest.with_extension("bundles"),
            budget: harness::Budget::default(),
            max_retries: 1,
            backoff: Duration::from_millis(100),
            workers: SWEEP_WORKERS,
            resume: false,
            checkpoint_every: 1000,
        }
    }
}

impl Workload for SweepTrace {
    fn setup(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<(), String> {
        let err = |e: btfluid_numkit::NumError| e.to_string();
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed);
        let trace = t
            .span("workload.synthesize", |_| {
                Self::shaper().synthesize(&mut rng)
            })
            .map_err(err)?;
        let text = t.span("workload.encode", |_| trace.to_csv());
        std::fs::write(&self.trace_path, &text)
            .map_err(|e| format!("writing {}: {e}", self.trace_path.display()))?;
        let decoded = t
            .span("workload.decode", |_| harness::load_trace(&self.trace_path))
            .map_err(|e| e.to_string())?;
        let warmup = decoded.horizon() / 4.0;
        let program = t
            .span("scenario.trace_program", |_| {
                trace_program(&decoded, 8, warmup)
            })
            .map_err(err)?;
        obs.push(("workload.trace_bytes", text.len() as f64));

        let path = self.trace_path.to_string_lossy().into_owned();
        let mut cells = Vec::new();
        for (spec, scheme) in SWEEP_SCHEMES {
            for rep in 0..SWEEP_REPS {
                let seed = self.seed.wrapping_add(rep);
                let cfg = program.des_config(scheme, seed).map_err(err)?;
                cells.push(CellSpec {
                    id: format!("{spec}-s{seed}"),
                    cfg,
                    scenario: Some(ScenarioRef::traced(&path)),
                    inject_panic_at: None,
                });
            }
        }
        self.cells = cells;
        self.arrivals = decoded.len();
        // A fresh journal per rep: `run_sweep` refuses a non-empty one.
        for stale in [&self.manifest, &self.manifest.with_extension("bundles")] {
            if stale.is_dir() {
                std::fs::remove_dir_all(stale).map_err(|e| e.to_string())?;
            } else if stale.exists() {
                std::fs::remove_file(stale).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    }

    fn rep(&mut self, t: &mut Tracer, obs: &mut Obs) -> Result<RepOutput, String> {
        let sup = self.supervisor();
        let cells = std::mem::take(&mut self.cells);
        let horizons: f64 = cells.iter().map(|c| c.cfg.horizon + c.cfg.drain).sum();
        let report = t
            .span("harness.run_sweep", |_| harness::run_sweep(&sup, cells))
            .map_err(|e| e.to_string())?;
        let sweep_ns = t.last_ns() as f64;
        let journal = t
            .span("harness.manifest_load", |_| {
                harness::manifest::load(&sup.manifest)
            })
            .map_err(|e| e.to_string())?;

        if let Some(f) = report.failed.first() {
            return Err(format!(
                "sweep_trace: {} cell(s) quarantined, first {}: {}",
                report.failed.len(),
                f.id,
                f.reason
            ));
        }
        let attempts: u32 = journal.iter().map(|r| r.attempts).sum();
        if attempts as usize != journal.len() {
            return Err(format!(
                "sweep_trace: {attempts} attempts for {} cells (retried cells)",
                journal.len()
            ));
        }
        let mut cells = report.completed;
        cells.sort_by(|a, b| a.id.cmp(&b.id));
        let mut digest = String::new();
        let mut counters = btfluid_des::Counters::default();
        for c in &cells {
            if c.arrivals != self.arrivals {
                return Err(format!(
                    "sweep_trace: cell {} admitted {} of {} recorded arrivals",
                    c.id, c.arrivals, self.arrivals
                ));
            }
            let _ = writeln!(
                digest,
                "cell {} events {} arrivals {} completed {} censored {} aborted {} \
                 online_per_file {}",
                c.id,
                c.events,
                c.arrivals,
                c.completed,
                c.censored,
                c.aborted,
                c.avg_online_per_file.unwrap_or(f64::NAN)
            );
            let k = &c.counters;
            counters.events_popped += k.events_popped;
            counters.stale_discards += k.stale_discards;
            counters.heap_peak = counters.heap_peak.max(k.heap_peak);
            counters.rate_recomputes += k.rate_recomputes;
            counters.rate_clean_hits += k.rate_clean_hits;
            counters.agg_rate_updates += k.agg_rate_updates;
            counters.agg_samples += k.agg_samples;
        }
        let downloads: u64 = cells.iter().map(|c| c.completed as u64).sum();
        let events: u64 = cells.iter().map(|c| c.events).sum();
        let walls: Vec<f64> = cells.iter().map(|c| c.wall_s).collect();
        let wall_sum: f64 = walls.iter().sum();
        obs.extend(des_counter_obs(&counters, events, downloads));
        obs.extend([
            ("des.ns_per_event", ratio(wall_sum * 1e9, events as f64)),
            ("harness.cell_wall_s", median(&walls)),
            (
                "harness.pool_efficiency",
                ratio(wall_sum * 1e9, SWEEP_WORKERS as f64 * sweep_ns),
            ),
            (
                "harness.journal_bytes",
                std::fs::metadata(&sup.manifest).map_or(0.0, |m| m.len() as f64),
            ),
            (
                "harness.attempts_per_cell",
                ratio(attempts as f64, journal.len() as f64),
            ),
        ]);
        Ok(RepOutput {
            digest,
            downloads,
            sim_time: horizons,
            model_err: None,
        })
    }
}
