//! Command handlers. Each reads only the flags its entry in
//! [`crate::table::COMMANDS`] declares.

use crate::args::Options;
use crate::errors::{CliError, EXIT_CLOBBER, EXIT_INVARIANT, EXIT_SWEEP_FAILED};
use btfluid_bench::{
    ablation, adapt_exp, fig2, fig3, fig4a, fig4bc, skew, transient, validate, Table,
};
use btfluid_core::adapt::AdaptConfig;
use btfluid_core::multiclass::{BandwidthClass, MultiClassFluid};
use btfluid_core::FluidParams;
use btfluid_des::{
    estimate_eta, run_single_torrent, ChunkLevelConfig, ClassStats, DesConfig, Probe, SchemeKind,
    SimOutcome, Simulation, SingleTorrentConfig,
};
use btfluid_harness as harness;
use btfluid_hybrid::{HybridConfig, HybridRunner, Regime};
use btfluid_scenario::{registry, runner, trace_program, RateMode, TraceHook, TraceShaper};
use btfluid_telemetry::{
    diag, read_trace, shared_recorder, Counters, Json, Level, PhaseStats, Profiler, ScratchDir,
    SharedRecorder, TelemetryProbe, TraceFlight, TraceRun, TraceSink, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_SAMPLE_EVERY, TRACE_VERSION,
};
use btfluid_workload::{fit_model, ArrivalTrace, CorrelationModel};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

thread_local! {
    /// Paths this invocation already wrote: commands that emit several
    /// tables to one `--out` file may keep rewriting it, only the *first*
    /// write of a pre-existing file needs `--force`.
    static WRITTEN: std::cell::RefCell<std::collections::BTreeSet<String>> =
        const { std::cell::RefCell::new(std::collections::BTreeSet::new()) };
}

/// Refuses to overwrite `path` unless `--force` was given.
fn check_clobber(path: &str, opts: &Options) -> Result<(), CliError> {
    let first = WRITTEN.with(|w| w.borrow_mut().insert(path.to_string()));
    if first && Path::new(path).exists() && !opts.has("force") {
        return Err(CliError::clobber(path));
    }
    Ok(())
}

/// Prints a table (or its CSV form) and optionally writes the CSV to disk.
fn emit(table: &Table, opts: &Options) -> Result<(), CliError> {
    if opts.has("csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
    if let Some(path) = opts.get("out") {
        check_clobber(path, opts)?;
        fs::write(path, table.to_csv())?;
        diag!(Level::Info, "wrote {path}");
    }
    Ok(())
}

pub(crate) fn cmd_fig2(opts: &Options) -> Result<(), CliError> {
    let cfg = fig2::Fig2Config {
        points: opts.get_usize("points", 50)?,
        k: opts.get_usize("k", 10)? as u32,
        params: FluidParams::paper(),
    };
    let r = fig2::run(&cfg)?;
    emit(&r.table(), opts)
}

pub(crate) fn cmd_fig3(opts: &Options) -> Result<(), CliError> {
    let cfg = fig3::Fig3Config {
        k: opts.get_usize("k", 10)? as u32,
        correlations: opts.get_f64_list("p", &[0.1, 1.0])?,
        params: FluidParams::paper(),
    };
    let r = fig3::run(&cfg)?;
    for t in r.tables() {
        emit(&t, opts)?;
    }
    Ok(())
}

pub(crate) fn cmd_fig4a(opts: &Options) -> Result<(), CliError> {
    let r = fig4a::run(&fig4a::Fig4aConfig::default())?;
    emit(&r.table(), opts)
}

pub(crate) fn cmd_fig4bc(opts: &Options, p: f64) -> Result<(), CliError> {
    let cfg = fig4bc::Fig4bcConfig {
        correlations: vec![p],
        ..Default::default()
    };
    let r = fig4bc::run(&cfg)?;
    for t in r.tables() {
        emit(&t, opts)?;
    }
    Ok(())
}

pub(crate) fn cmd_validate(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.5)?;
    let cfg = validate::ValidateConfig {
        model: CorrelationModel::new(10, p, 0.25)?,
        replications: opts.get_usize("reps", 4)?,
        horizon: opts.get_f64("horizon", 4000.0)?,
        warmup: opts.get_f64("warmup", 1000.0)?,
        seed: opts.get_u64("seed", 2006)?,
        ..Default::default()
    };
    let r = validate::run(&cfg)?;
    emit(&r.table(), opts)?;
    diag!(
        Level::Info,
        "worst relative online-time error: {:.1}%",
        100.0 * r.worst_online_error()
    );
    Ok(())
}

pub(crate) fn cmd_adapt(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.9)?;
    let cfg = adapt_exp::AdaptExpConfig {
        model: CorrelationModel::new(10, p, 0.25)?,
        cheater_fractions: opts.get_f64_list("cheaters", &[0.0, 0.25, 0.5, 0.75])?,
        replications: opts.get_usize("reps", 3)?,
        epoch: opts.get_f64("epoch", 20.0)?,
        horizon: opts.get_f64("horizon", 4000.0)?,
        warmup: opts.get_f64("warmup", 1000.0)?,
        seed: opts.get_u64("seed", 43)?,
        controller: AdaptConfig::default_for_mu(0.02),
        params: FluidParams::paper(),
    };
    let r = adapt_exp::run(&cfg)?;
    emit(&r.table(), opts)
}

pub(crate) fn cmd_transient(opts: &Options) -> Result<(), CliError> {
    let cfg = transient::TransientConfig {
        p: opts.get_f64("p", 0.5)?,
        flash_crowd: opts.get_f64("crowd", 200.0)?,
        ..Default::default()
    };
    let r = transient::run(&cfg)?;
    emit(&r.table(), opts)?;
    if opts.has("csv") {
        print!("{}", r.mtcd.to_csv());
    }
    Ok(())
}

pub(crate) fn cmd_ablation(opts: &Options) -> Result<(), CliError> {
    let p = opts.get_f64("p", 0.7)?;
    let cfg = ablation::AblationConfig {
        model: CorrelationModel::new(10, p, 1.0)?,
        ..Default::default()
    };
    let r = ablation::run(&cfg)?;
    emit(&r.table(), opts)
}

pub(crate) fn cmd_eta(opts: &Options) -> Result<(), CliError> {
    let seed = opts.get_u64("seed", 11)?;
    let mut t = Table::new(
        "X9 — chunk-level η: downloader upload utilization and seed byte share",
        vec!["chunks", "1/γ", "utilization", "seed/dl bytes", "completed"],
    );
    for &chunks in &[4usize, 16, 64, 256] {
        for &gamma in &[0.05, 0.2] {
            let e = estimate_eta(&ChunkLevelConfig {
                chunks,
                gamma,
                horizon: 2000.0,
                warmup: 500.0,
                seed,
                ..Default::default()
            })?;
            t.push_row(vec![
                format!("{chunks}"),
                format!("{:.0}", 1.0 / gamma),
                format!("{:.3}", e.utilization),
                format!("{:.2}", e.seed_byte_ratio()),
                format!("{}", e.completed),
            ]);
        }
    }
    emit(&t, opts)
}

pub(crate) fn cmd_skew(opts: &Options) -> Result<(), CliError> {
    let cfg = skew::SkewConfig {
        k: opts.get_usize("k", 10)? as u32,
        ..Default::default()
    };
    let r = skew::run(&cfg)?;
    emit(&r.table(), opts)
}

/// `MU:C:LAMBDA,...`, one bandwidth class per comma.
fn parse_classes(spec: &str) -> Result<Vec<BandwidthClass>, CliError> {
    let class = |(i, tok): (usize, &str)| -> Result<BandwidthClass, CliError> {
        let nums: Result<Vec<f64>, _> = tok.trim().split(':').map(str::parse).collect();
        match nums.as_deref() {
            Ok(&[mu, c, lambda]) => Ok(BandwidthClass { mu, c, lambda }),
            _ => Err(format!("class {i}: expected MU:C:LAMBDA numbers, got '{tok}'").into()),
        }
    };
    spec.split(',').enumerate().map(class).collect()
}

pub(crate) fn cmd_multiclass(opts: &Options) -> Result<(), CliError> {
    let spec = opts
        .get("classes")
        .unwrap_or("0.005:0.05:0.2,0.02:0.2:0.3,0.08:0.8:0.1");
    let classes = parse_classes(spec)?;
    let fluid = MultiClassFluid::new(classes.clone(), 0.5, 0.05)?;
    let ss = fluid.steady_state()?;
    let sim = run_single_torrent(&SingleTorrentConfig {
        classes: classes.clone(),
        eta: 0.5,
        gamma: 0.05,
        horizon: 8000.0,
        warmup: 2500.0,
        drain: 4000.0,
        seed: opts.get_u64("seed", 7)?,
    })?;
    let mut t = Table::new(
        "X7 — heterogeneous bandwidth classes (Section 2), fluid vs simulation",
        vec!["class", "μ", "c", "λ", "fluid T_dl", "sim T_dl", "users"],
    );
    for (i, cl) in classes.iter().enumerate() {
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{}", cl.mu),
            format!("{}", cl.c),
            format!("{}", cl.lambda),
            format!("{:.2}", ss.download_times[i]),
            format!("{:.2}", sim.classes[i].download.mean()),
            format!("{}", sim.classes[i].download.count()),
        ]);
    }
    emit(&t, opts)?;
    if sim.censored > 0 {
        diag!(Level::Warn, "warning: {} censored users", sim.censored);
    }
    Ok(())
}

fn parse_scheme(s: &str) -> Result<SchemeKind, CliError> {
    match s {
        "mtsd" => Ok(SchemeKind::Mtsd),
        "mtcd" => Ok(SchemeKind::Mtcd),
        "mfcd" => Ok(SchemeKind::Mfcd),
        "cmfsd" => Ok(SchemeKind::Cmfsd { rho: 0.0 }),
        _ => match s.strip_prefix("cmfsd:") {
            Some(rho) => {
                let rho: f64 = rho
                    .parse()
                    .map_err(|_| format!("bad CMFSD ρ in '{s}' (use cmfsd:0.3)"))?;
                Ok(SchemeKind::Cmfsd { rho })
            }
            None => Err(format!("unknown scheme '{s}' (mtsd|mtcd|mfcd|cmfsd[:RHO])").into()),
        },
    }
}

/// The engine's rate mode: `--aggregate`, else incremental.
fn rate_mode(opts: &Options) -> RateMode {
    if opts.has("aggregate") {
        RateMode::Aggregate
    } else {
        RateMode::Incremental
    }
}

/// Applies the run flags to an engine configuration: the rate mode, and
/// `--checked` per-event invariant audits.
fn apply_run_flags(opts: &Options, cfg: &mut DesConfig) {
    rate_mode(opts).apply(cfg);
    cfg.checked = opts.has("checked");
}

/// The paper-workload engine configuration of `sim`, `profile` and
/// `sweep`: `--k` files (default 10) at `--p` (default 0.5) until
/// `--horizon` (warm-up `--warmup`, default a quarter of it), drained one
/// more horizon, `--origin-seeds` (default 1) and the run flags. A flag
/// the command does not declare keeps its default.
fn des_config(
    opts: &Options,
    scheme: SchemeKind,
    seed: u64,
    horizon: f64,
) -> Result<DesConfig, CliError> {
    let p = opts.get_f64("p", 0.5)?;
    let horizon = opts.get_f64("horizon", horizon)?;
    let mut cfg = DesConfig::paper_small(scheme, p, seed)?;
    cfg.model = CorrelationModel::new(opts.get_usize("k", 10)? as u32, p, 0.25)?;
    cfg.horizon = horizon;
    cfg.warmup = opts.get_f64("warmup", horizon / 4.0)?;
    cfg.drain = horizon;
    cfg.origin_seeds = opts.get_usize("origin-seeds", 1)?;
    apply_run_flags(opts, &mut cfg);
    Ok(cfg)
}

pub(crate) fn cmd_sim(opts: &Options) -> Result<(), CliError> {
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtsd"))?;
    let cfg = des_config(opts, scheme, opts.get_u64("seed", 1)?, 4000.0)?;
    let p = cfg.model.p();
    let outcome = Simulation::new(cfg)?.try_run()?;
    let mut t = Table::new(
        format!("simulation — {} (p = {p})", scheme.name()),
        vec!["class", "users", "download/file", "online/file"],
    );
    for (i, stats) in outcome.classes.iter().enumerate() {
        if stats.count() == 0 {
            continue;
        }
        let class = (i + 1) as f64;
        t.push_row(vec![
            format!("{}", i + 1),
            format!("{}", stats.count()),
            format!("{:.2}", stats.download.mean() / class),
            format!("{:.2}", stats.online.mean() / class),
        ]);
    }
    emit(&t, opts)?;
    diag!(
        Level::Info,
        "arrivals: {}, counted: {}, censored: {}, avg online/file: {:.2}",
        outcome.arrivals,
        outcome.records.len(),
        outcome.censored,
        outcome.avg_online_per_file()?
    );
    Ok(())
}

/// Writes a flight recorder's dump (a btfluid-trace run) to `path`
/// atomically.
fn write_flight_dump(path: &Path, flight: &SharedRecorder) -> Result<(), CliError> {
    let dump = flight
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .dump_string(None);
    harness::atomic_write(path, dump.as_bytes())?;
    diag!(Level::Info, "wrote flight recording {}", path.display());
    Ok(())
}

/// The optional observers of one run, shared by `profile`, `scenario` and
/// `scenario --hybrid`: the `--trace` JSONL sink, sampled every
/// `--sample-every`, and the `--flightrec` ring of the last
/// `--flightrec-cap` happenings, dumped to `dump`.
struct Observers {
    probe: TelemetryProbe,
    dump: Option<PathBuf>,
}

impl Observers {
    fn open(opts: &Options) -> Result<Self, CliError> {
        let sample_every = opts.get_f64("sample-every", DEFAULT_SAMPLE_EVERY)?;
        if !sample_every.is_finite() || sample_every <= 0.0 {
            return Err("--sample-every must be positive".into());
        }
        let sink = match opts.get("trace") {
            Some(path) => {
                check_clobber(path, opts)?;
                // A kill between the sink's tmp write and its finishing
                // rename leaves `<trace>.tmp` behind; clear it like
                // checkpoint tmps.
                harness::clean_stale_tmp(Path::new(path));
                Some((TraceSink::create(Path::new(path))?.shared(), sample_every))
            }
            None => None,
        };
        let (flight, dump) = match opts.get("flightrec") {
            Some(path) => {
                check_clobber(path, opts)?;
                let cap = opts.get_usize("flightrec-cap", DEFAULT_FLIGHT_CAPACITY)?;
                if cap == 0 {
                    return Err("--flightrec-cap must be at least 1".into());
                }
                (Some(shared_recorder(cap)), Some(PathBuf::from(path)))
            }
            None => (None, None),
        };
        Ok(Self {
            probe: TelemetryProbe { sink, flight },
            dump,
        })
    }

    /// Starts a trace segment (one engine run) with its `meta` record
    /// and returns the probe feeding every open observer.
    fn probe(&self, meta: &[(&str, Json)]) -> TelemetryProbe {
        if let Some((sink, _)) = &self.probe.sink {
            sink.lock().unwrap_or_else(|e| e.into_inner()).meta(meta);
        }
        self.probe.clone()
    }

    /// Runs `run`; when it fails, the flight ring still ships its last-N
    /// story. Never masks the original error: a dump failure only warns,
    /// and an empty ring (the error fired before any run) writes nothing.
    fn guard<T>(&self, run: impl FnOnce() -> Result<T, CliError>) -> Result<T, CliError> {
        let result = run();
        if let (Err(_), Some(flight), Some(path)) = (&result, &self.probe.flight, &self.dump) {
            if !flight.lock().unwrap_or_else(|e| e.into_inner()).is_empty() {
                if let Err(e) = write_flight_dump(path, flight) {
                    diag!(Level::Warn, "flight dump on the error path failed: {e}");
                }
            }
        }
        result
    }

    /// Closes the observers: `close` writes the sink's last records before
    /// the trace is renamed into place, then the flight ring is dumped.
    fn finish(self, close: impl FnOnce(&mut TraceSink)) -> Result<(), CliError> {
        if let Some((sink, _)) = &self.probe.sink {
            let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
            close(&mut guard);
            let path = guard.finish()?;
            diag!(Level::Info, "wrote trace {}", path.display());
        }
        if let (Some(flight), Some(path)) = (&self.probe.flight, &self.dump) {
            write_flight_dump(path, flight)?;
        }
        Ok(())
    }
}

/// The per-phase cost table: `btfluid profile` prints it for the run it
/// profiled, `inspect` for each `profile` record of a trace.
fn profile_table<N: AsRef<str>>(title: String, phases: &[(N, PhaseStats)], events: u64) -> Table {
    let events = events.max(1);
    // `accounted` sums the `self_ns` column, so it is 0 only when all are.
    let accounted: u64 = phases.iter().map(|(_, s)| s.self_ns).sum();
    let mut t = Table::new(
        title,
        vec![
            "phase", "calls", "self ms", "total ms", "ns/call", "ns/event", "self %",
        ],
    );
    for (name, stats) in phases {
        let pct = 100.0 * stats.self_ns as f64 / accounted.max(1) as f64;
        let per_call = if stats.calls > 0 {
            format!("{:.0}", stats.self_ns as f64 / stats.calls as f64)
        } else {
            "-".into()
        };
        t.push_row(vec![
            name.as_ref().to_string(),
            format!("{}", stats.calls),
            format!("{:.3}", stats.self_ns as f64 / 1e6),
            format!("{:.3}", stats.total_ns as f64 / 1e6),
            per_call,
            format!("{:.0}", stats.self_ns as f64 / events as f64),
            format!("{pct:.1}"),
        ]);
    }
    t.push_row(vec![
        "accounted".into(),
        "-".into(),
        format!("{:.3}", accounted as f64 / 1e6),
        "-".into(),
        "-".into(),
        format!("{:.0}", accounted as f64 / events as f64),
        "100.0".into(),
    ]);
    t
}

/// `btfluid profile` — run one engine configuration with the hierarchical
/// self-profiler enabled and render the per-phase cost tables.
pub(crate) fn cmd_profile(opts: &Options) -> Result<(), CliError> {
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtcd"))?;
    let cfg = des_config(opts, scheme, opts.get_u64("seed", 1)?, 2000.0)?;
    let (p, seed) = (cfg.model.p(), cfg.seed);
    let observers = Observers::open(opts)?;
    let mut sim = Simulation::new(cfg)?;
    sim.enable_profiler(Profiler::calibrated());
    let label = format!("profile-{}", scheme.name());
    sim.attach_probe(Box::new(
        observers.probe(&[("label", Json::Str(label)), ("seed", Json::num_u64(seed))]),
    ));
    let started = std::time::Instant::now();
    while sim.step()? {}
    let wall = started.elapsed();
    let table = sim
        .profiler_table()
        .ok_or_else(|| CliError::from("internal: profiler vanished".to_string()))?;
    let outcome = sim.finish();
    observers.finish(|sink| sink.profile(&table))?;

    let title = format!(
        "profile — {} (p = {p}, {} events, {:.1} ms wall)",
        scheme.name(),
        table.events,
        wall.as_secs_f64() * 1e3
    );
    emit(&profile_table(title, &table.phases, table.events), opts)?;
    diag!(
        Level::Info,
        "profile: pair overhead {} ns (subtracted per scope); {:.1}% of wall \
         accounted to phases; arrivals {}, completed {}",
        table.pair_overhead_ns,
        100.0 * table.accounted_ns() as f64 / (wall.as_nanos().max(1) as f64),
        outcome.arrivals,
        outcome.records.len()
    );
    Ok(())
}

/// `btfluid scenario list` | `btfluid scenario <name> [options]`.
pub(crate) fn cmd_scenario(opts: &Options) -> Result<(), CliError> {
    let name = opts.arg();
    if name == "list" {
        return scenario_list(opts);
    }
    let Some(mut program) = registry::by_name(name) else {
        return Err(format!(
            "scenario: unknown name '{name}'; registry: {}",
            registry::SCENARIO_NAMES.join(", ")
        )
        .into());
    };

    let scale = if opts.has("smoke") {
        0.25
    } else {
        opts.get_f64("scale", 1.0)?
    };
    if !scale.is_finite() || scale <= 0.0 {
        return Err("scenario: --scale must be positive".into());
    }
    if (scale - 1.0).abs() > 1e-12 {
        program = program.time_scaled(scale);
    }
    let seed = opts.get_u64("seed", 2006)?;
    let mode = rate_mode(opts);
    let crash_safe = ["checkpoint", "records", "resume", "checked"]
        .iter()
        .any(|f| opts.has(f));
    let observers = Observers::open(opts)?;

    if opts.has("hybrid") {
        return run_scenario_hybrid(&program, seed, scale, opts, observers);
    }

    // Each scheme run gets its own meta record (a trace "segment") and a
    // fresh probe streaming into the shared sink, so one file holds the
    // whole line-up and `btfluid inspect` can tell the runs apart.
    let mut make_probe = |label: &str| -> Option<Box<dyn Probe>> {
        Some(Box::new(observers.probe(&[
            ("scenario", Json::Str(name.to_string())),
            ("label", Json::Str(label.to_string())),
            ("seed", Json::num_u64(seed)),
            ("scale", Json::num_f64(scale)),
            ("aggregate", Json::Bool(mode == RateMode::Aggregate)),
            (
                "sample_every",
                Json::num_f64(observers.probe.sample_every()),
            ),
        ])))
    };

    let runs = observers.guard(|| match opts.get("scheme") {
        Some(spec) => {
            let scheme = parse_scheme(spec)?;
            let probe = make_probe(&scheme.name());
            Ok(vec![run_scenario_resumable(
                &program, scheme, seed, opts, probe,
            )?])
        }
        None if crash_safe => Err(
            "scenario: --checkpoint/--records/--resume/--checked need --scheme \
             (one engine run, one checkpoint)"
                .into(),
        ),
        None => Ok(runner::run_all_probed(
            &program,
            seed,
            mode,
            &mut make_probe,
        )?),
    })?;
    observers.finish(|_| {})?;

    if let Some(path) = opts.get("records") {
        write_records(path, &runs[0].outcome, opts)?;
    }

    diag!(
        Level::Info,
        "scenario {name}: {} (seed {seed}, scale {scale})",
        program.description
    );
    for run in &runs {
        emit(&scenario_table(name, run), opts)?;
        diag!(
            Level::Info,
            "{}: arrivals {}, completed {}, aborted {}, censored {}",
            run.label,
            run.outcome.arrivals,
            run.outcome.records.len(),
            run.outcome.aborts.len(),
            run.outcome.censored
        );
    }

    if opts.has("fluid") {
        scenario_fluid_comparison(name, &program, seed)?;
    }
    Ok(())
}

fn scenario_list(opts: &Options) -> Result<(), CliError> {
    let mut t = Table::new(
        "scenario registry — btfluid scenario <name>",
        vec!["name", "description", "phases"],
    );
    for p in registry::all() {
        let phases: Vec<String> = p.phases.iter().map(|ph| ph.name.clone()).collect();
        t.push_row(vec![
            p.name.clone(),
            p.description.clone(),
            phases.join("/"),
        ]);
    }
    emit(&t, opts)
}

/// The mean of `time` per requested file over users of every class
/// (class `i` users request `i + 1` files), or `-` without users.
fn per_file(classes: &[ClassStats], time: impl Fn(&ClassStats) -> f64) -> String {
    let mut total = 0.0;
    let mut files = 0.0;
    for (idx, c) in classes.iter().enumerate() {
        total += time(c) * c.count() as f64;
        files += (idx + 1) as f64 * c.count() as f64;
    }
    if files > 0.0 {
        format!("{:.2}", total / files)
    } else {
        "-".into()
    }
}

/// Per-phase timeline of one scheme's scenario run.
fn scenario_table(name: &str, run: &runner::ScenarioRun) -> Table {
    let mut t = Table::new(
        format!("scenario {name} — {}", run.label),
        vec![
            "phase",
            "window",
            "completed",
            "aborted",
            "dl/file",
            "online/file",
        ],
    );
    for ph in &run.phases {
        t.push_row(vec![
            ph.name.clone(),
            format!("[{:.0}, {:.0})", ph.start, ph.end),
            format!("{}", ph.completed()),
            format!("{}", ph.aborted),
            per_file(&ph.classes, |c| c.download.mean()),
            ph.online_per_file()
                .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
        ]);
    }
    t
}

/// DES-vs-fluid transient check: the schedule-driven MTCD ODE against an
/// MTCD DES run of the same program. Origin seeds are zeroed on both
/// sides — the fluid model has no publisher, and under MTCD a pinned
/// origin seed adds a full μ per subtorrent.
fn scenario_fluid_comparison(
    name: &str,
    program: &btfluid_scenario::ScenarioProgram,
    seed: u64,
) -> Result<(), CliError> {
    let mut program = program.clone();
    program.origin_seeds = 0;
    let run = runner::run_one(
        &program,
        SchemeKind::Mtcd,
        None,
        "MTCD",
        seed,
        RateMode::Incremental,
    )?;
    let des = btfluid_scenario::des_avg_downloaders(&run.outcome);
    log_fluid_check(&format!("{name}, MTCD, origin seeds off"), des, &program)
}

/// Logs how far the DES mean of downloading users sits from the
/// program's scheduled MTCD fluid model.
fn log_fluid_check(
    what: &str,
    des: f64,
    program: &btfluid_scenario::ScenarioProgram,
) -> Result<(), CliError> {
    let fluid = btfluid_scenario::fluid_avg_downloaders(program, 0.5)?;
    let rel = (des - fluid).abs() / fluid.max(1e-9);
    diag!(
        Level::Info,
        "fluid check ({what}): DES {des:.2} downloading users, fluid {fluid:.2}, \
         relative error {:.1}%",
        100.0 * rel
    );
    Ok(())
}

/// `--checkpoint FILE` every `--checkpoint-every` steps of engine progress
/// (default `every`), retried and degraded under the default policy.
fn checkpoint_plan(opts: &Options, every: u64) -> Result<harness::CheckpointPlan, CliError> {
    Ok(harness::CheckpointPlan {
        path: opts.get("checkpoint").map(PathBuf::from),
        every_events: opts.get_u64("checkpoint-every", every)?,
        retry: harness::RetryPolicy::default(),
    })
}

/// A single-scheme scenario run, through the crash-safe driver: honors
/// `--checkpoint`, `--checkpoint-every`, `--resume`, and `--checked`.
fn run_scenario_resumable(
    program: &btfluid_scenario::ScenarioProgram,
    scheme: SchemeKind,
    seed: u64,
    opts: &Options,
    probe: Option<Box<dyn Probe>>,
) -> Result<runner::ScenarioRun, CliError> {
    let mut cfg = program.des_config(scheme, seed)?;
    apply_run_flags(opts, &mut cfg);
    cfg.validate()?;
    let plan = checkpoint_plan(opts, 5000)?;
    let committed = harness::committed_checkpoint(plan.path.as_deref(), opts.has("resume"))?;
    let mut sim = harness::des_engine(cfg, Some(Box::new(program.hook())), committed.as_deref())?;
    if let Some(probe) = probe {
        sim.attach_probe(probe);
    }
    let report = harness::drive(sim, Some(&plan), &harness::RunLimits::default(), None, None)?;
    if committed.is_some() {
        diag!(
            Level::Info,
            "resumed from checkpoint; finished at {} events ({} checkpoint(s) this run)",
            report.progress,
            report.checkpoints
        );
    }
    let Some((outcome, _)) = report.outcome else {
        return Err("internal: unlimited run returned without an outcome".into());
    };
    let phases = runner::phase_stats(program, &outcome);
    Ok(runner::ScenarioRun {
        label: scheme.name(),
        scheme,
        outcome,
        phases,
    })
}

/// `btfluid scenario <name> --hybrid` — the multiscale fluid/DES driver:
/// the scheduled ODE carries the swarm while the population is large,
/// the DES takes over for small/critical windows (DESIGN.md §15).
///
/// Honors `--checkpoint`/`--checkpoint-every`/`--resume` with hybrid
/// snapshots through the same driver as DES runs, so failed checkpoint
/// writes are retried, then given up on; `--checkpoint-every` counts
/// decision boundaries, not events. Per-class means print with
/// shortest-roundtrip formatting, so byte-identical `--out` files mean
/// bit-identical runs.
fn run_scenario_hybrid(
    program: &btfluid_scenario::ScenarioProgram,
    seed: u64,
    scale: f64,
    opts: &Options,
    observers: Observers,
) -> Result<(), CliError> {
    let name = opts.arg();
    let aggregate = rate_mode(opts) == RateMode::Aggregate;
    let spec = opts.get("scheme").ok_or(
        "scenario: --hybrid needs --scheme mtcd|mtsd (the schemes with scheduled fluid models)",
    )?;
    let scheme = parse_scheme(spec)?;
    if !matches!(scheme, SchemeKind::Mtcd | SchemeKind::Mtsd) {
        return Err(format!(
            "scenario: --hybrid supports mtcd and mtsd, not {}",
            scheme.name()
        )
        .into());
    }
    if opts.get("records").is_some() || opts.has("checked") {
        return Err(
            "scenario: --records/--checked are not supported with --hybrid \
             (the driver is class-level; there is no per-user record stream)"
                .into(),
        );
    }
    let tol = opts.get_f64("hybrid-tol", 0.1)?;
    let cfg = HybridConfig {
        program: program.clone(),
        scheme,
        seed,
        tol,
        aggregate,
    };

    let plan = checkpoint_plan(opts, 8)?;
    let committed = harness::committed_checkpoint(plan.path.as_deref(), opts.has("resume"))?;
    let mut runner = match committed {
        Some(bytes) => {
            let r = HybridRunner::resume(cfg, &bytes)?;
            diag!(
                Level::Info,
                "resumed hybrid run at t = {:.3} in the {:?} regime \
                 ({} handoff(s) so far)",
                r.sim_time(),
                r.regime(),
                r.handoffs().len()
            );
            r
        }
        None => HybridRunner::new(cfg)?,
    };

    runner.attach_probe(observers.probe(&[
        ("scenario", Json::Str(name.to_string())),
        ("label", Json::Str(format!("hybrid-{}", scheme.name()))),
        ("seed", Json::num_u64(seed)),
        ("scale", Json::num_f64(scale)),
        ("hybrid", Json::Bool(true)),
        ("hybrid_tol", Json::num_f64(tol)),
        ("aggregate", Json::Bool(aggregate)),
    ]));

    let report = observers.guard(|| {
        Ok(harness::drive(
            runner,
            Some(&plan),
            &harness::RunLimits::default(),
            None,
            None,
        )?)
    })?;
    let Some(outcome) = report.outcome else {
        return Err("internal: unlimited run returned without an outcome".into());
    };
    let counters = Counters {
        events_popped: outcome.des_events,
        ..Default::default()
    };
    observers.finish(|sink| sink.end(outcome.final_t, &counters))?;

    let mut t = Table::new(
        format!(
            "scenario {name} — hybrid {} (tol {tol}, seed {seed})",
            scheme.name()
        ),
        vec!["class", "mean downloading users"],
    );
    for (i, mean) in outcome.class_means.iter().enumerate() {
        t.push_row(vec![format!("{}", i + 1), format!("{mean}")]);
    }
    t.push_row(vec!["total".into(), format!("{}", outcome.total_mean())]);
    emit(&t, opts)?;

    let to_fluid = outcome
        .handoffs
        .iter()
        .filter(|h| h.to == Regime::Fluid)
        .count();
    diag!(
        Level::Info,
        "hybrid {name}: {} handoff(s) ({to_fluid} →fluid, {} →discrete), \
         {} DES events, {} fluid substeps, final t {:.1}",
        outcome.handoffs.len(),
        outcome.handoffs.len() - to_fluid,
        outcome.des_events,
        outcome.fluid_steps,
        outcome.final_t
    );

    if opts.has("fluid") {
        scenario_fluid_comparison(name, program, seed)?;
    }
    Ok(())
}

/// Writes the per-user record stream as CSV. Floats use Rust's
/// shortest-roundtrip formatting, so two byte-identical files mean two
/// bit-identical record streams — the resume tests compare exactly this.
fn write_records(path: &str, outcome: &SimOutcome, opts: &Options) -> Result<(), CliError> {
    check_clobber(path, opts)?;
    let mut body =
        String::from("id,class,arrival,departure,download_span,online_fluid,final_rho,cheater\n");
    for r in &outcome.records {
        body.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.id,
            r.class,
            r.arrival,
            r.departure,
            r.download_span,
            r.online_fluid,
            r.final_rho,
            r.cheater
        ));
    }
    fs::write(path, body)?;
    diag!(
        Level::Info,
        "wrote {path} ({} records)",
        outcome.records.len()
    );
    Ok(())
}

/// `--inject-panic CELL[@EVENT]` (default event 50).
fn parse_inject(spec: Option<&str>) -> Result<Option<(String, u64)>, CliError> {
    let Some(spec) = spec else { return Ok(None) };
    match spec.rsplit_once('@') {
        Some((cell, ev)) => {
            let ev = ev.parse().map_err(|_| {
                format!("--inject-panic: '{ev}' is not an event count (use CELL@EVENT)")
            })?;
            Ok(Some((cell.to_string(), ev)))
        }
        None => Ok(Some((spec.to_string(), 50))),
    }
}

/// `btfluid sweep` — supervised replicate sweep with failure quarantine.
pub(crate) fn cmd_sweep(opts: &Options) -> Result<(), CliError> {
    // `--workload FILE` makes every cell a trace replay: the recorded
    // arrivals drive the engine and the reference model/geometry come
    // from the trace itself (fitted by `trace_program`).
    if opts.has("workload") {
        if let Some(flag) = ["p", "k", "horizon"].into_iter().find(|f| opts.has(f)) {
            return Err(format!(
                "sweep: --{flag} conflicts with --workload (the trace fixes p, K and the horizon)"
            )
            .into());
        }
    } else if opts.has("bins") {
        return Err("sweep: --bins needs --workload (it bins the trace's empirical rate)".into());
    }
    let Some(manifest) = opts.get("manifest") else {
        return Err("sweep: --manifest FILE is required (the append-only journal)".into());
    };
    let manifest_path = PathBuf::from(manifest);
    let resume = opts.has("resume");
    if !resume && fs::metadata(&manifest_path).is_ok_and(|m| m.len() > 0) {
        return Err(CliError::new(
            EXIT_CLOBBER,
            format!(
                "{manifest} already journals a sweep; pass --resume to continue it \
                 or choose a fresh manifest path"
            ),
        ));
    }
    let bundles = opts
        .get("bundles")
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest_path.with_extension("bundles"));

    let schemes = opts.get("schemes").unwrap_or("mtsd,mtcd,mfcd,cmfsd:0.5");
    let scheme_specs: Vec<&str> = schemes.split(',').map(str::trim).collect();
    let reps = opts.get_usize("reps", 2)?;
    if reps == 0 {
        return Err("sweep: --reps must be at least 1".into());
    }
    let base_seed = opts.get_u64("seed", 2006)?;
    let inject = parse_inject(opts.get("inject-panic"))?;
    let workload = match opts.get("workload") {
        None => None,
        Some(path) => {
            let trace = harness::load_trace(Path::new(path))?;
            let bins = opts.get_usize("bins", 8)?;
            let w = opts.get_f64("warmup", trace.horizon() / 4.0)?;
            let program = trace_program(&trace, bins, w)?;
            diag!(
                Level::Info,
                "workload {path}: {} arrivals over [0, {}), K = {}, \
                 entering rate {:.4}",
                trace.len(),
                trace.horizon(),
                trace.k(),
                trace.empirical_rate()
            );
            Some((path.to_string(), program))
        }
    };

    let mut cells = Vec::new();
    for spec in scheme_specs {
        let scheme = parse_scheme(spec)?;
        for rep in 0..reps {
            let seed = base_seed.wrapping_add(rep as u64);
            let id = format!("{spec}-s{seed}");
            let (cfg, scenario) = match &workload {
                Some((path, program)) => {
                    let mut cfg = program.des_config(scheme, seed)?;
                    apply_run_flags(opts, &mut cfg);
                    (cfg, Some(harness::ScenarioRef::traced(path)))
                }
                None => (des_config(opts, scheme, seed, 600.0)?, None),
            };
            cfg.validate()?;
            let inject_panic_at = inject
                .as_ref()
                .and_then(|(cell, ev)| (cell == &id).then_some(*ev));
            cells.push(harness::CellSpec {
                id,
                cfg,
                scenario,
                inject_panic_at,
            });
        }
    }
    if let Some((cell, _)) = &inject {
        if !cells.iter().any(|c| &c.id == cell) {
            let ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
            return Err(format!(
                "--inject-panic: no cell '{cell}' in this sweep (cells: {})",
                ids.join(", ")
            )
            .into());
        }
    }
    let total = cells.len();

    let budget = |name| opts.has(name).then(|| opts.get_u64(name, 0)).transpose();
    let max_events = budget("event-budget")?;
    let max_wall = budget("wall-budget-ms")?.map(Duration::from_millis);
    let sup = harness::SupervisorConfig {
        manifest: manifest_path,
        bundle_dir: bundles,
        budget: harness::Budget {
            max_events,
            max_wall,
        },
        max_retries: opts.get_usize("retries", 1)? as u32,
        backoff: Duration::from_millis(100),
        workers: opts.get_usize("workers", 1)?,
        resume,
        checkpoint_every: opts.get_u64("checkpoint-every", 5000)?,
    };
    let report = harness::run_sweep(&sup, cells)?;

    let mut t = Table::new(
        "sweep results (this invocation)",
        vec![
            "cell",
            "events",
            "arrivals",
            "completed",
            "censored",
            "aborted",
            "online/file",
        ],
    );
    for r in &report.completed {
        t.push_row(vec![
            r.id.clone(),
            format!("{}", r.events),
            format!("{}", r.arrivals),
            format!("{}", r.completed),
            format!("{}", r.censored),
            format!("{}", r.aborted),
            r.avg_online_per_file
                .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
        ]);
    }
    emit(&t, opts)?;
    if !report.skipped.is_empty() {
        diag!(
            Level::Info,
            "skipped {} cell(s) the manifest already records done",
            report.skipped.len()
        );
    }
    for f in &report.failed {
        diag!(
            Level::Warn,
            "quarantined {} after {} attempt(s): {} — replay with \
             'btfluid repro {}'",
            f.id,
            f.attempts,
            f.reason,
            f.bundle.display()
        );
    }
    if report.failed.is_empty() {
        diag!(
            Level::Info,
            "sweep complete: {} ran, {} skipped, {total} total",
            report.completed.len(),
            report.skipped.len()
        );
        Ok(())
    } else {
        Err(CliError::new(
            EXIT_SWEEP_FAILED,
            format!(
                "sweep: {} of {total} cell(s) quarantined (all others completed)",
                report.failed.len()
            ),
        ))
    }
}

/// A two-column `quantity | value` table.
fn quantity_table<const N: usize>(title: String, rows: [(&str, String); N]) -> Table {
    let mut t = Table::new(title, vec!["quantity", "value"]);
    for (quantity, value) in rows {
        t.push_row(vec![quantity.into(), value]);
    }
    t
}

/// Loads the `--in FILE` trace; the codec follows the extension
/// (`.jsonl` → JSONL, anything else → CSV).
fn trace_input(opts: &Options, sub: &str) -> Result<ArrivalTrace, CliError> {
    let Some(path) = opts.get("in") else {
        return Err(format!("trace {sub}: --in FILE is required").into());
    };
    Ok(harness::load_trace(Path::new(path))?)
}

/// `btfluid trace gen` — synthesize a trace through [`TraceShaper`].
pub(crate) fn trace_gen(opts: &Options) -> Result<(), CliError> {
    let k = opts.get_usize("k", 10)? as u32;
    let horizon = opts.get_f64("horizon", 2000.0)?;
    let seed = opts.get_u64("seed", 1)?;
    let shape = opts.get("shape").unwrap_or("flat");
    let mut shaper = match shape {
        "flat" => TraceShaper::flat(
            opts.get_f64("lambda0", 0.25)?,
            opts.get_f64("p", 0.4)?,
            k,
            horizon,
        ),
        "diurnal" => {
            if opts.get("lambda0").is_some() || opts.get("p").is_some() {
                return Err("trace gen: --shape diurnal fixes λ₀(t) and p to the \
                     measured preset; --alpha/--leecher-frac remain tunable"
                    .into());
            }
            TraceShaper::measured(k, horizon)
        }
        other => {
            return Err(format!("trace gen: unknown --shape '{other}' (flat | diurnal)").into())
        }
    };
    shaper.session_alpha = opts.get_f64("alpha", shaper.session_alpha)?;
    shaper.leecher_fraction = opts.get_f64("leecher-frac", shaper.leecher_fraction)?;
    let mut rng = btfluid_numkit::rng::Xoshiro256StarStar::seed_from_u64(seed);
    let trace = shaper.synthesize(&mut rng)?;

    let out = opts.get("out");
    let (format, text) = match opts.get("format") {
        Some("jsonl") => ("jsonl", trace.to_jsonl()),
        Some("csv") => ("csv", trace.to_csv()),
        Some(other) => {
            return Err(format!("trace gen: unknown --format '{other}' (csv | jsonl)").into())
        }
        None if out.is_some_and(|p| p.ends_with(".jsonl")) => ("jsonl", trace.to_jsonl()),
        None => ("csv", trace.to_csv()),
    };
    match out {
        Some(path) => {
            check_clobber(path, opts)?;
            fs::write(path, &text)?;
            diag!(
                Level::Info,
                "wrote {} arrivals ({format}) to {path}",
                trace.len()
            );
        }
        None => print!("{text}"),
    }
    diag!(
        Level::Info,
        "trace gen: shape {shape}, seed {seed}, K = {}, horizon {}, \
         entering rate {:.4}",
        trace.k(),
        trace.horizon(),
        trace.empirical_rate()
    );
    Ok(())
}

/// `btfluid trace fit` — recover `(λ₀, p)` by moment matching.
pub(crate) fn trace_fit(opts: &Options) -> Result<(), CliError> {
    let trace = trace_input(opts, "fit")?;
    let fit = fit_model(&trace)?;
    let rows = [
        ("K (files)", fit.k().to_string(), trace.k().to_string()),
        (
            "λ₀ (visitor rate)",
            format!("{:.6}", fit.lambda0()),
            "-".into(),
        ),
        ("p (correlation)", format!("{:.6}", fit.p()), "-".into()),
        (
            "entering rate",
            format!("{:.6}", fit.entering_rate()),
            format!("{:.6}", trace.empirical_rate()),
        ),
        (
            "mean files/entrant",
            format!("{:.4}", fit.mean_files_per_entrant()),
            format!("{:.4}", trace.mean_files_per_entrant()),
        ),
        ("arrivals", "-".into(), trace.len().to_string()),
    ];
    let mut t = Table::new(
        "trace fit — moment-matched stationary model",
        vec!["quantity", "fitted", "empirical"],
    );
    for (quantity, fitted, empirical) in rows {
        t.push_row(vec![quantity.into(), fitted, empirical]);
    }
    emit(&t, opts)
}

/// `btfluid trace replay` — drive the DES with the recorded arrivals.
pub(crate) fn trace_replay(opts: &Options) -> Result<(), CliError> {
    let trace = trace_input(opts, "replay")?;
    let scheme = parse_scheme(opts.get("scheme").unwrap_or("mtcd"))?;
    let seed = opts.get_u64("seed", 2006)?;
    let bins = opts.get_usize("bins", 8)?;
    let warmup = opts.get_f64("warmup", trace.horizon() / 4.0)?;
    let program = trace_program(&trace, bins, warmup)?;
    let mut cfg = program.des_config(scheme, seed)?;
    apply_run_flags(opts, &mut cfg);
    let outcome = Simulation::with_hook(cfg, Box::new(TraceHook::new(&trace)?))?.run();

    let online = per_file(&outcome.classes, |c| c.online.mean());
    let des = btfluid_scenario::des_avg_downloaders(&outcome);
    let title = format!(
        "trace replay — {} over {} arrivals",
        scheme.name(),
        trace.len()
    );
    emit(
        &quantity_table(
            title,
            [
                ("arrivals admitted", outcome.arrivals.to_string()),
                ("completed", outcome.records.len().to_string()),
                ("aborted", outcome.aborts.len().to_string()),
                ("censored", outcome.censored.to_string()),
                ("avg online/file", online),
                ("avg downloading users", format!("{des:.2}")),
            ],
        ),
        opts,
    )?;

    if opts.has("fluid") {
        // The schedule adapter replays the binned empirical λ(t) through
        // the MTCD fluid ODE; under MTCD replay the two must agree.
        log_fluid_check(&format!("{}, trace-driven", scheme.name()), des, &program)?;
    }
    Ok(())
}

/// `btfluid trace info` — codec header, moments, and class histogram.
pub(crate) fn trace_info(opts: &Options) -> Result<(), CliError> {
    let trace = trace_input(opts, "info")?;
    let title = format!(
        "{} v{} — {}",
        btfluid_workload::TRACE_FORMAT,
        btfluid_workload::TRACE_VERSION,
        opts.get("in").unwrap_or("?")
    );
    let rows = [
        ("K (files)", trace.k().to_string()),
        ("horizon", format!("{}", trace.horizon())),
        ("arrivals", trace.len().to_string()),
        ("entering rate", format!("{:.6}", trace.empirical_rate())),
        ("total file requests", trace.total_files().to_string()),
        (
            "mean files/entrant",
            format!("{:.4}", trace.mean_files_per_entrant()),
        ),
    ];
    emit(&quantity_table(title, rows), opts)?;
    if !trace.is_empty() {
        let counts = trace.class_counts();
        let mut h = Table::new("class histogram", vec!["class", "count", "share"]);
        for (idx, n) in counts.iter().enumerate() {
            if *n > 0 {
                h.push_row(vec![
                    (idx + 1).to_string(),
                    n.to_string(),
                    format!("{:.1}%", 100.0 * *n as f64 / trace.len() as f64),
                ]);
            }
        }
        emit(&h, opts)?;
    }
    Ok(())
}

/// `btfluid repro <bundle-dir>` — replay a quarantined cell.
pub(crate) fn cmd_repro(opts: &Options) -> Result<(), CliError> {
    let dir = opts.arg();
    // Chaos bundles (`chaos.json`) replay through the chaos executor;
    // supervisor cell bundles (`repro.json`) through the engine below.
    if btfluid_chaos::ChaosBundle::is_chaos_dir(Path::new(dir)) {
        return repro_chaos(Path::new(dir));
    }
    let bundle = harness::ReproBundle::read(Path::new(dir))?;
    diag!(
        Level::Info,
        "repro {}: recorded failure: {}",
        bundle.cell_id,
        bundle.reason
    );
    let hook = bundle
        .scenario
        .as_ref()
        .map(harness::ScenarioRef::build_hook)
        .transpose()?;
    let sim = harness::des_engine(bundle.cfg.clone(), hook, bundle.checkpoint.as_deref())?;
    if bundle.checkpoint.is_some() {
        diag!(
            Level::Info,
            "restored checkpoint at t = {:.3} ({} events)",
            sim.sim_time(),
            sim.events()
        );
    }
    let limits = harness::RunLimits {
        inject_panic_at: bundle.inject_panic_at,
        ..Default::default()
    };
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        harness::drive(sim, None, &limits, None, None)
    }))
    .map_err(|payload| {
        let msg = harness::panic_message(payload.as_ref());
        let id = &bundle.cell_id;
        CliError::new(
            EXIT_SWEEP_FAILED,
            format!("repro {id}: failure reproduced: {msg}"),
        )
    })?
    .inspect_err(|_| {
        let id = &bundle.cell_id;
        diag!(Level::Info, "repro {id}: typed engine failure reproduced");
    })?;
    let (outcome, _) = report
        .outcome
        .ok_or("internal: unlimited run returned without an outcome")?;
    diag!(
        Level::Info,
        "repro {}: ran to completion without reproducing the failure \
         (events {}, arrivals {}, completed {})",
        bundle.cell_id,
        outcome.events,
        outcome.arrivals,
        outcome.records.len()
    );
    Ok(())
}

/// `btfluid chaos` — the deterministic chaos sweep: generate seeded
/// random plans, execute each against the invariant catalog, shrink any
/// violation to a minimal failing plan, and write replayable bundles.
pub(crate) fn cmd_chaos(opts: &Options) -> Result<(), CliError> {
    let seed = opts.get_u64("seed", 2006)?;
    let cells = opts.get_u64("cells", 100)?;
    let bundles = opts.get("bundles").unwrap_or("chaos-bundles").to_string();
    // Plan checkpoints and traces, removed when the command ends.
    let scratch = ScratchDir::new("chaos")?;
    let work: &Path = &scratch;

    let plans = if opts.has("expect-fail") {
        diag!(
            Level::Info,
            "chaos: expect-fail canary — silently corrupted checkpoint \
             writes; the resume must catch it via the snapshot checksum"
        );
        vec![btfluid_chaos::canary(seed)]
    } else {
        btfluid_chaos::generate(seed, cells)
    };

    // Each plan arms its fault script on its own worker thread only, so
    // plans run side by side; verdicts come back in plan order.
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let run = AtomicUsize::new(0);
    let verdicts = harness::pool(workers, plans.iter().collect(), |plan| {
        let verdict = btfluid_chaos::run_plan(plan, work);
        let done = run.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(20) {
            diag!(Level::Info, "chaos: {done}/{} plans run", plans.len());
        }
        verdict
    });
    let mut failing = Vec::new();
    for (plan, verdict) in plans.iter().zip(verdicts) {
        if !verdict.clean() {
            diag!(
                Level::Warn,
                "chaos plan {}: {} violation(s): {}",
                plan.index,
                verdict.violations.len(),
                verdict
                    .violations
                    .iter()
                    .map(|v| v.invariant.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            failing.push(plan);
        }
    }
    println!(
        "chaos: seed {seed}, {} plan(s), {} violating",
        plans.len(),
        failing.len()
    );
    if failing.is_empty() {
        return Ok(());
    }

    // Shrink and bundle the first few failures (each shrink evaluation is
    // a full re-run, so keep the tail bounded).
    const MAX_BUNDLES: usize = 4;
    const SHRINK_BUDGET: u32 = 60;
    let first = failing.iter().take(MAX_BUNDLES).copied().collect();
    let shrunk = harness::pool(workers, first, |plan: &btfluid_chaos::ChaosPlan| {
        let (small, evals) = btfluid_chaos::shrink(
            plan,
            |cand| !btfluid_chaos::run_plan(cand, work).clean(),
            SHRINK_BUDGET,
        );
        let verdict = btfluid_chaos::run_plan(&small, work);
        (plan.index, small, evals, verdict)
    });
    for (index, small, evals, verdict) in shrunk {
        let bundle = btfluid_chaos::ChaosBundle {
            master_seed: seed,
            plan: small,
            violations: verdict.violations,
            shrink_evals: evals,
            flight: verdict.flight,
        };
        let dir = Path::new(&bundles).join(format!("plan-{index}"));
        bundle
            .write(&dir)
            .map_err(|e| CliError::new(1, format!("chaos: writing {}: {e}", dir.display())))?;
        println!(
            "chaos: plan {index} shrunk ({} rule(s) left, {} eval(s)) -> {}",
            bundle.plan.script.rules.len(),
            evals,
            dir.display()
        );
    }
    if failing.len() > MAX_BUNDLES {
        diag!(
            Level::Warn,
            "chaos: only the first {MAX_BUNDLES} of {} failing plans were \
             shrunk and bundled",
            failing.len()
        );
    }
    Err(CliError::new(
        EXIT_INVARIANT,
        format!(
            "chaos: {}/{} plan(s) violated invariants (seed {seed}; bundles \
             under {bundles})",
            failing.len(),
            plans.len()
        ),
    ))
}

/// Replays a chaos bundle: re-run the shrunk plan and report whether the
/// recorded violation reproduces (exit 6, mirroring cell repro) or is
/// gone (exit 0).
fn repro_chaos(dir: &Path) -> Result<(), CliError> {
    let bundle = btfluid_chaos::ChaosBundle::read(dir)
        .map_err(|e| CliError::new(1, format!("repro: {e}")))?;
    diag!(
        Level::Info,
        "repro chaos plan {} (master seed {}): recorded {} violation(s), \
         shrunk in {} eval(s)",
        bundle.plan.index,
        bundle.master_seed,
        bundle.violations.len(),
        bundle.shrink_evals
    );
    let verdict = btfluid_chaos::run_plan(&bundle.plan, &ScratchDir::new("chaos")?);
    if verdict.clean() {
        println!(
            "chaos plan {}: ran clean; the recorded violation did not reproduce",
            bundle.plan.index
        );
        return Ok(());
    }
    for v in &verdict.violations {
        println!("violation[{}]: {}", v.invariant, v.detail);
    }
    let same = verdict
        .violations
        .iter()
        .any(|v| bundle.violations.iter().any(|r| r.invariant == v.invariant));
    Err(CliError::new(
        EXIT_SWEEP_FAILED,
        format!(
            "repro: chaos plan {} reproduced {} violation(s){}",
            bundle.plan.index,
            verdict.violations.len(),
            if same {
                " (same invariant class as recorded)"
            } else {
                " (different invariant class than recorded)"
            }
        ),
    ))
}

/// A run's label as `inspect` shows it.
fn run_label(run: &TraceRun) -> &str {
    run.meta.str_at("label").unwrap_or("?")
}

/// A trace clock, with a non-finite one (written as `null`) as NaN so it
/// fails every ordering check.
fn clock(t: Option<f64>) -> f64 {
    t.unwrap_or(f64::NAN)
}

/// Simulated times of hybrid regime switches, in trace order (the driver
/// emits one timestamped `handoff:*` span per switch).
fn handoff_times(run: &TraceRun) -> Vec<f64> {
    run.spans
        .iter()
        .filter(|s| s.name.starts_with("handoff:"))
        .filter_map(|s| s.t)
        .collect()
}

/// Appends human-readable anomaly descriptions for one traced run.
fn detect_anomalies(run: &TraceRun, out: &mut Vec<String>) {
    let label = run_label(run);
    // A flight ring has no end record by design.
    if run.end.is_none() && !run.is_flight_dump() {
        out.push(format!(
            "{label}: truncated trace (no end record — the run did not finish)"
        ));
    }
    let mut ts: Vec<f64> = run.samples.iter().map(|s| clock(s.t)).collect();
    if let Some((t, _)) = run.end {
        ts.push(clock(t));
    }
    // A NaN timestamp compares as `None` and counts as non-monotone.
    let ordered = |w: &[f64]| {
        matches!(
            w[0].partial_cmp(&w[1]),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    };
    if ts.windows(2).any(|w| !ordered(w)) {
        out.push(format!("{label}: non-monotone clock across samples"));
    }
    if run.meta.get("aggregate").and_then(|a| a.as_bool()) == Some(true) {
        // Aggregate-mode cost health: per-peer rate recomputes are
        // structurally absent (the whole point of the mode), so the
        // incremental heuristic below would see zero recomputes and
        // report nothing even on a degenerating run. The right counter
        // here is `agg_rate_updates` — group-rate refreshes per event.
        // The group count is O(K²), independent of the swarm, so the
        // marginal updates-per-event cost is NOT normalized by live
        // download pairs: on a healthy run it is flat on its own, and
        // growth means group invalidation is fanning out.
        let costs = run.samples.windows(2).filter_map(|w| {
            let de = w[1].events.saturating_sub(w[0].events);
            let du = w[1]
                .counters
                .agg_rate_updates
                .saturating_sub(w[0].counters.agg_rate_updates);
            (de > 0).then(|| du as f64 / de as f64)
        });
        if let Some(growth) = cost_growth(costs.collect()) {
            out.push(format!(
                "{label}: group-rate cost drift (per-event aggregate \
                 update cost grew {growth:.1}× over the run in aggregate mode)"
            ));
        }
        let c = run.final_counters();
        if c.rate_recomputes > 0 {
            out.push(format!(
                "{label}: {} per-peer rate recomputes in aggregate mode \
                 (the per-peer cache should be idle)",
                c.rate_recomputes
            ));
        }
    } else {
        // Self-calibrating rate-cache health check: the marginal
        // group-rate recompute cost per event, normalized by the live
        // download pairs, does not grow over a healthy run (the dirty
        // set tracks the event, and the groups it touches are bounded
        // by files × classes, not by the swarm). Absolute thresholds
        // don't work here — MFCD legitimately recomputes more group
        // rates per event than MTSD by an order of magnitude — but a
        // cost that *grows* several-fold over the run's own history
        // means lazy invalidation is degenerating.
        let costs = run.samples.windows(2).filter_map(|w| {
            let de = w[1].events.saturating_sub(w[0].events);
            let dr = w[1]
                .counters
                .rate_recomputes
                .saturating_sub(w[0].counters.rate_recomputes);
            let pairs: u64 = w[1].download_pairs.iter().sum();
            (de > 0 && pairs > 0).then(|| dr as f64 / de as f64 / pairs as f64)
        });
        if let Some(growth) = cost_growth(costs.collect()) {
            out.push(format!(
                "{label}: rate-cache cost drift (per-event recompute cost \
                 grew {growth:.1}× over the run in incremental mode)"
            ));
        }
    }
    if run.samples.len() >= 3 {
        // A class whose users are *present* most of the run but never
        // form a single seeding pair never completes a download —
        // starvation. (A class with zero downloaders throughout simply
        // had no arrivals; that is a workload fact, not an anomaly.)
        let k = run
            .samples
            .iter()
            .map(|s| s.downloaders.len())
            .max()
            .unwrap_or(0);
        let n = run.samples.len();
        for class in 0..k {
            let present = run
                .samples
                .iter()
                .filter(|s| s.downloaders.get(class).copied().unwrap_or(0) > 0)
                .count();
            let ever_seeded = run
                .samples
                .iter()
                .any(|s| s.seed_pairs.get(class).copied().unwrap_or(0) > 0);
            if present * 2 >= n && !ever_seeded {
                out.push(format!(
                    "{label}: class {} starved (downloaders in {present} of \
                     {n} samples but no seed pair ever formed)",
                    class + 1
                ));
            }
        }
    }
    // Hybrid regime thrash: the hysteresis band exists precisely so
    // that switches are rare, so the yardstick is the run's own
    // median dwell between switches. Four consecutive switches packed
    // inside one median dwell means the driver is flip-flopping —
    // burning handoff cost without either engine settling.
    let switches = handoff_times(run);
    if switches.len() >= 4 {
        let mut dwells: Vec<f64> = switches.windows(2).map(|w| w[1] - w[0]).collect();
        dwells.sort_by(f64::total_cmp);
        let median = dwells[dwells.len() / 2];
        if let Some(w) = switches.windows(4).find(|w| w[3] - w[0] <= median) {
            out.push(format!(
                "{label}: hybrid regime thrash (4 switches within {:.3} time \
                 units at t = {:.1}; median dwell {median:.3})",
                w[3] - w[0],
                w[0]
            ));
        }
    }
}

/// How many times the mean per-event cost of a run's last third exceeds
/// its first third's, when that is more than 4× (at least 8 windows per
/// third).
fn cost_growth(costs: Vec<f64>) -> Option<f64> {
    let third = costs.len() / 3;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    if third < 8 {
        return None;
    }
    let (early, late) = (mean(&costs[..third]), mean(&costs[costs.len() - third..]));
    (early > 0.0 && late > 4.0 * early).then(|| late / early)
}

/// Per-class trajectory export: one CSV row per sample, classes padded
/// to the widest segment.
fn trajectories_csv(segments: &[TraceRun]) -> String {
    let k = segments
        .iter()
        .flat_map(|seg| seg.samples.iter())
        .map(|s| s.downloaders.len().max(s.seed_pairs.len()))
        .max()
        .unwrap_or(0);
    let mut out = String::from("run,t,events,rho_mean,delta_mean");
    for i in 1..=k {
        out.push_str(&format!(",downloaders_{i}"));
    }
    for i in 1..=k {
        out.push_str(&format!(",seed_pairs_{i}"));
    }
    out.push('\n');
    let opt = |v: Option<f64>| v.map(|x| format!("{x}")).unwrap_or_default();
    for seg in segments {
        for s in &seg.samples {
            out.push_str(&format!(
                "{},{},{},{},{}",
                run_label(seg),
                clock(s.t),
                s.events,
                opt(s.rho_mean),
                opt(s.delta_mean)
            ));
            for i in 0..k {
                out.push(',');
                if let Some(d) = s.downloaders.get(i) {
                    out.push_str(&d.to_string());
                }
            }
            for i in 0..k {
                out.push(',');
                if let Some(d) = s.seed_pairs.get(i) {
                    out.push_str(&d.to_string());
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Summarizes a flight dump: record mix, event mix, last handoff, last
/// checkpoint, and a staleness flag when the newest record predates the
/// failure time stamped into the meta record.
fn inspect_flight(path: &str, run: &TraceRun, opts: &Options) -> Result<(), CliError> {
    // (kind, count, last record) per record kind, in first-seen order;
    // the dump is oldest-first so "last" is newest.
    let mut mix: Vec<(&str, u64, &TraceFlight)> = Vec::new();
    let mut newest_t = f64::NEG_INFINITY;
    let mut pop_codes: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for rec in &run.flights {
        if let Some(t) = rec.t.filter(|&t| t.is_finite() && t > newest_t) {
            newest_t = t;
        }
        if rec.kind == "pop" {
            *pop_codes.entry(rec.a).or_insert(0) += 1;
        }
        match mix.iter_mut().find(|row| row.0 == rec.kind) {
            Some(row) => {
                row.1 += 1;
                row.2 = rec;
            }
            None => mix.push((&rec.kind, 1, rec)),
        }
    }

    let meta = |key| run.meta.u64_at(key);
    let mut t = Table::new(
        format!(
            "flight recording {path} — {} of {} record(s) \
             retained (capacity {}, dropped {})",
            run.flights.len(),
            meta("total"),
            meta("capacity"),
            meta("dropped")
        ),
        vec!["kind", "count", "last t", "last events", "last a", "last b"],
    );
    for (k, n, last) in &mix {
        t.push_row(vec![
            k.to_string(),
            format!("{n}"),
            format!("{:.3}", clock(last.t)),
            format!("{}", last.events),
            format!("{}", last.a),
            format!("{}", last.b),
        ]);
    }
    emit(&t, opts)?;

    // Engine event codes, in `pop` record order.
    let event_names = "end arrival completion seed-expiry epoch abort control";
    let pops: Vec<String> = pop_codes
        .iter()
        .map(|(code, n)| {
            let name = usize::try_from(*code)
                .map_or(None, |i| event_names.split(' ').nth(i))
                .unwrap_or("?");
            format!("{name} × {n}")
        })
        .collect();
    if !pops.is_empty() {
        diag!(Level::Info, "event mix: {}", pops.join(", "));
    }
    if let Some((_, _, last)) = mix.iter().find(|row| row.0 == "handoff") {
        diag!(
            Level::Info,
            "last handoff: t = {:.3}, {} (population {})",
            clock(last.t),
            if last.a == 0 {
                "DES -> fluid"
            } else {
                "fluid -> DES"
            },
            last.b
        );
    }
    if let Some((_, _, last)) = mix.iter().find(|row| row.0 == "checkpoint") {
        diag!(
            Level::Info,
            "last checkpoint: t = {:.3} at {} events ({} snapshot bytes)",
            clock(last.t),
            last.events,
            last.a
        );
    }
    if let Some(ft) = run.meta.f64_at("failure_t") {
        // `failure_t` is parsed from a message formatted at 3 decimals,
        // so allow half an ulp of that rounding before calling it stale.
        if newest_t.is_finite() && newest_t < ft - 5e-4 {
            println!(
                "WARNING: stale dump — newest record at t = {newest_t:.3} predates \
                 the failure at t = {ft:.3}; the recorder stopped observing before \
                 the quarantine fired"
            );
        } else {
            diag!(
                Level::Info,
                "dump covers the failure time (newest t = {newest_t:.3} >= {ft:.3})"
            );
        }
    }
    Ok(())
}

/// `btfluid inspect <trace.jsonl>` — summarize a telemetry trace or a
/// flight dump (one schema, one reader).
pub(crate) fn cmd_inspect(opts: &Options) -> Result<(), CliError> {
    let path = opts.arg();
    let body = fs::read_to_string(path)?;
    let segments = read_trace(&body).map_err(|e| format!("inspect: {path}:{e}"))?;
    if segments.is_empty() {
        return Err(format!("inspect: {path}: no meta records — not a btfluid trace").into());
    }
    for seg in &segments {
        let version = seg.meta.u64_at("version");
        if version != u64::from(TRACE_VERSION) {
            diag!(
                Level::Warn,
                "inspect: {path}: trace version {version}; this build reads v{TRACE_VERSION}"
            );
        }
        for (line, kind) in &seg.skipped {
            diag!(
                Level::Warn,
                "inspect: {path}:{line}: unknown record kind '{kind}' (skipped)"
            );
        }
        for profile in &seg.profiles {
            let title = format!(
                "{}: profile ({} events, pair overhead {} ns subtracted per scope)",
                run_label(seg),
                profile.events,
                profile.pair_overhead_ns
            );
            emit(&profile_table(title, &profile.phases, profile.events), opts)?;
        }
        if seg.is_flight_dump() {
            inspect_flight(path, seg, opts)?;
        }
    }
    let traces: Vec<&TraceRun> = segments.iter().filter(|s| !s.is_flight_dump()).collect();
    if !traces.is_empty() {
        let mut t = Table::new(
            format!("trace {path} — {} run(s)", traces.len()),
            vec![
                "run",
                "samples",
                "spans",
                "events",
                "stale",
                "heap peak",
                "recomputes",
                "recomp/ev",
                "snapshots",
            ],
        );
        for seg in &traces {
            let c = seg.final_counters();
            let per_event = c.rate_recomputes as f64 / c.events_popped.max(1) as f64;
            t.push_row(vec![
                run_label(seg).to_string(),
                format!("{}", seg.samples.len()),
                format!("{}", seg.spans.len()),
                format!("{}", c.events_popped),
                format!("{}", c.stale_discards),
                format!("{}", c.heap_peak),
                format!("{}", c.rate_recomputes),
                format!("{per_event:.1}"),
                format!("{}", c.snapshots_taken),
            ]);
        }
        emit(&t, opts)?;
    }
    for seg in &traces {
        let mut totals: Vec<(String, u64, u64)> = Vec::new();
        for span in &seg.spans {
            match totals.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.micros;
                }
                None => totals.push((span.name.clone(), 1, span.micros)),
            }
        }
        for (name, n, micros) in totals {
            diag!(
                Level::Info,
                "{}: span {name}: {n} × totalling {micros} µs",
                run_label(seg)
            );
        }
        let handoffs = handoff_times(seg);
        if !handoffs.is_empty() {
            let to_fluid = seg
                .spans
                .iter()
                .filter(|s| s.name == "handoff:des->fluid")
                .count();
            println!(
                "{}: {} hybrid handoff(s): {} →fluid, {} →discrete",
                run_label(seg),
                handoffs.len(),
                to_fluid,
                handoffs.len() - to_fluid
            );
        }
    }

    let mut anomalies = Vec::new();
    for seg in &segments {
        detect_anomalies(seg, &mut anomalies);
    }
    if anomalies.is_empty() {
        println!("no anomalies detected");
    } else {
        for a in &anomalies {
            println!("anomaly: {a}");
        }
    }

    if let Some(csv) = opts.get("csv-out") {
        check_clobber(csv, opts)?;
        fs::write(csv, trajectories_csv(&segments))?;
        diag!(Level::Info, "wrote {csv}");
    }
    Ok(())
}

/// The arg parser's own structural fuzz target, registered here because
/// `args.rs` is CLI-private. It parses against the `sim` entry of the
/// command table: random token soup must never panic the parser, flags
/// `sim` does not read must be rejected, and every accepted line must
/// round-trip through the typed getters without error.
fn cli_arg_round_trip(cfg: &btfluid_oracle::OracleConfig) -> Result<String, String> {
    use btfluid_numkit::rng::{RngCore, Xoshiro256StarStar};
    let sim = crate::table::COMMANDS
        .iter()
        .find(|c| c.name == "sim")
        .expect("sim is in the command table");
    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 9);
    // Exact round-trip: numbers formatted, parsed, and read back.
    for trial in 0..64u64 {
        let p = (rng.next_u64() % 1000) as f64 / 1000.0;
        let seed = rng.next_u64() % 1_000_000;
        let argv = vec![
            format!("--p"),
            format!("{p}"),
            format!("--seed"),
            format!("{seed}"),
            format!("--checked"),
        ];
        let opts = Options::parse(sim, &argv)
            .map_err(|e| format!("trial {trial}: valid argv rejected: {e}"))?;
        let p_back = opts.get_f64("p", f64::NAN).map_err(|e| e.to_string())?;
        let s_back = opts.get_u64("seed", 0).map_err(|e| e.to_string())?;
        if p_back.to_bits() != p.to_bits() || s_back != seed {
            return Err(format!(
                "trial {trial}: round-trip drift (p {p} → {p_back}, seed {seed} → {s_back})"
            ));
        }
        if !opts.has("checked") {
            return Err(format!("trial {trial}: flag --checked lost in parsing"));
        }
    }
    // Token soup: junk must produce typed errors, never a panic or a
    // silently-accepted option: unknown ones, and ones other commands own.
    let foreign = ["frobnicate", "records", "manifest", "hybrid", "trace"];
    let vocab = [
        "--p",
        "--seed",
        "--horizon",
        "--frobnicate",
        "--scheme",
        "mtsd",
        "abc",
        "1e6",
        "-3",
        "0.5,oops",
        "--",
        "--checked",
        "--records",
        "--manifest",
        "--hybrid",
        "--trace",
    ];
    let mut rejected = 0usize;
    for trial in 0..256u64 {
        let n = 1 + (rng.next_u64() % 5) as usize;
        let argv: Vec<String> = (0..n)
            .map(|_| vocab[(rng.next_u64() % vocab.len() as u64) as usize].to_string())
            .collect();
        let verdict =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Options::parse(sim, &argv)));
        match verdict {
            Err(_) => return Err(format!("trial {trial}: parser PANICKED on {argv:?}")),
            Ok(Err(_)) => rejected += 1,
            Ok(Ok(opts)) => {
                if let Some(flag) = foreign.iter().find(|f| opts.has(f)) {
                    return Err(format!("trial {trial}: sim accepted --{flag}"));
                }
            }
        }
    }
    for flag in foreign {
        if Options::parse(sim, &[format!("--{flag}")]).is_ok() {
            return Err(format!("sim accepted --{flag}, a flag it does not read"));
        }
    }
    Ok(format!(
        "64 argv round-trips bit-exact; {rejected}/256 junk lines rejected with typed errors"
    ))
}

pub(crate) fn cmd_selfcheck(opts: &Options) -> Result<(), CliError> {
    let cfg = btfluid_oracle::OracleConfig {
        seed: opts.get_u64("seed", 42)?,
        full: opts.has("full"),
    };

    if opts.has("expect-fail") {
        // Mutation mode: seed a deliberate rate-cache corruption and
        // demand the audit catch it. Detection maps to the invariant exit
        // code (4); a miss is a usage-class failure of the oracle itself.
        return Err(match btfluid_oracle::differential::mutation_canary(&cfg) {
            Ok(detail) => CliError::new(EXIT_INVARIANT, format!("expect-fail: {detail}")),
            Err(detail) => CliError::from(format!("expect-fail: detection MISSED — {detail}")),
        });
    }

    let mut report = btfluid_oracle::run_all(&cfg);
    // Append the CLI-local check so the table covers the whole surface.
    let started = std::time::Instant::now();
    let result = cli_arg_round_trip(&cfg);
    let wall_ms = started.elapsed().as_millis() as u64;
    let (passed, detail) = (result.is_ok(), result.unwrap_or_else(|e| e));
    report.outcomes.push(btfluid_oracle::CheckOutcome {
        name: "cli-arg-round-trip",
        paper_ref: "CLI contract (parse → getters, no panic)",
        passed,
        detail,
        wall_ms,
    });

    let mut table = Table::new(
        format!(
            "selfcheck ({} tier, seed {})",
            if cfg.full { "full" } else { "quick" },
            cfg.seed
        ),
        vec!["check", "pins", "status", "ms", "detail"],
    );
    for o in &report.outcomes {
        table.push_row(vec![
            o.name.to_string(),
            o.paper_ref.to_string(),
            if o.passed { "ok".into() } else { "FAIL".into() },
            o.wall_ms.to_string(),
            o.detail.clone(),
        ]);
    }
    emit(&table, opts)?;
    println!(
        "selfcheck: {}/{} checks passed in {} ms",
        report.outcomes.iter().filter(|o| o.passed).count(),
        report.outcomes.len(),
        report.wall_ms
    );
    let failed: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| !o.passed)
        .map(|o| o.name)
        .collect();
    if failed.is_empty() {
        Ok(())
    } else {
        let msg = format!("selfcheck failed: {failed:?}");
        Err(CliError::new(EXIT_INVARIANT, msg))
    }
}

pub(crate) fn cmd_all(opts: &Options) -> Result<(), CliError> {
    cmd_fig2(opts)?;
    cmd_fig3(opts)?;
    cmd_fig4a(opts)?;
    cmd_fig4bc(opts, 0.9)?;
    cmd_fig4bc(opts, 0.1)?;
    cmd_transient(opts)?;
    cmd_ablation(opts)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::{EXIT_CONFIG, EXIT_USAGE};
    use crate::table::dispatch;
    use btfluid_telemetry::{TraceSample, TraceSpan};

    /// A run's meta record with a label and a rate mode.
    fn meta(label: &str, aggregate: bool) -> Json {
        Json::parse(&format!(
            "{{\"label\":\"{label}\",\"aggregate\":{aggregate}}}"
        ))
        .unwrap()
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(parse_scheme("mtsd").unwrap(), SchemeKind::Mtsd);
        assert_eq!(parse_scheme("mtcd").unwrap(), SchemeKind::Mtcd);
        assert_eq!(parse_scheme("mfcd").unwrap(), SchemeKind::Mfcd);
        assert_eq!(
            parse_scheme("cmfsd:0.3").unwrap(),
            SchemeKind::Cmfsd { rho: 0.3 }
        );
        assert_eq!(
            parse_scheme("cmfsd").unwrap(),
            SchemeKind::Cmfsd { rho: 0.0 }
        );
        assert!(parse_scheme("cmfsd:x").is_err());
        assert!(parse_scheme("ftp").is_err());
        // Only `cmfsd` and `cmfsd:RHO` name CMFSD.
        for bad in ["cmfsd0.5", "cmfsd_nonsense"] {
            let err = parse_scheme(bad).unwrap_err();
            assert!(err.message.contains("unknown scheme"), "{bad}: {err}");
        }
    }

    #[test]
    fn dispatch_help_and_unknown() {
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&["--help".into()]).is_ok());
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }

    #[test]
    fn fig2_runs_small() {
        let argv = vec!["fig2".into(), "--points".into(), "3".into(), "--csv".into()];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fig3_runs() {
        let argv = vec!["fig3".into(), "--p".into(), "0.5".into()];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn fig4bc_runs() {
        assert!(dispatch(&["fig4b".into()]).is_ok());
        assert!(dispatch(&["fig4c".into()]).is_ok());
    }

    #[test]
    fn scenario_list_runs() {
        assert!(dispatch(&["scenario".into(), "list".into()]).is_ok());
    }

    #[test]
    fn scenario_requires_known_name() {
        assert!(dispatch(&["scenario".into()]).is_err());
        assert!(dispatch(&["scenario".into(), "nope".into()]).is_err());
    }

    #[test]
    fn scenario_smoke_single_scheme() {
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--smoke".into(),
            "--scheme".into(),
            "mtcd".into(),
            "--seed".into(),
            "5".into(),
            "--csv".into(),
        ];
        assert!(dispatch(&argv).is_ok());
    }

    #[test]
    fn scenario_rejects_bad_scale() {
        let argv = vec![
            "scenario".into(),
            "diurnal".into(),
            "--scale".into(),
            "0".into(),
        ];
        assert!(dispatch(&argv).is_err());
    }

    #[test]
    fn inject_spec_parses() {
        assert_eq!(parse_inject(None).unwrap(), None);
        assert_eq!(
            parse_inject(Some("mtsd-s7@120")).unwrap(),
            Some(("mtsd-s7".into(), 120))
        );
        assert_eq!(
            parse_inject(Some("mtsd-s7")).unwrap(),
            Some(("mtsd-s7".into(), 50))
        );
        assert!(parse_inject(Some("cell@lots")).is_err());
    }

    /// End-to-end sweep robustness: an injected panic quarantines exactly
    /// one cell (exit 6), the repro bundle replays the failure (exit 6),
    /// `--resume` reruns only the missing cell and the sweep completes, and
    /// a stale manifest without `--resume` is refused (exit 7).
    #[test]
    fn sweep_quarantine_repro_resume_cycle() {
        let dir = ScratchDir::new("cli-sweep-test").unwrap();
        let manifest = dir.join("sweep.jsonl");
        let bundles = dir.join("bundles");
        let base = vec![
            "sweep".into(),
            "--manifest".into(),
            manifest.to_str().unwrap().to_string(),
            "--bundles".into(),
            bundles.to_str().unwrap().to_string(),
            "--schemes".into(),
            "mtsd".into(),
            "--reps".into(),
            "2".into(),
            "--horizon".into(),
            "120".into(),
            "--seed".into(),
            "42".into(),
            "--retries".into(),
            "0".into(),
            "--csv".into(),
        ];

        let mut first = base.clone();
        first.extend(["--inject-panic".into(), "mtsd-s43@20".into()]);
        let err = dispatch(&first).unwrap_err();
        assert_eq!(err.code, EXIT_SWEEP_FAILED, "{}", err.message);
        let bundle = harness::bundle_path(&bundles, "mtsd-s43");
        assert!(bundle.join("repro.json").is_file(), "bundle not written");

        // The bundle must replay the recorded panic.
        let err = dispatch(&["repro".into(), bundle.to_str().unwrap().to_string()]).unwrap_err();
        assert_eq!(err.code, EXIT_SWEEP_FAILED, "{}", err.message);
        assert!(err.message.contains("reproduced"), "{}", err.message);

        // A second sweep against the same manifest needs --resume.
        let err = dispatch(&base).unwrap_err();
        assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);

        // --resume (without the injection) reruns only the failed cell.
        let mut resumed = base.clone();
        resumed.push("--resume".into());
        dispatch(&resumed).unwrap();
        let journal = std::fs::read_to_string(&manifest).unwrap();
        assert_eq!(
            journal.matches("\"id\":\"mtsd-s42\"").count(),
            1,
            "the finished cell must not rerun:\n{journal}"
        );
    }

    /// `--inject-panic` must name a cell of the sweep; under `--resume` a
    /// cell the manifest records as done still counts.
    #[test]
    fn inject_panic_naming_no_cell_is_a_usage_error() {
        let dir = ScratchDir::new("cli-inject-test").unwrap();
        let manifest = dir.join("sweep.jsonl");
        let sweep = |extra: &[&str]| {
            let mut argv: Vec<String> = [
                "sweep",
                "--manifest",
                manifest.to_str().unwrap(),
                "--schemes",
                "mtsd",
                "--reps",
                "1",
                "--seed",
                "42",
                "--horizon",
                "60",
                "--csv",
            ]
            .map(String::from)
            .to_vec();
            argv.extend(extra.iter().map(|a| a.to_string()));
            dispatch(&argv)
        };

        let err = sweep(&["--inject-panic", "mtsd-s99@5"]).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE, "{}", err.message);
        assert!(err.message.contains("mtsd-s99"), "{}", err.message);
        assert!(
            err.message.contains("mtsd-s42"),
            "lists the cells: {}",
            err.message
        );
        assert!(!manifest.exists(), "a refused sweep runs nothing");

        sweep(&[]).unwrap();
        sweep(&["--resume", "--inject-panic", "mtsd-s42@5"]).unwrap();
        let err = sweep(&["--resume", "--inject-panic", "mtsd-s99@5"]).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE, "{}", err.message);
    }

    /// End-to-end observability: a traced scenario line-up writes one
    /// JSONL segment per scheme, `inspect` summarizes it, and `--csv-out`
    /// exports the per-class trajectories.
    #[test]
    fn scenario_trace_then_inspect_roundtrip() {
        let dir = ScratchDir::new("cli-trace-test").unwrap();
        let trace = dir.join("out.jsonl");
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--smoke".into(),
            "--seed".into(),
            "5".into(),
            "--trace".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
        ];
        dispatch(&argv).unwrap();
        assert!(trace.is_file(), "trace not renamed into place");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert_eq!(
            body.matches("\"kind\":\"meta\"").count(),
            5,
            "one meta segment per scheme in the line-up:\n{body}"
        );
        assert_eq!(body.matches("\"kind\":\"end\"").count(), 5);
        assert!(body.contains("\"schema\":\"btfluid-trace\""));
        assert!(body.contains("\"kind\":\"sample\""));

        // Re-running without --force must refuse to clobber the trace.
        // (Fresh thread: the per-invocation WRITTEN set is thread-local.)
        let reinvoke = argv.clone();
        std::thread::spawn(move || {
            let err = dispatch(&reinvoke).unwrap_err();
            assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);
        })
        .join()
        .unwrap();

        let csv = dir.join("traj.csv");
        let inspect = vec![
            "inspect".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
            "--csv-out".into(),
            csv.to_str().unwrap().to_string(),
        ];
        dispatch(&inspect).unwrap();
        let traj = std::fs::read_to_string(&csv).unwrap();
        let header = traj.lines().next().unwrap();
        assert!(
            header.starts_with("run,t,events,rho_mean,delta_mean,downloaders_1"),
            "unexpected trajectory header: {header}"
        );
        assert!(header.contains("seed_pairs_1"));
        for label in ["MTSD", "MTCD", "MFCD", "CMFSD+Adapt"] {
            assert!(
                traj.lines().any(|l| l.starts_with(&format!("{label},"))),
                "no trajectory rows for {label}"
            );
        }
    }

    /// A trace's `profile` record, read back, renders as the very table
    /// `btfluid profile` printed for the run.
    #[test]
    fn inspect_renders_a_profile_record_as_the_profile_table() {
        let stats = |calls, self_ns, total_ns| PhaseStats {
            calls,
            self_ns,
            total_ns,
        };
        let table = btfluid_telemetry::ProfileTable {
            phases: vec![
                ("heap_ops", stats(7, 1_234, 2_000)),
                ("rate_maint", stats(0, 0, 0)),
                ("sink_write", stats(2, 999_999, 1_000_000)),
            ],
            events: 7,
            pair_overhead_ns: 40,
        };
        let dir = ScratchDir::new("cli-profile-record").unwrap();
        let mut sink = TraceSink::create(&dir.join("p.jsonl")).unwrap();
        sink.meta(&[]);
        sink.profile(&table);
        let body = std::fs::read_to_string(sink.finish().unwrap()).unwrap();
        let read = &read_trace(&body).unwrap()[0].profiles[0];
        let printed = profile_table("t".into(), &table.phases, table.events);
        let inspected = profile_table("t".into(), &read.phases, read.events);
        assert_eq!(printed.to_csv(), inspected.to_csv());
        assert_eq!(read.phases.len(), table.phases.len());
    }

    /// `inspect` rejects non-trace input instead of mis-summarizing it.
    #[test]
    fn inspect_rejects_non_traces() {
        assert!(dispatch(&["inspect".into()]).is_err());
        assert!(dispatch(&["inspect".into(), "/nonexistent/trace.jsonl".into()]).is_err());
        let dir = ScratchDir::new("cli-inspect-reject").unwrap();
        let bogus = dir.join("bogus.jsonl");
        std::fs::write(&bogus, "{\"kind\":\"sample\",\"t\":1}\n").unwrap();
        let err = dispatch(&["inspect".into(), bogus.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.message.contains("before any meta"), "{}", err.message);
        std::fs::write(
            &bogus,
            "{\"schema\":\"other\",\"version\":1,\"kind\":\"meta\"}\n",
        )
        .unwrap();
        let err = dispatch(&["inspect".into(), bogus.to_str().unwrap().to_string()]).unwrap_err();
        assert!(err.message.contains("schema"), "{}", err.message);
    }

    /// The anomaly heuristics flag truncation, clock regressions, cache
    /// cost drift, and starved classes — and stay quiet on a healthy
    /// trace where the same quantities are merely large but stable.
    #[test]
    fn inspect_anomaly_heuristics() {
        // One sample every 5 time units, 10 events per window, class 1
        // present throughout, class 2 present and seeding.
        let sample = |i: u64, recomputes: u64, seed_pairs: Vec<u64>| TraceSample {
            t: Some(i as f64 * 5.0),
            events: 10 * (i + 1),
            downloaders: vec![2, 1],
            download_pairs: vec![2, 1],
            seed_pairs,
            counters: Counters {
                rate_recomputes: recomputes,
                ..Default::default()
            },
            ..Default::default()
        };

        let mut recomputes = 0;
        let bad_samples: Vec<TraceSample> = (0..30)
            .map(|i| {
                // Flat marginal cost for the first 20 windows, then a
                // 50× blow-up — the drift detector's target.
                recomputes += if i < 20 { 10 } else { 500 };
                let mut s = sample(i, recomputes, vec![0, 1]);
                if i == 3 {
                    s.t = Some(2.0); // clock regression
                }
                s
            })
            .collect();
        let seg = TraceRun {
            meta: meta("X", false),
            samples: bad_samples,
            ..Default::default()
        };
        let mut out = Vec::new();
        detect_anomalies(&seg, &mut out);
        let all = out.join("\n");
        assert!(all.contains("truncated"), "{all}");
        assert!(all.contains("non-monotone"), "{all}");
        assert!(all.contains("cost drift"), "{all}");
        assert!(all.contains("class 1 starved"), "{all}");
        assert!(!all.contains("class 2 starved"), "{all}");

        // Same per-event cost in every window (large, but stable), every
        // present class eventually seeds, and the run finished.
        let mut recomputes = 0;
        let healthy_samples: Vec<TraceSample> = (0..30)
            .map(|i| {
                recomputes += 500;
                sample(i, recomputes, vec![1, 1])
            })
            .collect();
        let healthy = TraceRun {
            meta: meta("Y", false),
            samples: healthy_samples,
            end: Some((Some(150.0), Counters::default())),
            ..Default::default()
        };
        let mut out = Vec::new();
        detect_anomalies(&healthy, &mut out);
        assert!(out.is_empty(), "healthy trace flagged: {out:?}");
    }

    /// In aggregate mode the drift detector reads `agg_rate_updates` (the
    /// per-peer recompute counter is structurally zero there), and any
    /// nonzero per-peer recompute count is itself flagged.
    #[test]
    fn inspect_anomaly_heuristics_aggregate() {
        let sample = |i: u64, agg_updates: u64, recomputes: u64| TraceSample {
            t: Some(i as f64 * 5.0),
            events: 10 * (i + 1),
            downloaders: vec![2, 1],
            download_pairs: vec![2, 1],
            seed_pairs: vec![1, 1],
            counters: Counters {
                agg_rate_updates: agg_updates,
                rate_recomputes: recomputes,
                ..Default::default()
            },
            ..Default::default()
        };

        // Flat group-update cost for 20 windows, then a 50× blow-up:
        // invisible to the incremental heuristic (rate_recomputes stays
        // zero), caught by the aggregate one.
        let mut updates = 0;
        let drifting: Vec<TraceSample> = (0..30)
            .map(|i| {
                updates += if i < 20 { 10 } else { 500 };
                sample(i, updates, 0)
            })
            .collect();
        let seg = TraceRun {
            meta: meta("A", true),
            samples: drifting,
            end: Some((
                Some(150.0),
                Counters {
                    agg_rate_updates: updates,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        detect_anomalies(&seg, &mut out);
        let all = out.join("\n");
        assert!(all.contains("group-rate cost drift"), "{all}");
        assert!(!all.contains("rate-cache cost drift"), "{all}");

        // Healthy aggregate run: flat group-update cost, zero per-peer
        // recomputes — no anomalies.
        let mut updates = 0;
        let flat: Vec<TraceSample> = (0..30)
            .map(|i| {
                updates += 40;
                sample(i, updates, 0)
            })
            .collect();
        let healthy = TraceRun {
            meta: meta("B", true),
            samples: flat,
            end: Some((
                Some(150.0),
                Counters {
                    agg_rate_updates: updates,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        detect_anomalies(&healthy, &mut out);
        assert!(out.is_empty(), "healthy aggregate trace flagged: {out:?}");

        // A leaking per-peer cache (recomputes > 0 in aggregate mode) is
        // flagged even when the group-update cost stays flat.
        let mut updates = 0;
        let leaking: Vec<TraceSample> = (0..30)
            .map(|i| {
                updates += 40;
                sample(i, updates, 7)
            })
            .collect();
        let leaky = TraceRun {
            meta: meta("C", true),
            samples: leaking,
            end: Some((
                Some(150.0),
                Counters {
                    agg_rate_updates: updates,
                    rate_recomputes: 7,
                    ..Default::default()
                },
            )),
            ..Default::default()
        };
        let mut out = Vec::new();
        detect_anomalies(&leaky, &mut out);
        let all = out.join("\n");
        assert!(
            all.contains("per-peer rate recomputes in aggregate mode"),
            "{all}"
        );
    }

    /// The hybrid driver runs end to end from the CLI, writes a trace
    /// `inspect` can read back, and rejects the unsupported knobs.
    #[test]
    fn scenario_hybrid_smoke_and_guards() {
        let dir = ScratchDir::new("cli-hybrid-smoke").unwrap();
        let trace = dir.join("hybrid.jsonl");
        let argv = vec![
            "scenario".into(),
            "flash_crowd".into(),
            "--hybrid".into(),
            "--scheme".into(),
            "mtsd".into(),
            "--aggregate".into(),
            "--smoke".into(),
            "--seed".into(),
            "3".into(),
            "--trace".into(),
            trace.to_str().unwrap().to_string(),
            "--csv".into(),
        ];
        dispatch(&argv).unwrap();
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"label\":\"hybrid-MTSD\""), "{body}");
        assert!(body.contains("\"kind\":\"end\""), "{body}");
        dispatch(&["inspect".into(), trace.to_str().unwrap().to_string()]).unwrap();

        let base = |extra: &[&str]| -> Vec<String> {
            ["scenario", "flash_crowd", "--hybrid", "--smoke"]
                .iter()
                .copied()
                .chain(extra.iter().copied())
                .map(String::from)
                .collect()
        };
        // --scheme is mandatory and must be a scheduled-fluid scheme.
        assert!(dispatch(&base(&[])).is_err());
        assert!(dispatch(&base(&["--scheme", "mfcd"])).is_err());
        // --records, --checked, and out-of-range tolerances are rejected
        // before anything runs.
        assert!(dispatch(&base(&["--scheme", "mtsd", "--checked"])).is_err());
        let err = dispatch(&base(&["--scheme", "mtsd", "--hybrid-tol", "3"])).unwrap_err();
        assert_eq!(err.code, EXIT_CONFIG, "{}", err.message);
    }

    /// The thrash heuristic flags a burst of regime switches measured
    /// against the run's own median dwell — and stays quiet when the
    /// same number of switches is evenly spread.
    #[test]
    fn inspect_hybrid_thrash_heuristic() {
        let span = |t: f64| TraceSpan {
            name: "handoff:des->fluid".to_string(),
            micros: 10,
            t: Some(t),
        };
        let segment = |spans: Vec<TraceSpan>| TraceRun {
            meta: meta("H", true),
            spans,
            end: Some((Some(2000.0), Counters::default())),
            ..Default::default()
        };

        // Four switches packed into 1.5 time units amid ~400-unit dwells.
        let thrashing = segment(vec![
            span(100.0),
            span(500.0),
            span(900.0),
            span(1300.0),
            span(1300.5),
            span(1301.0),
            span(1301.5),
            span(1700.0),
        ]);
        let mut out = Vec::new();
        detect_anomalies(&thrashing, &mut out);
        assert!(
            out.iter().any(|a| a.contains("regime thrash")),
            "burst not flagged: {out:?}"
        );

        // The same switch count, evenly spaced: healthy.
        let healthy = segment(vec![span(100.0), span(600.0), span(1100.0), span(1600.0)]);
        let mut out = Vec::new();
        detect_anomalies(&healthy, &mut out);
        assert!(out.is_empty(), "even spacing flagged: {out:?}");
    }

    /// Result-writing commands refuse to clobber without `--force`.
    #[test]
    fn clobber_needs_force() {
        let dir = ScratchDir::new("cli-clobber-test").unwrap();
        let path = dir.join("fig2.csv");
        std::fs::write(&path, "old").unwrap();
        let argv = vec![
            "fig2".into(),
            "--points".into(),
            "3".into(),
            "--out".into(),
            path.to_str().unwrap().to_string(),
        ];
        let err = dispatch(&argv).unwrap_err();
        assert_eq!(err.code, EXIT_CLOBBER, "{}", err.message);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old");

        let mut forced = argv.clone();
        forced.push("--force".into());
        dispatch(&forced).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("p,"));
    }

    #[test]
    fn out_file_written() {
        let dir = ScratchDir::new("cli-test").unwrap();
        let path = dir.join("fig2.csv");
        let argv = vec![
            "fig2".into(),
            "--points".into(),
            "3".into(),
            "--out".into(),
            path.to_str().unwrap().to_string(),
        ];
        dispatch(&argv).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("p,MTCD,MTSD"));
    }
}
