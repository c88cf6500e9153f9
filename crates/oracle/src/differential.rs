//! Differential checks: the same physical question answered by independent
//! implementations must agree.
//!
//! Three layers answer "how does a multi-file swarm behave": the closed
//! forms (`btfluid-core`), the transient ODE (`btfluid-scenario::fluid`)
//! and the DES (`btfluid-des`, checked against its own full-recompute
//! reference). Any silent numerical bug in one of them shows up as a
//! disagreement here without anyone having to know the right answer in
//! advance.

use crate::report::OracleConfig;
use btfluid_des::{DesConfig, DesError, InvariantKind, SchemeKind, SimOutcome, Simulation};
use btfluid_harness::{run_batch, run_sweep, Budget, CellSpec, SupervisorConfig};
use btfluid_scenario::{
    des_avg_downloaders, fluid_avg_downloaders, runner, RateMode, ScenarioProgram,
};
use btfluid_telemetry::ScratchDir;
use std::time::Duration;

/// DES-vs-fluid tolerance: finite-size effects at `λ₀ = 0.25` leave the
/// simulated population within ~12% of the ODE mean (the same bound the
/// scenario crate's own transient test uses).
const DES_FLUID_REL_TOL: f64 = 0.12;

/// A shortened `paper_small` so quick-tier runs stay sub-second while the
/// swarm still reaches a few dozen concurrent peers.
fn short(scheme: SchemeKind, p: f64, seed: u64) -> Result<DesConfig, String> {
    let mut cfg = DesConfig::paper_small(scheme, p, seed).map_err(|e| e.to_string())?;
    cfg.horizon = 800.0;
    cfg.warmup = 200.0;
    cfg.drain = 800.0;
    Ok(cfg)
}

fn run(cfg: DesConfig) -> Result<SimOutcome, String> {
    Simulation::new(cfg)
        .map_err(|e| e.to_string())?
        .try_run()
        .map_err(|e| e.to_string())
}

/// The incremental rate cache against the forced full-recompute reference:
/// both must produce bit-identical user records — any divergence means the
/// dirty-tracking refresh missed an update.
pub fn full_vs_incremental(cfg: &OracleConfig) -> Result<String, String> {
    let schemes = [
        (SchemeKind::Mtsd, 0.5),
        (SchemeKind::Cmfsd { rho: 0.3 }, 0.6),
    ];
    let mut records = 0usize;
    for (i, &(scheme, p)) in schemes.iter().enumerate() {
        let incr = short(scheme, p, cfg.seed.wrapping_add(i as u64))?;
        let mut reference = Simulation::new(incr.clone()).map_err(|e| e.to_string())?;
        reference.force_full_recompute_for_test();
        let a = reference.try_run().map_err(|e| e.to_string())?;
        let b = run(incr)?;
        if a.events != b.events || a.arrivals != b.arrivals || a.records.len() != b.records.len() {
            return Err(format!(
                "{}: shape diverged (events {} vs {}, arrivals {} vs {}, records {} vs {})",
                scheme.name(),
                a.events,
                b.events,
                a.arrivals,
                b.arrivals,
                a.records.len(),
                b.records.len()
            ));
        }
        for (ra, rb) in a.records.iter().zip(&b.records) {
            if ra.online_fluid.to_bits() != rb.online_fluid.to_bits()
                || ra.download_span.to_bits() != rb.download_span.to_bits()
                || ra.departure.to_bits() != rb.departure.to_bits()
            {
                return Err(format!(
                    "{}: user {} records differ bitwise (online {} vs {})",
                    scheme.name(),
                    ra.id,
                    ra.online_fluid,
                    rb.online_fluid
                ));
            }
        }
        records += a.records.len();
    }
    Ok(format!(
        "2 schemes, full recompute vs incremental: {records} user records bit-identical"
    ))
}

/// A full `checked`-mode run: the per-event audit (rate finiteness, queue
/// consistency, cache-vs-recompute agreement) must stay silent end to end.
pub fn checked_run_is_clean(cfg: &OracleConfig) -> Result<String, String> {
    let mut des = short(
        SchemeKind::Cmfsd { rho: 0.5 },
        0.5,
        cfg.seed.wrapping_add(7),
    )?;
    des.checked = true;
    let outcome = run(des)?;
    Ok(format!(
        "checked CMFSD run clean over {} events, {} users",
        outcome.events,
        outcome.records.len()
    ))
}

/// The detector's own canary: seed a deliberate rate-cache corruption into
/// a live engine and confirm the audit *reports* it as
/// [`InvariantKind::RateCacheDrift`]. A passing oracle with a blind
/// detector would be worthless — this check fails if the corruption goes
/// unnoticed.
pub fn mutation_canary(cfg: &OracleConfig) -> Result<String, String> {
    let des = short(SchemeKind::Mtsd, 0.5, cfg.seed.wrapping_add(13))?;
    let mut sim = Simulation::new(des).map_err(|e| e.to_string())?;
    // Advance far enough that peers exist, then corrupt one cached rate.
    let mut steps = 0u32;
    while steps < 400 && sim.step().map_err(|e| e.to_string())? {
        steps += 1;
        if steps >= 50 && sim.corrupt_rate_cache_for_test() {
            return match sim.audit() {
                Err(DesError::Invariant {
                    kind: InvariantKind::RateCacheDrift,
                    t,
                    ..
                }) => Ok(format!(
                    "seeded corruption detected as rate-cache drift at t = {t:.1}"
                )),
                Err(other) => Err(format!("seeded corruption misclassified: {other}")),
                Ok(()) => Err("seeded rate-cache corruption went UNDETECTED by the audit".into()),
            };
        }
    }
    Err(format!(
        "no live peer to corrupt within {steps} events — canary could not run"
    ))
}

/// Aggregate scheduling is a different *sampling* of the same stochastic
/// model, so it cannot be compared record-by-record — but with the same
/// seed it must reproduce itself exactly. Two aggregate runs of one config
/// must be bit-identical, and the mode's counters must show it actually
/// engaged (group samples observed, zero per-peer recomputes).
pub fn aggregate_determinism(cfg: &OracleConfig) -> Result<String, String> {
    let mut des = short(
        SchemeKind::Cmfsd { rho: 0.5 },
        0.5,
        cfg.seed.wrapping_add(17),
    )?;
    des.aggregate = true;
    let runs = run_batch(vec![des.clone(), des]).map_err(|e| e.to_string())?;
    let ((a, counters), (b, _)) = (&runs[0], &runs[1]);
    let online = |o: &SimOutcome| o.avg_online_per_file().unwrap_or(f64::NAN);
    if a.events != b.events
        || a.records.len() != b.records.len()
        || online(a).to_bits() != online(b).to_bits()
    {
        return Err(format!(
            "same-seed aggregate runs diverged: events {} vs {}, users {} vs {}, online/file {} vs {}",
            a.events,
            b.events,
            a.records.len(),
            b.records.len(),
            online(a),
            online(b)
        ));
    }
    if counters.agg_samples == 0 {
        return Err("aggregate run drew no group samples — mode did not engage".into());
    }
    if counters.rate_recomputes != 0 {
        return Err(format!(
            "aggregate run performed {} per-peer rate recomputes — per-peer path leaked in",
            counters.rate_recomputes
        ));
    }
    Ok(format!(
        "2 same-seed aggregate runs bit-identical ({} events, {} users, {} group samples)",
        a.events,
        a.records.len(),
        counters.agg_samples
    ))
}

/// Distribution equivalence of the two scheduling modes: aggregate
/// replaces each peer's deterministic unit of residual work with an
/// exponential of the same mean, so per-user records differ but the
/// class-level *means* must agree. Pools several seeds per mode (sharded
/// across the thread pool) and compares the mean online time per file.
pub fn aggregate_vs_incremental_means(cfg: &OracleConfig) -> Result<String, String> {
    const SEEDS: u64 = 4;
    let schemes = [
        ("MTSD", SchemeKind::Mtsd, 0.5),
        ("CMFSD", SchemeKind::Cmfsd { rho: 0.5 }, 0.6),
    ];
    let mut details = Vec::new();
    for (name, scheme, p) in schemes {
        let mut cfgs = Vec::new();
        for s in 0..SEEDS {
            for aggregate in [false, true] {
                let mut des = short(scheme, p, cfg.seed.wrapping_add(31 + s))?;
                des.horizon = 1500.0;
                des.drain = 1500.0;
                des.aggregate = aggregate;
                cfgs.push(des);
            }
        }
        let runs = run_batch(cfgs).map_err(|e| e.to_string())?;
        // Pool user-weighted means per mode: runs alternate incremental,
        // aggregate.
        let pool = |aggregate: bool| -> (f64, usize) {
            let mut online = 0.0;
            let mut users = 0usize;
            for (o, _) in runs.iter().skip(usize::from(aggregate)).step_by(2) {
                if let Ok(avg) = o.avg_online_per_file() {
                    online += avg * o.records.len() as f64;
                    users += o.records.len();
                }
            }
            (online / users.max(1) as f64, users)
        };
        let (incr, n_incr) = pool(false);
        let (agg, n_agg) = pool(true);
        if n_incr == 0 || n_agg == 0 {
            return Err(format!("{name}: a mode produced no completed users"));
        }
        let rel = (agg - incr).abs() / incr.max(1e-9);
        if rel >= DES_FLUID_REL_TOL {
            return Err(format!(
                "{name}: aggregate online/file {agg:.2} vs incremental {incr:.2} \
                 (rel {rel:.3} ≥ {DES_FLUID_REL_TOL}, {n_agg}/{n_incr} users)"
            ));
        }
        details.push(format!("{name} {agg:.1}≈{incr:.1} (rel {rel:.3})"));
    }
    Ok(format!(
        "2 schemes × {SEEDS} seeds × 2 modes agree on mean online/file: {}",
        details.join(", ")
    ))
}

/// Processor-sharing insensitivity at fluid scale: the aggregate engine
/// replaces each download's deterministic unit of work with an exponential
/// of the same mean, and in a bandwidth-sharing network the time-averaged
/// *download* populations are insensitive to that substitution. Runs the
/// same stationary program MTCD in both scheduling modes (sharded in
/// parallel) and compares the total active (peer,file) download pairs.
///
/// Peer-level counts are deliberately *not* compared for concurrent
/// schemes: a peer departs at the max of its staggered completions, which
/// the exponential model inflates (see DESIGN.md §14) — the per-download
/// populations are the measure both modes must agree on.
pub fn aggregate_insensitivity(cfg: &OracleConfig) -> Result<String, String> {
    let program = ScenarioProgram::stationary("oracle-agg", 0.25, 0.4, 10, 4000.0, 800.0, 4000.0);
    let per = program
        .des_config(SchemeKind::Mtcd, cfg.seed)
        .map_err(|e| e.to_string())?;
    let mut agg = per.clone();
    agg.aggregate = true;
    let runs = run_batch(vec![per, agg]).map_err(|e| e.to_string())?;
    let pairs = |o: &SimOutcome| -> f64 {
        (1..=o.k())
            .map(|i| o.population.avg_download_pairs(i))
            .sum()
    };
    let (p, a) = (pairs(&runs[0].0), pairs(&runs[1].0));
    if runs[1].1.agg_samples == 0 {
        return Err("aggregate cell drew no group samples — mode did not engage".into());
    }
    let rel = (a - p).abs() / p.max(1e-9);
    if rel < DES_FLUID_REL_TOL {
        Ok(format!(
            "MTCD download pairs: aggregate {a:.1} vs per-peer {p:.1} (rel {rel:.4} < {DES_FLUID_REL_TOL})"
        ))
    } else {
        Err(format!(
            "MTCD download pairs: aggregate {a:.1} vs per-peer {p:.1} (rel {rel:.4} ≥ {DES_FLUID_REL_TOL})"
        ))
    }
}

/// DES against the transient fluid ODE on a stationary program: the
/// time-averaged downloading population must agree within
/// `DES_FLUID_REL_TOL` (12%).
pub fn des_vs_fluid_transient(cfg: &OracleConfig) -> Result<String, String> {
    let program = ScenarioProgram::stationary("oracle-fluid", 0.25, 0.4, 10, 4000.0, 800.0, 4000.0);
    let run = runner::run_one(
        &program,
        SchemeKind::Mtcd,
        None,
        "MTCD",
        cfg.seed,
        RateMode::Incremental,
    )
    .map_err(|e| e.to_string())?;
    let des = des_avg_downloaders(&run.outcome);
    let fluid = fluid_avg_downloaders(&program, 0.5).map_err(|e| e.to_string())?;
    let rel = (des - fluid).abs() / fluid.max(1e-9);
    if rel < DES_FLUID_REL_TOL {
        Ok(format!(
            "DES {des:.2} vs ODE {fluid:.2} downloading users (rel {rel:.3} < {DES_FLUID_REL_TOL})"
        ))
    } else {
        Err(format!(
            "DES {des:.2} vs ODE {fluid:.2} downloading users (rel {rel:.3} ≥ {DES_FLUID_REL_TOL})"
        ))
    }
}

/// All four schemes as parallel cells under the crash-safe harness
/// supervisor: every cell must complete (none quarantined), produce users,
/// and report a finite per-file online time. Exercises the supervisor's
/// manifest/bundle machinery on a throwaway directory as a side effect.
pub fn supervised_scheme_cells(cfg: &OracleConfig) -> Result<String, String> {
    let dir = ScratchDir::new("oracle-sweep").map_err(|e| format!("temp dir: {e}"))?;

    let schemes = [
        ("mtsd", SchemeKind::Mtsd),
        ("mtcd", SchemeKind::Mtcd),
        ("mfcd", SchemeKind::Mfcd),
        ("cmfsd", SchemeKind::Cmfsd { rho: 0.3 }),
    ];
    let mut cells = Vec::new();
    for (i, (name, scheme)) in schemes.iter().enumerate() {
        cells.push(CellSpec {
            id: format!("oracle-{name}"),
            cfg: short(*scheme, 0.5, cfg.seed.wrapping_add(i as u64))?,
            scenario: None,
            inject_panic_at: None,
        });
    }
    let sup = SupervisorConfig {
        manifest: dir.join("manifest.jsonl"),
        bundle_dir: dir.join("bundles"),
        budget: Budget {
            max_events: None,
            max_wall: Some(Duration::from_secs(120)),
        },
        max_retries: 0,
        backoff: Duration::from_millis(10),
        workers: 4,
        resume: false,
        checkpoint_every: 5000,
    };
    let report = run_sweep(&sup, cells).map_err(|e| e.to_string())?;
    if !report.all_done() {
        let failed: Vec<&str> = report.failed.iter().map(|f| f.id.as_str()).collect();
        return Err(format!("cells quarantined: {failed:?}"));
    }
    let mut events = 0u64;
    for cell in &report.completed {
        if cell.completed == 0 {
            return Err(format!("{}: no users completed", cell.id));
        }
        match cell.avg_online_per_file {
            Some(v) if v.is_finite() && v > 0.0 => {}
            other => return Err(format!("{}: bad online/file {other:?}", cell.id)),
        }
        events += cell.events;
    }
    Ok(format!(
        "4 scheme cells supervised to completion ({events} events total)"
    ))
}

/// DES against the closed-form steady state: MTSD's per-file online time
/// is exactly 80 in the fluid limit; the finite simulation must land
/// within the same finite-size band the fluid comparison allows.
pub fn des_vs_closed_form_mtsd(cfg: &OracleConfig) -> Result<String, String> {
    let des = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, cfg.seed.wrapping_add(29))
        .map_err(|e| e.to_string())?;
    let outcome = run(des)?;
    let avg = outcome.avg_online_per_file().map_err(|e| e.to_string())?;
    let rel = (avg - 80.0).abs() / 80.0;
    if rel < DES_FLUID_REL_TOL {
        Ok(format!(
            "DES MTSD online/file {avg:.2} vs closed-form 80 (rel {rel:.3}, {} users)",
            outcome.records.len()
        ))
    } else {
        Err(format!(
            "DES MTSD online/file {avg:.2} vs closed-form 80 (rel {rel:.3} ≥ {DES_FLUID_REL_TOL})"
        ))
    }
}

/// Hybrid engine against pure aggregate DES on the acceptance-criteria
/// workload: flash_crowd amplified to λ₀ = 2048 on a compressed axis, for
/// both schemes with scheduled fluid models. Per-class downloading-user
/// means must agree within the hybrid run's own declared tolerance
/// wherever the class population reaches the CLT regime the tolerance
/// model assumes (mean ≥ 1/tol², the same bound that sets the switching
/// threshold — below it a single DES realization legitimately fluctuates
/// by more than `tol`), and so must the totals. The hybrid must also
/// dispatch at most a tenth of the pure DES's events.
pub fn hybrid_vs_des(cfg: &OracleConfig) -> Result<String, String> {
    use btfluid_hybrid::{HybridConfig, HybridRunner};

    const TOL: f64 = 0.1;
    const MIN_MEAN: f64 = 1.0 / (TOL * TOL);
    let program = btfluid_hybrid::amplified_flash_crowd(2048.0, 0.005);
    let mut evidence = Vec::new();
    for scheme in [SchemeKind::Mtcd, SchemeKind::Mtsd] {
        let hybrid = HybridRunner::run(HybridConfig {
            program: program.clone(),
            scheme,
            seed: cfg.seed.wrapping_add(37),
            tol: TOL,
            aggregate: true,
        })
        .map_err(|e| e.to_string())?;

        let mut des_cfg = program
            .des_config(scheme, cfg.seed.wrapping_add(37))
            .map_err(|e| e.to_string())?;
        des_cfg.aggregate = true;
        des_cfg.drain = 0.0;
        des_cfg.record_every = None;
        des_cfg.validate().map_err(|e| e.to_string())?;
        let sim =
            Simulation::with_hook(des_cfg, Box::new(program.hook())).map_err(|e| e.to_string())?;
        let outcome = sim.try_run().map_err(|e| e.to_string())?;

        let mut compared = 0usize;
        let mut worst = 0.0f64;
        for class in 1..=outcome.k() {
            let des_mean = outcome.population.avg_downloader_peers(class);
            let hy_mean = hybrid.class_means[class - 1];
            if des_mean < MIN_MEAN {
                continue;
            }
            compared += 1;
            let rel = (hy_mean - des_mean).abs() / des_mean;
            worst = worst.max(rel);
            if rel > TOL {
                return Err(format!(
                    "{} class {class}: hybrid {hy_mean:.2} vs DES {des_mean:.2} \
                     downloading users (rel {rel:.3} > tol {TOL})",
                    scheme.name()
                ));
            }
        }
        if compared < 3 {
            return Err(format!(
                "{}: only {compared} classes populated enough to compare",
                scheme.name()
            ));
        }
        let des_total: f64 = (1..=outcome.k())
            .map(|i| outcome.population.avg_downloader_peers(i))
            .sum();
        let hy_total = hybrid.total_mean();
        let rel_total = (hy_total - des_total).abs() / des_total.max(1e-9);
        if rel_total > TOL {
            return Err(format!(
                "{} total: hybrid {hy_total:.1} vs DES {des_total:.1} (rel {rel_total:.3} > {TOL})",
                scheme.name()
            ));
        }
        // The hybrid's win is event count: above the fluid threshold the
        // ODE replaces the event stream.
        if hybrid.des_events * 10 > outcome.events {
            return Err(format!(
                "{}: hybrid dispatched {} DES events vs {} pure (claim is ≤ 1/10)",
                scheme.name(),
                hybrid.des_events,
                outcome.events
            ));
        }
        evidence.push(format!(
            "{}: total {hy_total:.0} vs {des_total:.0} (rel {rel_total:.3}), \
             {compared} classes worst rel {worst:.3}, {} handoffs, \
             {} DES events vs {} pure",
            scheme.name(),
            hybrid.handoffs.len(),
            hybrid.des_events,
            outcome.events,
        ));
    }
    Ok(format!("tol {TOL}: {}", evidence.join("; ")))
}

/// Fit closure over the trace pipeline (DESIGN.md §18): generate a long
/// stationary trace at known `(λ₀, p)`, recover both by moment matching
/// (within 5%), synthesize a fresh trace from the *fitted* model through
/// the shaper, and refit (again within 5% of the first fit). Then replay
/// a shorter trace into the MTCD DES and check the downloading-user
/// population against the schedule-adapted fluid ODE driven by the same
/// trace (within the usual finite-size tolerance).
pub fn trace_fit_closure(cfg: &OracleConfig) -> Result<String, String> {
    use btfluid_numkit::rng::Xoshiro256StarStar;
    use btfluid_scenario::{trace_program, TraceHook, TraceShaper};
    use btfluid_workload::{fit_model, ArrivalTrace, CorrelationModel};

    const REL_TOL: f64 = 0.05;
    let (lambda0, p, k) = (0.25, 0.4, 10u32);
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);

    // Stage 1: fit a long generated trace.
    let model = CorrelationModel::new(k, p, lambda0).map_err(|e| e.to_string())?;
    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 43);
    // 60k time units ≈ 15k arrivals: rate noise ~0.8%, far inside the 5%
    // gate, so a pass/fail flip needs a real estimator bug, not an
    // unlucky draw.
    let long = ArrivalTrace::generate(&model, 60_000.0, &mut rng).map_err(|e| e.to_string())?;
    let fit = fit_model(&long).map_err(|e| e.to_string())?;
    if rel(fit.p(), p) > REL_TOL || rel(fit.lambda0(), lambda0) > REL_TOL {
        return Err(format!(
            "fit missed the generating law: p̂ = {:.4} (true {p}), λ̂₀ = {:.4} (true {lambda0})",
            fit.p(),
            fit.lambda0()
        ));
    }

    // Stage 2: synthesize from the fitted model and refit — the closure.
    let shaper = TraceShaper::flat(fit.lambda0(), fit.p(), k, 60_000.0);
    let synth = shaper.synthesize(&mut rng).map_err(|e| e.to_string())?;
    let refit = fit_model(&synth).map_err(|e| e.to_string())?;
    if rel(refit.p(), fit.p()) > REL_TOL || rel(refit.lambda0(), fit.lambda0()) > REL_TOL {
        return Err(format!(
            "refit drifted: p̂ {:.4} → {:.4}, λ̂₀ {:.4} → {:.4}",
            fit.p(),
            refit.p(),
            fit.lambda0(),
            refit.lambda0()
        ));
    }

    // Stage 3: replay a shorter trace into the DES and compare the
    // downloading-user population with the trace-driven fluid schedule.
    let mut rng = Xoshiro256StarStar::stream(cfg.seed, 44);
    let short = ArrivalTrace::generate(&model, 3000.0, &mut rng).map_err(|e| e.to_string())?;
    let program = trace_program(&short, 8, 750.0).map_err(|e| e.to_string())?;
    let des_cfg = program
        .des_config(SchemeKind::Mtcd, cfg.seed)
        .map_err(|e| e.to_string())?;
    let hook = TraceHook::new(&short).map_err(|e| e.to_string())?;
    let outcome = Simulation::with_hook(des_cfg, Box::new(hook))
        .map_err(|e| e.to_string())?
        .run();
    if outcome.arrivals != short.len() {
        return Err(format!(
            "replay admitted {} of {} recorded arrivals",
            outcome.arrivals,
            short.len()
        ));
    }
    let des = des_avg_downloaders(&outcome);
    let fluid = fluid_avg_downloaders(&program, 0.5).map_err(|e| e.to_string())?;
    let err = (des - fluid).abs() / fluid.max(1e-9);
    if err > DES_FLUID_REL_TOL {
        return Err(format!(
            "trace-driven DES {des:.2} downloading users vs scheduled fluid {fluid:.2} \
             (rel {err:.3} > {DES_FLUID_REL_TOL})"
        ));
    }
    Ok(format!(
        "fit p̂ = {:.4}, λ̂₀ = {:.4}; refit p̂ = {:.4}, λ̂₀ = {:.4} (tol {REL_TOL}); \
         replay DES {des:.2} vs fluid {fluid:.2} downloading users (rel {err:.3})",
        fit.p(),
        fit.lambda0(),
        refit.p(),
        refit.lambda0()
    ))
}
