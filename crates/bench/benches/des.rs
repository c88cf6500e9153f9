//! Criterion bench for the discrete-event simulator engine and the
//! fluid-vs-simulation validation experiment (X3), plus the `des_scale`
//! scaling study comparing the forced full-recompute baseline, the
//! incremental rate engine, and the class-aggregated completion engine
//! (written to `BENCH_des.json`).

use btfluid_bench::validate::{run as validate, ValidateConfig};
use btfluid_des::{DesConfig, SchemeKind, Simulation};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// True when `BTFLUID_AGG_SMOKE=1`: the CI aggregate-smoke job wants the
/// `des_scale` guards and nothing else from this bench target — the
/// multi-second checkpoint/telemetry studies (the latter with a
/// machine-noise-sensitive overhead guard) would dominate its wall budget.
fn agg_smoke_only() -> bool {
    std::env::var_os("BTFLUID_AGG_SMOKE").is_some()
}

/// True when `BTFLUID_HYBRID_SMOKE=1`: the CI hybrid-smoke job wants the
/// `hybrid_scale` speedup guard and nothing else.
fn hybrid_smoke_only() -> bool {
    std::env::var_os("BTFLUID_HYBRID_SMOKE").is_some()
}

/// True when either CI smoke job is driving this target: every bench not
/// belonging to that job stays silent.
fn smoke_only() -> bool {
    agg_smoke_only() || hybrid_smoke_only()
}

fn bench_engine(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let mut group = c.benchmark_group("des");
    group.sample_size(10);
    for (name, scheme) in [
        ("mtsd", SchemeKind::Mtsd),
        ("mtcd", SchemeKind::Mtcd),
        ("cmfsd", SchemeKind::Cmfsd { rho: 0.3 }),
    ] {
        group.bench_function(&format!("engine_{name}_2000tu"), |b| {
            b.iter(|| {
                let mut cfg = DesConfig::paper_small(scheme, 0.5, 7).expect("valid");
                cfg.horizon = 2000.0;
                cfg.warmup = 500.0;
                cfg.drain = 2000.0;
                black_box(Simulation::new(cfg).expect("valid").run())
            })
        });
    }
    group.finish();
}

fn bench_validation(c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    // Print the X3 comparison once for the record.
    let cfg = ValidateConfig {
        replications: 2,
        horizon: 3000.0,
        warmup: 800.0,
        ..Default::default()
    };
    let r = validate(&cfg).expect("validation runs");
    println!("\n{}", r.table().render());

    let mut group = c.benchmark_group("des");
    group.sample_size(10);
    group.bench_function("validate_x3_small", |b| {
        let cfg = ValidateConfig {
            schemes: vec![SchemeKind::Mtsd],
            replications: 1,
            horizon: 1500.0,
            warmup: 400.0,
            ..Default::default()
        };
        b.iter(|| black_box(validate(&cfg).expect("runs")))
    });
    group.finish();
}

/// One sizing point of the scaling study: the horizon shrinks as `λ₀`
/// grows so every point dispatches a comparable number of events while the
/// concurrent population — the thing the per-event cost depends on —
/// spans three orders of magnitude. The exact (full-recompute) baseline is
/// only timed up to λ₀ = 128; beyond that it would take minutes per point
/// for no information the 2–128 trend doesn't already carry.
const SCALE_POINTS: [(f64, f64, f64, f64); 6] = [
    // (λ₀, horizon, warmup, drain)
    (2.0, 600.0, 150.0, 300.0),
    (8.0, 300.0, 75.0, 150.0),
    (32.0, 150.0, 40.0, 80.0),
    (128.0, 80.0, 20.0, 40.0),
    (512.0, 40.0, 10.0, 20.0),
    (2048.0, 20.0, 5.0, 10.0),
];

/// Largest point at which the exact baseline is still timed.
const EXACT_MAX_LAMBDA0: f64 = 128.0;

fn scale_config(lambda0: f64, horizon: f64, warmup: f64, drain: f64) -> DesConfig {
    let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 7).expect("valid");
    cfg.model = btfluid_workload::CorrelationModel::new(10, 0.5, lambda0).expect("valid");
    cfg.horizon = horizon;
    cfg.warmup = warmup;
    cfg.drain = drain;
    cfg.origin_seeds = 1;
    cfg
}

/// Times one run and returns `(wall seconds, events dispatched)`.
fn time_run(cfg: DesConfig) -> (f64, u64) {
    time_sim(Simulation::new(cfg).expect("valid"))
}

/// Times one run of the forced-full-recompute reference (bit-identical
/// to the incremental run, O(peers) per event).
fn time_exact(cfg: DesConfig) -> (f64, u64) {
    let mut sim = Simulation::new(cfg).expect("valid");
    sim.force_full_recompute_for_test();
    time_sim(sim)
}

fn time_sim(sim: Simulation) -> (f64, u64) {
    let start = Instant::now();
    let outcome = black_box(sim.run());
    (start.elapsed().as_secs_f64(), outcome.events)
}

/// Times one aggregate-mode run at a scale point.
fn time_agg(lambda0: f64, horizon: f64, warmup: f64, drain: f64) -> (f64, u64) {
    let mut cfg = scale_config(lambda0, horizon, warmup, drain);
    cfg.aggregate = true;
    time_run(cfg)
}

/// Scaling study: events/sec of the three scheduling modes — the forced
/// full-recompute baseline (up to λ₀ = 128), the incremental rate cache,
/// and the class-aggregated completion engine — at
/// λ₀ ∈ {2, 8, 32, 128, 512, 2048}, written to `BENCH_des.json` at the
/// repository root. The criterion group samples the incremental engine up
/// to λ₀ = 128; everything else is timed once per point (the exact
/// baseline is an order of magnitude slower already at λ₀ = 128 —
/// sampling it ten times would dominate the bench for no information).
///
/// Two guards make the scaling claims regressions instead of prose: the
/// aggregate engine must be ≥ 5× the incremental one at λ₀ = 128, and its
/// per-event cost must stay flat — ev/s at λ₀ = 512 within 2× of
/// λ₀ = 32. Setting `BTFLUID_AGG_SMOKE=1` (the CI job does) runs only
/// those two guards on one-shot timings, skips the JSON artifact, and
/// silences every other bench in this target (see [`agg_smoke_only`]).
fn bench_des_scale(c: &mut Criterion) {
    let test_mode = std::env::args().any(|a| a == "--test");
    let agg_smoke = std::env::var_os("BTFLUID_AGG_SMOKE").is_some();

    if agg_smoke {
        agg_smoke_guards();
        return;
    }
    if hybrid_smoke_only() {
        return;
    }

    let mut group = c.benchmark_group("des_scale");
    group.sample_size(10);
    for &(lambda0, horizon, warmup, drain) in &SCALE_POINTS {
        if (test_mode && lambda0 > 8.0) || lambda0 > EXACT_MAX_LAMBDA0 {
            continue; // keep `cargo test --benches` and criterion sampling fast
        }
        group.bench_function(&format!("incremental_lambda{lambda0}"), |b| {
            b.iter(|| {
                let cfg = scale_config(lambda0, horizon, warmup, drain);
                black_box(Simulation::new(cfg).expect("valid").run())
            })
        });
    }
    group.finish();

    if test_mode {
        // Smoke-check the modes on the smallest point; skip the artifact.
        let (lambda0, horizon, warmup, drain) = SCALE_POINTS[0];
        let (_, exact_events) = time_exact(scale_config(lambda0, horizon, warmup, drain));
        let (_, incr_events) = time_run(scale_config(lambda0, horizon, warmup, drain));
        assert_eq!(
            exact_events, incr_events,
            "modes dispatched different events"
        );
        let (_, agg_events) = time_agg(lambda0, horizon, warmup, drain);
        assert!(agg_events > 0, "aggregate mode dispatched no events");
        return;
    }

    let mut rows = Vec::new();
    let mut speedup_at_128 = 0.0;
    let mut agg_speedup_at_128 = 0.0;
    let mut agg_eps_at_32 = 0.0;
    let mut agg_eps_at_512 = 0.0;
    for &(lambda0, horizon, warmup, drain) in &SCALE_POINTS {
        let (incr_s, incr_events) = time_run(scale_config(lambda0, horizon, warmup, drain));
        let incr_eps = incr_events as f64 / incr_s;
        let (agg_s, agg_events) = time_agg(lambda0, horizon, warmup, drain);
        let agg_eps = agg_events as f64 / agg_s;
        let agg_speedup = agg_eps / incr_eps;

        // The exact baseline (where affordable): bit-identical to the
        // incremental path, so the event counts must match.
        let exact_json = if lambda0 <= EXACT_MAX_LAMBDA0 {
            let (exact_s, exact_events) = time_exact(scale_config(lambda0, horizon, warmup, drain));
            assert_eq!(
                exact_events, incr_events,
                "modes dispatched different events"
            );
            let exact_eps = exact_events as f64 / exact_s;
            let speedup = incr_eps / exact_eps;
            if lambda0 == 128.0 {
                speedup_at_128 = speedup;
            }
            println!(
                "des_scale λ₀={lambda0}: exact {exact_s:.3}s ({exact_eps:.0} ev/s), \
                 incremental speedup {speedup:.1}×"
            );
            format!(
                "\"exact\": {{\"wall_s\": {exact_s:.6}, \"events_per_s\": {exact_eps:.1}}}, \
                 \"speedup\": {speedup:.3}, "
            )
        } else {
            String::new()
        };

        if lambda0 == 128.0 {
            agg_speedup_at_128 = agg_speedup;
        }
        if lambda0 == 32.0 {
            agg_eps_at_32 = agg_eps;
        }
        if lambda0 == 512.0 {
            agg_eps_at_512 = agg_eps;
        }
        println!(
            "des_scale λ₀={lambda0}: incremental {incr_s:.3}s ({incr_eps:.0} ev/s, \
             {incr_events} events), aggregate {agg_s:.3}s ({agg_eps:.0} ev/s, \
             {agg_events} events), aggregate speedup {agg_speedup:.1}×"
        );
        rows.push(format!(
            "    {{\"lambda0\": {lambda0}, \"horizon\": {horizon}, \"events\": {incr_events}, \
             {exact_json}\
             \"incremental\": {{\"wall_s\": {incr_s:.6}, \"events_per_s\": {incr_eps:.1}}}, \
             \"aggregate\": {{\"wall_s\": {agg_s:.6}, \"events\": {agg_events}, \
             \"events_per_s\": {agg_eps:.1}}}, \
             \"aggregate_speedup\": {agg_speedup:.3}}}"
        ));
    }
    let flatness = agg_eps_at_512 / agg_eps_at_32;
    println!(
        "des_scale: aggregate speedup at λ₀=128 {agg_speedup_at_128:.1}×, \
         flatness 512/32 {flatness:.2}"
    );
    assert!(
        agg_speedup_at_128 >= 5.0,
        "aggregate engine only {agg_speedup_at_128:.2}× over incremental at λ₀ = 128 \
         (claim is ≥ 5×)"
    );
    assert!(
        flatness >= 0.5,
        "aggregate ev/s fell to {flatness:.2}× between λ₀ = 32 and λ₀ = 512 \
         (claim is flat within 2×)"
    );
    let json = format!(
        "{{\n  \"bench\": \"des_scale\",\n  \"scheme\": \"MTSD\",\n  \"p\": 0.5,\n  \
         \"origin_seeds\": 1,\n  \"points\": [\n{}\n  ],\n  \
         \"speedup_at_lambda0_128\": {speedup_at_128:.3},\n  \
         \"aggregate_speedup_at_lambda0_128\": {agg_speedup_at_128:.3},\n  \
         \"aggregate_flatness_512_over_32\": {flatness:.3}\n}}\n",
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    std::fs::write(path, json).expect("write BENCH_des.json");
    println!("wrote {path}");
}

/// The CI smoke: one-shot timings of the two aggregate scaling guards
/// (≥ 5× over incremental at λ₀ = 128, flat ev/s from λ₀ = 32 to 512),
/// fast enough for a wall-time-budgeted job.
fn agg_smoke_guards() {
    let (incr_s, incr_events) = time_run(scale_config(128.0, 80.0, 20.0, 40.0));
    let (agg128_s, agg128_events) = time_agg(128.0, 80.0, 20.0, 40.0);
    let incr_eps = incr_events as f64 / incr_s;
    let agg128_eps = agg128_events as f64 / agg128_s;
    let speedup = agg128_eps / incr_eps;

    let (agg32_s, agg32_events) = time_agg(32.0, 150.0, 40.0, 80.0);
    let (agg512_s, agg512_events) = time_agg(512.0, 40.0, 10.0, 20.0);
    let agg32_eps = agg32_events as f64 / agg32_s;
    let agg512_eps = agg512_events as f64 / agg512_s;
    let flatness = agg512_eps / agg32_eps;

    println!(
        "agg_smoke λ₀=128: incremental {incr_eps:.0} ev/s, aggregate {agg128_eps:.0} ev/s \
         ({speedup:.1}×); flatness 512/32 {flatness:.2} \
         ({agg32_eps:.0} → {agg512_eps:.0} ev/s)"
    );
    assert!(
        speedup >= 5.0,
        "aggregate engine only {speedup:.2}× over incremental at λ₀ = 128 (claim is ≥ 5×)"
    );
    assert!(
        flatness >= 0.5,
        "aggregate ev/s fell to {flatness:.2}× between λ₀ = 32 and λ₀ = 512 \
         (claim is flat within 2×)"
    );
}

/// Checkpoint-overhead guard: the crash-safe driver with checkpointing
/// disabled must cost ~nothing over `Simulation::run` — they are the same
/// loop (`while step {}; finish`), asserted here by event-count equality
/// and a loose wall-clock guard — and a coarse on-disk cadence
/// (5 snapshots per run) must cost < 3%.
///
/// End-to-end wall clocks on a shared machine are too noisy to resolve a
/// percent-level effect (repeated identical runs here spread ±15%), so
/// the cadence overhead is derived from the directly-measured
/// per-checkpoint cost: `snapshot() + write_file()` timed at the *end* of
/// a finished run, where the accumulated statistics make the snapshot
/// largest — an upper bound for every earlier checkpoint. Recorded under
/// `"checkpoint_overhead"` in `BENCH_des.json`.
fn bench_checkpoint_overhead(_c: &mut Criterion) {
    if smoke_only() {
        return;
    }
    let test_mode = std::env::args().any(|a| a == "--test");
    // Non-test mode runs a long horizon: checkpoint cost is a fixed price
    // per snapshot (clone + serialize + atomic write), so the percentage
    // is only meaningful on a run long enough to amortize a coarse cadence.
    let (lambda0, horizon, warmup, drain) = if test_mode {
        SCALE_POINTS[0]
    } else {
        (8.0, 1200.0, 150.0, 600.0)
    };
    let cfg = || scale_config(lambda0, horizon, warmup, drain);
    let reps = if test_mode { 1 } else { 5 };

    let drive_events = |plan: Option<&btfluid_harness::CheckpointPlan>| {
        let report = btfluid_harness::drive(
            cfg(),
            None,
            plan,
            false,
            &btfluid_harness::RunLimits::default(),
            None,
            None,
            None,
        )
        .expect("drive runs");
        report.events
    };

    // Interleave plain/driver reps so machine-load drift hits both alike;
    // keep the minimum (least noisy statistic for a deterministic run).
    let mut base_s = f64::INFINITY;
    let mut disabled_s = f64::INFINITY;
    let mut base_events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        base_events = Simulation::new(cfg()).expect("valid").run().events;
        base_s = base_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let disabled_events = drive_events(None);
        disabled_s = disabled_s.min(start.elapsed().as_secs_f64());
        assert_eq!(
            base_events, disabled_events,
            "driver dispatched different events than Simulation::run"
        );
    }

    // Per-checkpoint cost at the end-of-run state (largest snapshot).
    let dir = std::env::temp_dir().join("btfluid_bench_checkpoint");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let cp = dir.join("cp.snap");
    let mut sim = Simulation::new(cfg()).expect("valid");
    while sim.step().expect("step") {}
    let mut ckpt_s = f64::INFINITY;
    let mut snap_bytes = 0;
    for _ in 0..reps.max(3) {
        let start = Instant::now();
        let snap = sim.snapshot();
        snap.write_file(&cp).expect("write checkpoint");
        ckpt_s = ckpt_s.min(start.elapsed().as_secs_f64());
        snap_bytes = snap.to_bytes().len();
    }

    // One end-to-end coarse run for the record (noisy; not the guard).
    let plan = btfluid_harness::CheckpointPlan {
        path: Some(cp.clone()),
        every_events: (base_events / 5).max(1),
        retry: btfluid_harness::RetryPolicy::default(),
    };
    let start = Instant::now();
    let coarse_events = drive_events(Some(&plan));
    let coarse_s = start.elapsed().as_secs_f64();
    assert_eq!(base_events, coarse_events, "checkpointing changed the run");
    let _ = std::fs::remove_dir_all(&dir);

    let disabled_pct = (disabled_s / base_s - 1.0) * 100.0;
    let coarse_pct = 5.0 * ckpt_s / disabled_s * 100.0;
    println!(
        "checkpoint_overhead λ₀={lambda0}: {base_events} events — plain {base_s:.3}s, \
         driver/no-checkpoint {disabled_s:.3}s ({disabled_pct:+.1}%), \
         per-checkpoint {:.1}ms ({snap_bytes} bytes) → 5-snapshot cadence \
         {coarse_pct:+.2}% (end-to-end coarse run {coarse_s:.3}s)",
        ckpt_s * 1e3
    );
    if test_mode {
        // One rep of a ~50ms run can't resolve percent-level overheads;
        // the event-count equalities above are the smoke check. The
        // guards below run on the full bench.
        return;
    }
    // Same code path; anything past noise means the driver grew real
    // per-event work.
    assert!(
        disabled_pct < 25.0,
        "checkpointing-disabled driver overhead {disabled_pct:.1}% blew the guard"
    );
    assert!(
        coarse_pct < 3.0,
        "coarse checkpointing overhead {coarse_pct:.2}% blew the 3% guard"
    );

    // Merge into BENCH_des.json (bench_des_scale wrote it just before us).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    let body = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".into());
    let trimmed = body.trim_end();
    let head = trimmed
        .strip_suffix('}')
        .expect("BENCH_des.json ends with an object")
        .trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    let merged = format!(
        "{head}{sep}\n  \"checkpoint_overhead\": {{\"lambda0\": {lambda0}, \
         \"events\": {base_events}, \"snapshots\": 5, \
         \"plain_wall_s\": {base_s:.6}, \"driver_wall_s\": {disabled_s:.6}, \
         \"driver_overhead_pct\": {disabled_pct:.2}, \
         \"snapshot_bytes\": {snap_bytes}, \"per_checkpoint_s\": {ckpt_s:.6}, \
         \"coarse_cadence_overhead_pct\": {coarse_pct:.3}, \
         \"coarse_end_to_end_wall_s\": {coarse_s:.6}}}\n}}\n"
    );
    std::fs::write(path, merged).expect("write BENCH_des.json");
    println!("updated {path} with checkpoint_overhead");
}

/// Fault-injector seam guard: with the injector disarmed (the normal
/// state), every seam consultation is one relaxed atomic load, and the
/// run must stay within 1% of a des_scale run. Shared-machine wall
/// clocks can't resolve sub-percent effects (repeated identical runs
/// spread ±15%), so the guard is arithmetic: micro-time the disarmed
/// `write_plan` consult, then bound the *worst imaginable* seam traffic
/// — one consult per dispatched event, vastly more than the real
/// per-checkpoint-write rate — against the run's measured wall time.
/// Recorded under `"injector_overhead"` in `BENCH_des.json`.
fn bench_injector_overhead(_c: &mut Criterion) {
    use btfluid_telemetry::faults::{self, FaultSite, WritePlan};
    if smoke_only() {
        return;
    }
    let test_mode = std::env::args().any(|a| a == "--test");
    let (lambda0, horizon, warmup, drain) = if test_mode {
        SCALE_POINTS[0]
    } else {
        (8.0, 1200.0, 150.0, 600.0)
    };

    assert!(!faults::armed(), "bench requires a disarmed injector");
    // Micro-time the disarmed consult (and pin its answer).
    let consults = 1_000_000u64;
    let start = Instant::now();
    for _ in 0..consults {
        let plan = std::hint::black_box(faults::write_plan(FaultSite::CheckpointWrite, 1024));
        assert!(
            matches!(plan, WritePlan::Full),
            "disarmed injector must plan a full write"
        );
    }
    let per_consult_s = start.elapsed().as_secs_f64() / consults as f64;

    // A real des_scale run for the denominator (with the seam live on its
    // checkpoint path, as in production).
    let start = Instant::now();
    let events = Simulation::new(scale_config(lambda0, horizon, warmup, drain))
        .expect("valid")
        .run()
        .events;
    let wall_s = start.elapsed().as_secs_f64();

    let bound_pct = per_consult_s * events as f64 / wall_s * 100.0;
    println!(
        "injector_overhead λ₀={lambda0}: disarmed consult {:.1}ns; {events} events in \
         {wall_s:.3}s → even one consult per event bounds overhead at {bound_pct:.4}% \
         (real traffic is per checkpoint write, orders of magnitude rarer)",
        per_consult_s * 1e9
    );
    assert!(
        bound_pct < 1.0,
        "disarmed-injector overhead bound {bound_pct:.4}% blew the 1% guard"
    );
    if test_mode {
        return;
    }

    // Merge into BENCH_des.json (checkpoint_overhead wrote it just before us).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    let body = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".into());
    let trimmed = body.trim_end();
    let head = trimmed
        .strip_suffix('}')
        .expect("BENCH_des.json ends with an object")
        .trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    let merged = format!(
        "{head}{sep}\n  \"injector_overhead\": {{\"lambda0\": {lambda0}, \
         \"events\": {events}, \"per_consult_ns\": {:.2}, \
         \"run_wall_s\": {wall_s:.6}, \
         \"per_event_bound_pct\": {bound_pct:.4}}}\n}}\n",
        per_consult_s * 1e9
    );
    std::fs::write(path, merged).expect("write BENCH_des.json");
    println!("updated {path} with injector_overhead");
}

/// Median of a sample set, plus its (min, max) spread. Interleaved reps
/// of identical deterministic work differ only by machine-load noise;
/// the per-variant *minimum* used previously is a biased order statistic
/// of that noise (whichever variant got lucky once wins, which is how a
/// "-7.9% overhead" landed in the artifact), so the guards and the
/// recorded numbers now use the median and publish the spread so the
/// perf observatory can see run quality.
fn median_spread(samples: &mut [f64]) -> (f64, f64, f64) {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    };
    (median, samples[0], samples[n - 1])
}

/// Telemetry-overhead guard: with a no-op probe attached the engine must
/// stay within 2% of the bare run (the issue's budget for "zero overhead
/// when disabled"), full JSONL tracing at the default cadence within
/// 10%, and the flight recorder — which rings every event pop — within
/// 15%. Bare/no-op/traced/flight reps are interleaved and the
/// per-variant *median* kept (see [`median_spread`]). Recorded under
/// `"telemetry_overhead"` in `BENCH_des.json` with min/max spreads.
fn bench_telemetry_overhead(_c: &mut Criterion) {
    use btfluid_des::{shared_recorder, NoopProbe, RecorderProbe, SinkProbe, TraceSink};
    use btfluid_telemetry::{DEFAULT_FLIGHT_CAPACITY, DEFAULT_SAMPLE_EVERY};

    if smoke_only() {
        return;
    }
    let test_mode = std::env::args().any(|a| a == "--test");
    let (lambda0, horizon, warmup, drain) = if test_mode {
        SCALE_POINTS[0]
    } else {
        SCALE_POINTS[2] // λ₀ = 32: large enough population to resolve %
    };
    let cfg = || scale_config(lambda0, horizon, warmup, drain);
    let reps = if test_mode { 1 } else { 9 };

    let dir = std::env::temp_dir().join("btfluid_bench_telemetry");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let trace = dir.join("overhead.jsonl");

    let mut bare_samples = Vec::with_capacity(reps);
    let mut noop_samples = Vec::with_capacity(reps);
    let mut sink_samples = Vec::with_capacity(reps);
    let mut flight_samples = Vec::with_capacity(reps);
    let mut bare_events = 0;
    let mut trace_lines = 0;
    let mut flight_total = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        bare_events = Simulation::new(cfg()).expect("valid").run().events;
        bare_samples.push(start.elapsed().as_secs_f64());

        let mut sim = Simulation::new(cfg()).expect("valid");
        sim.attach_probe(Box::new(NoopProbe));
        let start = Instant::now();
        let noop_events = sim.run().events;
        noop_samples.push(start.elapsed().as_secs_f64());
        assert_eq!(bare_events, noop_events, "no-op probe changed the run");

        let _ = std::fs::remove_file(&trace);
        let sink = TraceSink::create(&trace).expect("sink").shared();
        let mut sim = Simulation::new(cfg()).expect("valid");
        sim.attach_probe(Box::new(SinkProbe::new(sink.clone(), DEFAULT_SAMPLE_EVERY)));
        let start = Instant::now();
        let sink_events = sim.run().events;
        sink_samples.push(start.elapsed().as_secs_f64());
        assert_eq!(bare_events, sink_events, "trace probe changed the run");
        let mut guard = sink.lock().unwrap_or_else(|e| e.into_inner());
        trace_lines = guard.lines();
        guard.finish().expect("trace finishes");

        let ring = shared_recorder(DEFAULT_FLIGHT_CAPACITY);
        let mut sim = Simulation::new(cfg()).expect("valid");
        sim.attach_probe(Box::new(RecorderProbe::new(ring.clone())));
        let start = Instant::now();
        let flight_events = sim.run().events;
        flight_samples.push(start.elapsed().as_secs_f64());
        assert_eq!(
            bare_events, flight_events,
            "flight recorder changed the run"
        );
        flight_total = ring.lock().unwrap_or_else(|e| e.into_inner()).total();
        assert!(flight_total >= bare_events, "recorder missed event pops");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let (bare_s, bare_lo, bare_hi) = median_spread(&mut bare_samples);
    let (noop_s, noop_lo, noop_hi) = median_spread(&mut noop_samples);
    let (sink_s, sink_lo, sink_hi) = median_spread(&mut sink_samples);
    let (flight_s, flight_lo, flight_hi) = median_spread(&mut flight_samples);
    let noop_pct = (noop_s / bare_s - 1.0) * 100.0;
    let sink_pct = (sink_s / bare_s - 1.0) * 100.0;
    let flight_pct = (flight_s / bare_s - 1.0) * 100.0;
    println!(
        "telemetry_overhead λ₀={lambda0}: {bare_events} events — bare {bare_s:.3}s \
         [{bare_lo:.3}, {bare_hi:.3}], no-op probe {noop_s:.3}s ({noop_pct:+.2}%, \
         [{noop_lo:.3}, {noop_hi:.3}]), traced@{DEFAULT_SAMPLE_EVERY} {sink_s:.3}s \
         ({sink_pct:+.2}%, [{sink_lo:.3}, {sink_hi:.3}], {trace_lines} trace lines), \
         flight@{DEFAULT_FLIGHT_CAPACITY} {flight_s:.3}s ({flight_pct:+.2}%, \
         [{flight_lo:.3}, {flight_hi:.3}], {flight_total} records)"
    );
    if test_mode {
        // One rep of a tiny run can't resolve percent-level overheads; the
        // event-count equalities above are the smoke check.
        return;
    }
    assert!(
        noop_pct < 2.0,
        "no-op probe median overhead {noop_pct:.2}% blew the 2% guard"
    );
    assert!(
        sink_pct < 10.0,
        "default-cadence tracing median overhead {sink_pct:.2}% blew the 10% guard"
    );
    assert!(
        flight_pct < 15.0,
        "flight-recorder median overhead {flight_pct:.2}% blew the 15% guard"
    );

    // Merge into BENCH_des.json (written by bench_des_scale earlier in
    // this group).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    let body = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".into());
    let trimmed = body.trim_end();
    let head = trimmed
        .strip_suffix('}')
        .expect("BENCH_des.json ends with an object")
        .trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    let merged = format!(
        "{head}{sep}\n  \"telemetry_overhead\": {{\"lambda0\": {lambda0}, \
         \"events\": {bare_events}, \"reps\": {reps}, \
         \"bare_wall_s\": {bare_s:.6}, \"bare_spread_s\": [{bare_lo:.6}, {bare_hi:.6}], \
         \"noop_wall_s\": {noop_s:.6}, \"noop_spread_s\": [{noop_lo:.6}, {noop_hi:.6}], \
         \"noop_overhead_pct\": {noop_pct:.3}, \
         \"sample_every\": {DEFAULT_SAMPLE_EVERY}, \"trace_lines\": {trace_lines}, \
         \"traced_wall_s\": {sink_s:.6}, \"traced_spread_s\": [{sink_lo:.6}, {sink_hi:.6}], \
         \"traced_overhead_pct\": {sink_pct:.3}, \
         \"flight_capacity\": {DEFAULT_FLIGHT_CAPACITY}, \
         \"flight_wall_s\": {flight_s:.6}, \
         \"flight_spread_s\": [{flight_lo:.6}, {flight_hi:.6}], \
         \"flight_overhead_pct\": {flight_pct:.3}}}\n}}\n"
    );
    std::fs::write(path, merged).expect("write BENCH_des.json");
    println!("updated {path} with telemetry_overhead");
}

/// Hybrid-vs-DES scaling study: the amplified flash crowd at
/// λ₀ ∈ {128, 2048}, each point run through the multiscale hybrid driver
/// and through the pure class-aggregated DES (both MTSD, same seed,
/// both observed as per-class mean downloading users). The per-event DES
/// cost is flat (the PR 6 guard above), so the hybrid's win is
/// *event count*: above the fluid threshold the ODE replaces the event
/// stream entirely and the wall-clock ratio grows with λ₀.
///
/// Two in-bench guards make the headline claims regressions instead of
/// prose: at λ₀ = 2048 the hybrid must be ≥ 3× faster than the pure
/// aggregate DES *and* agree with it on total mean downloading users
/// within the 0.1 tolerance it was configured with. Recorded under
/// `"hybrid_scale"` in `BENCH_des.json`. `BTFLUID_HYBRID_SMOKE=1` (the
/// CI hybrid-smoke job) runs only the λ₀ = 2048 guards on one-shot
/// timings and skips the artifact.
fn bench_hybrid_scale(_c: &mut Criterion) {
    use btfluid_hybrid::{amplified_flash_crowd, HybridConfig, HybridOutcome, HybridRunner};

    if agg_smoke_only() {
        return;
    }
    let test_mode = std::env::args().any(|a| a == "--test");
    let smoke = hybrid_smoke_only();
    const TOL: f64 = 0.1;
    const SEED: u64 = 7;
    // Time-compressed like the oracle's accuracy check but 2× longer, so
    // the pure-DES side dispatches enough events for a stable ratio.
    const TIME_SCALE: f64 = 0.01;

    let hybrid_run = |lambda0: f64| -> (f64, HybridOutcome) {
        let cfg = HybridConfig {
            program: amplified_flash_crowd(lambda0, TIME_SCALE),
            scheme: SchemeKind::Mtsd,
            seed: SEED,
            tol: TOL,
            aggregate: true,
        };
        let start = Instant::now();
        let outcome = black_box(HybridRunner::run(cfg).expect("hybrid runs"));
        (start.elapsed().as_secs_f64(), outcome)
    };
    let pure_run = |lambda0: f64| -> (f64, f64, u64) {
        let program = amplified_flash_crowd(lambda0, TIME_SCALE);
        let mut cfg = program
            .des_config(SchemeKind::Mtsd, SEED)
            .expect("valid program");
        cfg.aggregate = true;
        cfg.drain = 0.0;
        cfg.record_every = None;
        cfg.validate().expect("valid config");
        let hook = Box::new(program.hook());
        let sim = Simulation::with_hook(cfg, hook).expect("valid");
        let start = Instant::now();
        let outcome = black_box(sim.try_run().expect("pure DES runs"));
        let wall = start.elapsed().as_secs_f64();
        let total: f64 = (1..=outcome.k())
            .map(|i| outcome.population.avg_downloader_peers(i))
            .sum();
        (wall, total, outcome.events)
    };
    // Deterministic identical work: best-of-N is the noise-robust
    // statistic, and one rep suffices for the smoke/test paths.
    let reps = if test_mode || smoke { 1 } else { 3 };
    let best = |f: &dyn Fn() -> f64| (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min);

    if test_mode {
        // Smallest point, one shot: both paths run and agree on shape.
        let (_, outcome) = hybrid_run(128.0);
        let (_, _, events) = pure_run(128.0);
        assert!(events > 0, "pure DES dispatched no events");
        assert!(outcome.final_t > 0.0, "hybrid run did not advance");
        return;
    }

    let mut rows = Vec::new();
    let mut speedup_at_2048 = 0.0;
    for lambda0 in [128.0, 2048.0] {
        if smoke && lambda0 < 2048.0 {
            continue; // the CI job only needs the headline guard
        }
        let hyb_s = best(&|| hybrid_run(lambda0).0);
        let (_, outcome) = hybrid_run(lambda0);
        let pure_s = best(&|| pure_run(lambda0).0);
        let (_, pure_total, pure_events) = pure_run(lambda0);
        let speedup = pure_s / hyb_s;
        let rel = (outcome.total_mean() - pure_total).abs() / pure_total.max(1e-9);
        println!(
            "hybrid_scale λ₀={lambda0}: hybrid {hyb_s:.4}s ({} DES events, \
             {} fluid substeps, {} handoffs), pure aggregate {pure_s:.4}s \
             ({pure_events} events) — speedup {speedup:.1}×, total mean rel {rel:.3}",
            outcome.des_events,
            outcome.fluid_steps,
            outcome.handoffs.len()
        );
        if lambda0 == 2048.0 {
            speedup_at_2048 = speedup;
            assert!(
                !outcome.handoffs.is_empty(),
                "hybrid never left the discrete regime at λ₀ = 2048 — \
                 the speedup would be vacuous"
            );
            assert!(
                rel <= TOL,
                "hybrid total mean off by {rel:.3} (> tol {TOL}) at λ₀ = 2048"
            );
        }
        rows.push(format!(
            "    {{\"lambda0\": {lambda0}, \"hybrid_wall_s\": {hyb_s:.6}, \
             \"hybrid_des_events\": {}, \"hybrid_fluid_steps\": {}, \
             \"handoffs\": {}, \"pure_wall_s\": {pure_s:.6}, \
             \"pure_events\": {pure_events}, \"speedup\": {speedup:.3}, \
             \"total_mean_rel\": {rel:.4}}}",
            outcome.des_events,
            outcome.fluid_steps,
            outcome.handoffs.len()
        ));
    }
    assert!(
        speedup_at_2048 >= 3.0,
        "hybrid only {speedup_at_2048:.2}× over pure aggregate DES at λ₀ = 2048 \
         (claim is ≥ 3×)"
    );
    if smoke {
        return;
    }

    // Merge into BENCH_des.json (written by bench_des_scale earlier in
    // this group).
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_des.json");
    let body = std::fs::read_to_string(path).unwrap_or_else(|_| "{\n}\n".into());
    let trimmed = body.trim_end();
    let head = trimmed
        .strip_suffix('}')
        .expect("BENCH_des.json ends with an object")
        .trim_end();
    let sep = if head.ends_with('{') { "" } else { "," };
    let merged = format!(
        "{head}{sep}\n  \"hybrid_scale\": {{\"scheme\": \"MTSD\", \"tol\": {TOL}, \
         \"time_scale\": {TIME_SCALE}, \"points\": [\n{}\n  ], \
         \"speedup_at_lambda0_2048\": {speedup_at_2048:.3}}}\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(path, merged).expect("write BENCH_des.json");
    println!("updated {path} with hybrid_scale");
}

criterion_group!(
    benches,
    bench_engine,
    bench_validation,
    bench_des_scale,
    bench_checkpoint_overhead,
    bench_injector_overhead,
    bench_telemetry_overhead,
    bench_hybrid_scale
);
criterion_main!(benches);
