//! The telemetry contracts the rest of the workspace leans on:
//!
//! * **Zero perturbation** — a run with a probe attached is bit-identical
//!   to the same seed without one, in every rate mode and under the
//!   forced-full-recompute test reference, across every scheme (probes
//!   only borrow engine state).
//! * **Resumable traces** — counters and the sampler phase live inside
//!   the snapshot, so a run cut at an arbitrary event and resumed emits
//!   exactly the trace tail the uninterrupted run would have.
//! * **Window accounting** — the `[warmup, horizon]` population window
//!   is partitioned exactly once even when an event lands on the warmup
//!   boundary itself.

use btfluid_core::adapt::AdaptConfig;
use btfluid_des::config::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind};
use btfluid_des::engine::Simulation;
use btfluid_des::observer::SimOutcome;
use btfluid_des::snapshot::Snapshot;
use btfluid_des::{
    shared_recorder, Counters, FlightKind, FlightRecord, FlightRecorder, MemoryProbe, OwnedSample,
    Probe, TelemetryProbe, TraceSink,
};
use btfluid_telemetry::{read_trace, ScratchDir};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A [`MemoryProbe`] the test can read back after the engine consumed the
/// probe box.
fn memory_probe(cadence: f64) -> (Arc<Mutex<MemoryProbe>>, Box<dyn Probe>) {
    let shared = Arc::new(Mutex::new(MemoryProbe::new(cadence)));
    let probe = Box::new(Arc::clone(&shared));
    (shared, probe)
}

/// Rate-maintenance mode axis: 0 = incremental, 1 = forced full
/// recompute (the test reference), 2 = aggregate.
fn engine(mut cfg: DesConfig, mode: usize) -> Simulation {
    cfg.aggregate = mode == 2;
    let mut sim = Simulation::new(cfg).unwrap();
    if mode == 1 {
        sim.force_full_recompute_for_test();
    }
    sim
}

/// The five engine configurations the contracts must hold for (kept
/// shorter than the snapshot-resume suite: every case runs twice).
fn variant_cfg(variant: usize, seed: u64) -> DesConfig {
    let scheme = match variant {
        0 => SchemeKind::Mtsd,
        1 => SchemeKind::Mtcd,
        2 => SchemeKind::Mfcd,
        _ => SchemeKind::Cmfsd { rho: 0.3 },
    };
    let mut cfg = DesConfig::paper_small(scheme, 0.5, seed).unwrap();
    cfg.horizon = 300.0;
    cfg.warmup = 100.0;
    cfg.drain = 300.0;
    cfg.record_every = Some(25.0);
    if variant == 4 {
        cfg.adapt = Some(AdaptSetup {
            controller: AdaptConfig::default_for_mu(cfg.params.mu()),
            epoch: 40.0,
            cheater_fraction: 0.2,
        });
        cfg.order_policy = OrderPolicy::RarestFirst;
        cfg.origin_seeds = 1;
    }
    cfg
}

/// Asserts two outcomes are identical down to every float's bit pattern.
fn assert_bit_identical(a: &SimOutcome, b: &SimOutcome) {
    assert_eq!(a.events, b.events);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.censored, b.censored);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.id, rb.id);
        assert_eq!(ra.class, rb.class);
        assert_eq!(ra.arrival.to_bits(), rb.arrival.to_bits());
        assert_eq!(ra.departure.to_bits(), rb.departure.to_bits());
        assert_eq!(ra.download_span.to_bits(), rb.download_span.to_bits());
        assert_eq!(ra.online_fluid.to_bits(), rb.online_fluid.to_bits());
        assert_eq!(ra.final_rho.to_bits(), rb.final_rho.to_bits());
        assert_eq!(ra.cheater, rb.cheater);
    }
    assert_eq!(a.aborts.len(), b.aborts.len());
    assert_eq!(a.population.window.to_bits(), b.population.window.to_bits());
    for (xa, xb) in a
        .population
        .downloader_peer_integral
        .iter()
        .zip(&b.population.downloader_peer_integral)
    {
        assert_eq!(xa.to_bits(), xb.to_bits());
    }
    match (&a.trajectory, &b.trajectory) {
        (Some(ta), Some(tb)) => {
            assert_eq!(ta.times().len(), tb.times().len());
            for (xa, xb) in ta.raw_values().iter().zip(tb.raw_values()) {
                assert_eq!(xa.to_bits(), xb.to_bits());
            }
        }
        (None, None) => {}
        _ => panic!("one run recorded a trajectory, the other did not"),
    }
}

/// Deterministic view of a sample: everything except the counters that
/// legitimately differ across a resume. The `snapshot_*` trio carries
/// wall-clock microseconds. `stale_discards` counts lazy re-keys at the
/// heap top, and restore keys every entry at its true deadline, so a
/// resumed run re-keys less. `heap_peak` stays: the heap holds one entry
/// per armed deadline, and restore rebuilds the same count.
fn deterministic_view(s: &OwnedSample) -> OwnedSample {
    let mut s = s.clone();
    s.counters.stale_discards = 0;
    s.counters.snapshots_taken = 0;
    s.counters.snapshot_bytes = 0;
    s.counters.snapshot_micros = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attaching a telemetry probe — sampling into a trace sink, with the
    /// flight recorder armed — never changes the run, in the incremental,
    /// forced-full-recompute, and aggregate modes alike.
    #[test]
    fn telemetry_never_perturbs_the_run(
        variant in 0usize..5,
        mode in 0usize..3,
        seed in 1u64..500,
    ) {
        // Aggregate mode rejects Adapt by construction (variant 4).
        prop_assume!(!(mode == 2 && variant == 4));
        let cfg = variant_cfg(variant, seed);
        let bare = engine(cfg.clone(), mode).run();
        let dir = ScratchDir::new("telemetry-props").unwrap();
        let mut sink = TraceSink::create(&dir.join("probed.jsonl")).unwrap();
        sink.meta(&[]);
        let sink = sink.shared();
        let flight = shared_recorder(64);
        let probed = engine(cfg, mode)
            .with_probe(Box::new(TelemetryProbe {
                sink: Some((Arc::clone(&sink), 7.5)),
                flight: Some(Arc::clone(&flight)),
            }))
            .run();
        assert_bit_identical(&bare, &probed);

        let path = sink.lock().unwrap().finish().unwrap();
        let runs = read_trace(&std::fs::read_to_string(path).unwrap()).unwrap();
        let [run] = runs.as_slice() else { panic!("one run, read {}", runs.len()) };
        prop_assert!(!run.samples.is_empty(), "sampler never fired");
        let (_, c) = run.end.expect("on_finish not called");
        prop_assert!(c.events_popped > 0);
        // Samples carry a monotone clock and monotone counters.
        for w in run.samples.windows(2) {
            prop_assert!(w[1].t >= w[0].t);
            prop_assert!(w[1].events >= w[0].events);
            prop_assert!(w[1].counters.events_popped >= w[0].counters.events_popped);
        }
        // The armed recorder observed the run: every step emits a pop
        // record, aggregate mode also resamples, and the ring's clock and
        // event counter are nondecreasing.
        let ring = flight.lock().unwrap();
        prop_assert!(ring.total() > 0, "flight recorder never fired");
        let records: Vec<&FlightRecord> = ring.iter().collect();
        prop_assert!(records.iter().any(|r| r.kind == FlightKind::EventPop));
        if mode == 2 {
            prop_assert!(
                records.iter().any(|r| r.kind == FlightKind::AggResample),
                "aggregate run recorded no member resamples"
            );
        }
        for w in records.windows(2) {
            prop_assert!(w[1].events >= w[0].events);
        }
    }

    /// A capacity-C ring holds exactly the last `min(C, total)` records of
    /// the stream, oldest first, and accounts for every drop.
    #[test]
    fn flight_ring_keeps_exactly_the_last_capacity_records(
        capacity in 1usize..48,
        n in 0usize..150,
    ) {
        let mut ring = FlightRecorder::new(capacity);
        let mut stream = Vec::with_capacity(n);
        for i in 0..n {
            let rec = FlightRecord {
                t: i as f64,
                events: i as u64,
                kind: FlightKind::EventPop,
                a: i as u64 % 7,
                b: i as u64 % 3,
            };
            ring.record(rec);
            stream.push(rec);
        }
        prop_assert_eq!(ring.total(), n as u64);
        prop_assert_eq!(ring.len(), n.min(capacity));
        let kept: Vec<FlightRecord> = ring.iter().copied().collect();
        let expect = &stream[n - n.min(capacity)..];
        prop_assert_eq!(kept.len(), expect.len());
        for (got, want) in kept.iter().zip(expect) {
            prop_assert_eq!(got.events, want.events);
            prop_assert_eq!(got.t.to_bits(), want.t.to_bits());
        }
        // The dump round-trips the same window through the trace reader:
        // one meta line plus one line per retained record, the totals
        // reconcile, and `failure_t` is there exactly when it was given.
        let failure_t = (n % 2 == 1).then_some(n as f64);
        let dump = ring.dump_string(failure_t);
        prop_assert_eq!(dump.lines().count(), 1 + ring.len());
        let runs = read_trace(&dump).unwrap();
        let [run] = runs.as_slice() else { panic!("one run, read {}", runs.len()) };
        let (total, dropped) = (run.meta.u64_at("total"), run.meta.u64_at("dropped"));
        prop_assert_eq!(total, n as u64);
        prop_assert_eq!(total, run.flights.len() as u64 + dropped);
        prop_assert_eq!(run.meta.u64_at("capacity"), capacity as u64);
        prop_assert_eq!(run.meta.f64_at("failure_t"), failure_t);
        prop_assert_eq!(run.flights.len(), expect.len());
        for (got, want) in run.flights.iter().zip(expect) {
            prop_assert_eq!(got.kind.as_str(), want.kind.name());
            prop_assert_eq!(got.t, Some(want.t));
            prop_assert_eq!((got.events, got.a, got.b), (want.events, want.a, want.b));
        }
    }
}

/// Counters and sampler phase round-trip through the snapshot byte
/// format, so a cut-and-resumed run emits the same trace tail (on every
/// deterministic field) as the uninterrupted run, and the head + tail
/// stitch back into exactly the full series.
#[test]
fn resumed_run_emits_the_same_trace_tail() {
    // The Adapt variant exercises rho/delta in the samples too.
    let cfg = variant_cfg(4, 11);
    let (full, probe) = memory_probe(5.0);
    let full_outcome = Simulation::new(cfg.clone())
        .unwrap()
        .with_probe(probe)
        .run();

    let (head, probe) = memory_probe(5.0);
    let mut sim = Simulation::new(cfg.clone()).unwrap().with_probe(probe);
    for _ in 0..300 {
        assert!(sim.step().unwrap(), "run too short for the cut point");
    }
    let counters_at_cut = sim.counters();
    let snap = Snapshot::from_bytes(&sim.snapshot().to_bytes()).expect("codec roundtrip");
    drop(sim);

    let (tail, probe) = memory_probe(5.0);
    let mut resumed = Simulation::restore(cfg, &snap)
        .expect("restore")
        .with_probe(probe);
    // The counters survived the byte round trip exactly.
    assert_eq!(resumed.counters(), counters_at_cut);
    while resumed.step().unwrap() {}
    let resumed_outcome = resumed.finish();
    assert_bit_identical(&full_outcome, &resumed_outcome);

    let full = full.lock().unwrap();
    let head = head.lock().unwrap();
    let tail = tail.lock().unwrap();
    let stitched: Vec<OwnedSample> = head
        .samples
        .iter()
        .chain(tail.samples.iter())
        .map(deterministic_view)
        .collect();
    let straight: Vec<OwnedSample> = full.samples.iter().map(deterministic_view).collect();
    assert_eq!(
        stitched.len(),
        straight.len(),
        "resume re-fired or skipped a cadence point"
    );
    for (i, (a, b)) in straight.iter().zip(&stitched).enumerate() {
        assert_eq!(a, b, "sample {i} diverged after resume");
    }
    // Both paths flush identical final counters on the deterministic
    // subset (see `deterministic_view` for why the queue-path and
    // snapshot counters are exempt).
    let scrub = |c: Counters| Counters {
        stale_discards: 0,
        heap_peak: 0,
        snapshots_taken: 0,
        snapshot_bytes: 0,
        snapshot_micros: 0,
        ..c
    };
    assert_eq!(
        full.finished.map(scrub),
        tail.finished.map(scrub),
        "final counters diverged after resume"
    );
}

/// An Adapt epoch scheduled exactly on the warmup boundary (25 · 4 = 100
/// is exact in binary) must not double-count the boundary instant: the
/// measured window is exactly `horizon - warmup`.
#[test]
fn population_window_boundary_exact() {
    let mut cfg = variant_cfg(4, 7);
    cfg.warmup = 100.0;
    cfg.horizon = 300.0;
    cfg.drain = 300.0;
    cfg.adapt.as_mut().unwrap().epoch = 25.0;
    let outcome = Simulation::new(cfg).unwrap().run();
    let expect = 300.0 - 100.0;
    let window = outcome.population.window;
    assert!(
        (window - expect).abs() < 1e-6,
        "window {window} != {expect} (boundary slice lost or double-counted)"
    );
    assert!(
        window <= expect + 1e-9,
        "window {window} exceeds the stationary span — an interval was counted twice"
    );
}
