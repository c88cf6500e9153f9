//! The event loop: exact flow-level simulation with analytic advancement
//! between events.
//!
//! ## Event-loop architecture (post-rework)
//!
//! The seed engine did O(peers) work per event three times over: a full
//! [`compute_rates`] rebuild, a linear scan of every pending deadline to
//! find the next event, and an eager settlement of every active download.
//! This engine replaces all three with incremental structures:
//!
//! * **Rates** live in a [`RateCache`]: per-subtorrent aggregates
//!   (`weight`, `pool_real`, `pool_virtual`) plus ordered member lists,
//!   recomputed only for subtorrents an event actually touched, and one
//!   rate per group of downloads with identical `(file, u, w)`. Each group
//!   keeps a virtual clock settled only when its rate changes; a download
//!   holds a mark on that clock, so a rate change costs O(1) per group,
//!   not O(members), and integration stays piecewise-exact.
//! * **Event selection** uses an [`EventQueue`] (an indexed binary heap
//!   with one entry per rate group with a completion due, keyed by its
//!   head download, and one per armed expiry) instead of scanning; a
//!   group's entry is re-keyed in place only when its head or rate
//!   changed, and only when it moves earlier — a slowdown is recorded on
//!   the group and corrected when the entry reaches the top. Aggregate
//!   group deadlines stay out of the heap, in the group cache's dense
//!   array with a cached argmin.
//! * **Peers** live in a slab with a free list: departure leaves a
//!   tombstone (`Phase::Departed`) whose slot is recycled by a later
//!   arrival, keeping slab indices stable for queue keys and member
//!   lists. Population integrals and the recorded trajectory come from
//!   per-class counters maintained by ±contribution at each touch.
//!
//! [`Simulation::force_full_recompute_for_test`] forces a full
//! aggregate/rate recompute on every event through the *same* code path
//! (the cache's `force` flag). Because every recompute re-sums an ordered
//! member list, a forced recompute of an unchanged aggregate reproduces its
//! bits, so the forced run is a bit-identical reference for the incremental
//! one — asserted by the `equivalence` integration test over all four
//! schemes.

use crate::adapt::assign_arrival_policy;
use crate::agg::AggCache;
use crate::config::{DesConfig, OrderPolicy, SchemeKind};
use crate::error::{DesError, InvariantKind};
use crate::event_queue::{Entry, EventQueue, RANK_AGG, RANK_COMPLETION, RANK_EXPIRY};
use crate::hook::ScenarioHook;
use crate::observer::{AbortRecord, SimOutcome, UserRecord};
use crate::peer::{Peer, Phase};
use crate::rate::compute_rates;
use crate::rate_cache::RateCache;
use crate::snapshot::{self, Snapshot, SnapshotError, Writer};
use btfluid_numkit::dist::Exponential;
use btfluid_numkit::rng::{RngCore, Xoshiro256StarStar};
use btfluid_numkit::series::TimeSeries;
use btfluid_numkit::NumError;
use btfluid_telemetry::profiler::{Phase as ProfPhase, ProfileTable, Profiler};
use btfluid_telemetry::{Counters, FlightKind, FlightRecord, Probe, Sample};
use btfluid_workload::requests::{random_order, uniform_subset, FileId, RequestSampler};

/// What happens next.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// Hard stop at `horizon + drain`.
    End,
    /// A new user enters.
    Arrival,
    /// Download (peer index, slot) completes.
    Completion(usize, usize),
    /// A seed deadline (per-file seed, virtual-seed linger, or whole-user
    /// departure) expires for the peer index.
    SeedExpiry(usize),
    /// Periodic Adapt observation.
    Epoch,
    /// A thinned abort candidate fired (scenario hook only).
    Abort,
    /// A scenario boundary: origin-seed count or tracker state changes.
    Control,
}

/// Stable wire code for an event kind, the `a` payload of an
/// [`FlightKind::EventPop`] flight record (DESIGN.md §17).
fn event_code(event: &Event) -> u64 {
    match event {
        Event::End => 0,
        Event::Arrival => 1,
        Event::Completion(..) => 2,
        Event::SeedExpiry(_) => 3,
        Event::Epoch => 4,
        Event::Abort => 5,
        Event::Control => 6,
    }
}

/// One Exp(1) draw from the open-interval uniform: the hazard target of
/// an aggregate completion group.
fn exp1(rng: &mut Xoshiro256StarStar) -> f64 {
    -rng.next_f64_open().ln()
}

/// A configured, runnable simulation.
pub struct Simulation {
    cfg: DesConfig,
    rng_arrivals: Xoshiro256StarStar,
    rng_service: Xoshiro256StarStar,
    sampler: RequestSampler,
    gap: Exponential,
    gamma: Exponential,
    t: f64,
    /// Peer slab: departed peers leave tombstones, recycled via `free`.
    peers: Vec<Peer>,
    free: Vec<usize>,
    next_arrival: Option<(f64, Vec<FileId>)>,
    next_epoch: Option<f64>,
    user_counter: u64,
    outcome: SimOutcome,
    cache: RateCache,
    /// Class-aggregated scheduling state ([`DesConfig::aggregate`]); the
    /// per-peer `cache` stays allocated but inert while this is `Some`.
    agg: Option<AggCache>,
    /// Dedicated RNG stream for aggregate-mode draws (stream 3): member
    /// sampling and Exp(1) hazard targets. Never drawn in per-peer mode,
    /// so per-peer trajectories are unchanged by its existence.
    rng_agg: Xoshiro256StarStar,
    /// Scratch buffer for changed-group ids (aggregate mode).
    agg_changed: Vec<u32>,
    queue: EventQueue,
    /// Monotone source of arming stamps (0 means "disarmed").
    next_stamp: u64,
    /// Finished copies per file among present peers, plus origin seeds
    /// (rarest-first order policy).
    holders: Vec<usize>,
    // Per-class population counters, maintained by ±contribution.
    dl_peers: Vec<usize>,
    dl_pairs: Vec<usize>,
    seed_pairs: Vec<usize>,
    traj_downloaders: usize,
    traj_seeds: usize,
    // Scenario-hook state. All of it is inert (`None` / unused) for
    // stationary runs, so the hot path pays only `Option` checks.
    hook: Option<Box<dyn ScenarioHook>>,
    /// Dedicated RNG stream for scenario events (stream 2), so attaching a
    /// hook never perturbs the arrival or service streams' draws.
    rng_scenario: Xoshiro256StarStar,
    /// Candidate gap sampler at the arrival majorizing rate.
    hook_gap: Option<Exponential>,
    /// Cached [`ScenarioHook::abort_rate_bound`].
    abort_bound: f64,
    /// Raw thinning clock: the last arrival *candidate* time, which can
    /// run ahead of the (possibly tracker-deferred) scheduled arrival.
    ///
    /// Under a replaying hook ([`ScenarioHook::replays`]) this field is
    /// repurposed as the trace cursor: the integer index of the next
    /// recorded arrival to consume, stored exactly (indices stay far
    /// below 2⁵³). Reusing the field keeps the snapshot format unchanged,
    /// so a mid-replay checkpoint resumes the trace bit-identically.
    arrival_clock: f64,
    next_abort: Option<f64>,
    next_control: Option<f64>,
    /// Origin-seed count currently in force (scenario outages move it off
    /// `cfg.origin_seeds`).
    origin_now: usize,
    // Run-in-progress state, formerly locals of `run()`; promoted to fields
    // so a run can be suspended between steps and checkpointed.
    /// Whether the pre-loop initialization (first arrival draw, initial
    /// rate build, abort arming) has happened.
    started: bool,
    /// Population trajectory being recorded (when `record_every` is set).
    trajectory: Option<TimeSeries>,
    /// Next trajectory sampling time.
    next_record: f64,
    /// Hot-loop counters, maintained unconditionally (integer increments
    /// only) and snapshotted so resumed runs continue the same series.
    counters: Counters,
    /// Attached observation probe. Like `trace`, probes are engine-local
    /// observers excluded from snapshots; they receive borrowed state and
    /// can never perturb the run.
    probe: Option<Box<dyn Probe>>,
    /// Probe sampling cadence in simulated time (`0.0` = sampler off);
    /// set by [`Self::attach_probe`] from [`Probe::sample_every`].
    sample_every: f64,
    /// Next sampler firing time (snapshotted, so a resumed traced run
    /// emits the exact sample tail of an uninterrupted one).
    next_sample: f64,
    /// Mean Adapt Δ observed at the most recent epoch (telemetry only;
    /// feeds nothing back into the simulation).
    last_delta: f64,
    /// Cached [`Probe::wants_flight`] of the attached probe, so the
    /// disarmed flight recorder costs one boolean test per event. Like
    /// the probe itself, excluded from snapshots.
    flight: bool,
    /// Optional self-profiler (scoped phase timers). Wall-clock only —
    /// excluded from snapshots, observes without perturbing.
    profiler: Option<Profiler>,
    /// Test reference: recompute every rate on every event (see
    /// [`Self::force_full_recompute_for_test`]). Excluded from snapshots.
    full_recompute: bool,
}

impl Simulation {
    /// Builds a simulation from a validated configuration.
    ///
    /// # Errors
    /// Propagates [`DesConfig::validate`] failures.
    pub fn new(cfg: DesConfig) -> Result<Self, NumError> {
        cfg.validate()?;
        let mut sim = Self::blank(cfg)?;
        if let Some(a) = sim.agg.as_mut() {
            // Eager Exp(1) target draws for every group: a fixed 2·K²
            // draws at t = 0, so the stream phase is independent of the
            // order groups first become non-empty.
            for g in 0..a.n_groups() as u32 {
                a.set_initial_target(g, exp1(&mut sim.rng_agg));
            }
        }
        if sim.cfg.warm_start {
            sim.populate_from_fluid()?;
            sim.adopt_slab();
            for idx in 0..sim.peers.len() {
                sim.reschedule_expiry(idx);
            }
        }
        Ok(sim)
    }

    /// An empty simulation at `t = 0`: every stream seeded from the config,
    /// no peers, nothing scheduled. [`Self::new`] and [`Self::restore`]
    /// start from it.
    fn blank(cfg: DesConfig) -> Result<Self, NumError> {
        let k = cfg.model.k() as usize;
        Ok(Self {
            rng_arrivals: Xoshiro256StarStar::stream(cfg.seed, 0),
            rng_service: Xoshiro256StarStar::stream(cfg.seed, 1),
            rng_scenario: Xoshiro256StarStar::stream(cfg.seed, 2),
            rng_agg: Xoshiro256StarStar::stream(cfg.seed, 3),
            sampler: RequestSampler::new(cfg.model),
            gap: Exponential::new(cfg.model.lambda0())?,
            gamma: Exponential::new(cfg.params.gamma())?,
            t: 0.0,
            peers: Vec::new(),
            free: Vec::new(),
            next_arrival: None,
            next_epoch: cfg.adapt.as_ref().map(|a| a.epoch),
            user_counter: 0,
            outcome: SimOutcome::new(k),
            cache: RateCache::new(k, cfg.scheme, &cfg.params, cfg.origin_seeds),
            agg: cfg
                .aggregate
                .then(|| AggCache::new(k, cfg.scheme, &cfg.params, cfg.origin_seeds)),
            agg_changed: Vec::new(),
            queue: EventQueue::new(),
            next_stamp: 1,
            holders: vec![cfg.origin_seeds; k],
            dl_peers: vec![0; k],
            dl_pairs: vec![0; k],
            seed_pairs: vec![0; k],
            traj_downloaders: 0,
            traj_seeds: 0,
            hook: None,
            hook_gap: None,
            abort_bound: 0.0,
            arrival_clock: 0.0,
            next_abort: None,
            next_control: None,
            origin_now: cfg.origin_seeds,
            started: false,
            trajectory: None,
            next_record: 0.0,
            counters: Counters::default(),
            probe: None,
            sample_every: 0.0,
            next_sample: 0.0,
            last_delta: 0.0,
            flight: false,
            profiler: None,
            full_recompute: false,
            cfg,
        })
    }

    /// Builds a simulation with a scenario hook attached.
    ///
    /// # Errors
    /// Propagates [`DesConfig::validate`] failures and rejects hooks whose
    /// majorizing bounds are unusable (see [`Self::attach_hook`]).
    pub fn with_hook(cfg: DesConfig, hook: Box<dyn ScenarioHook>) -> Result<Self, NumError> {
        let mut sim = Self::new(cfg)?;
        sim.attach_hook(hook)?;
        Ok(sim)
    }

    /// Attaches a scenario hook before the run starts.
    ///
    /// The hook's state at `t = 0` is applied immediately (origin-seed
    /// count), the first control boundary is scheduled, and arrivals switch
    /// to thinned non-homogeneous sampling. Scenario randomness draws from
    /// its own stream (index 2), so the arrival and service streams remain
    /// those of the stationary run with the same seed.
    ///
    /// # Errors
    /// Returns [`NumError::InvalidInput`] when
    /// [`ScenarioHook::arrival_rate_bound`] is not finite and positive or
    /// [`ScenarioHook::abort_rate_bound`] is negative or non-finite.
    pub fn attach_hook(&mut self, hook: Box<dyn ScenarioHook>) -> Result<(), NumError> {
        let origin = hook.origin_seeds(0.0);
        self.next_control = hook.next_boundary(0.0);
        self.install_hook(hook)?;
        self.apply_origin(origin);
        Ok(())
    }

    /// Validates the hook's majorizing bounds and installs it with its
    /// candidate gap sampler.
    fn install_hook(&mut self, hook: Box<dyn ScenarioHook>) -> Result<(), NumError> {
        self.hook_gap = Some(Exponential::new(hook.arrival_rate_bound())?);
        let abort_bound = hook.abort_rate_bound();
        if !(abort_bound >= 0.0) || !abort_bound.is_finite() {
            return Err(NumError::InvalidInput {
                what: "Simulation::attach_hook",
                detail: format!("abort_rate_bound must be finite and ≥ 0, got {abort_bound}"),
            });
        }
        self.abort_bound = abort_bound;
        self.hook = Some(hook);
        Ok(())
    }

    /// Attaches an observation probe.
    ///
    /// Probes are engine-local observers, excluded from snapshots and
    /// config digests — attach one to a restored simulation to continue a
    /// traced run. The sampler cadence comes from [`Probe::sample_every`];
    /// on a fresh run the first sample fires at `t = 0`, on a restored run
    /// at the snapshotted phase.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.sample_every = probe.sample_every();
        self.flight = probe.wants_flight();
        self.probe = Some(probe);
    }

    /// Builder-style [`Self::attach_probe`].
    #[must_use]
    pub fn with_probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.attach_probe(probe);
        self
    }

    /// The engine's cumulative hot-loop counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Records one checkpoint write's cost. Called by checkpointing
    /// drivers (not the engine itself, which never touches disk), so
    /// manual [`Self::snapshot`] callers see identical counters whether
    /// or not they persist the result.
    pub fn note_snapshot(&mut self, bytes: u64, micros: u64) {
        self.counters.snapshots_taken += 1;
        self.counters.snapshot_bytes += bytes;
        self.counters.snapshot_micros += micros;
    }

    /// Runs the full `checked`-mode invariant audit on demand (rate
    /// finiteness, the event queue against the armed stamps, bitwise
    /// rate-cache agreement), regardless of [`DesConfig::checked`].
    ///
    /// # Errors
    /// Returns [`DesError::Invariant`] describing the first violation.
    pub fn audit(&self) -> Result<(), DesError> {
        self.validate_invariants()
    }

    /// Test-oracle hook: deliberately corrupts the cached donation rate of
    /// one live peer so the next [`Self::audit`] must report
    /// [`crate::InvariantKind::RateCacheDrift`]. Returns `false` when no
    /// live peer exists yet (nothing to corrupt). Used by the self-check
    /// oracle's `--expect-fail` mutation canary to prove the audit has
    /// teeth; never called by production paths.
    #[doc(hidden)]
    pub fn corrupt_rate_cache_for_test(&mut self) -> bool {
        for p in &mut self.peers {
            if p.phase != Phase::Departed {
                p.donation_rate += 0.25;
                return true;
            }
        }
        false
    }

    /// Test reference: from now on, recompute every aggregate and rate on
    /// every event instead of refreshing only the dirty ones. The result
    /// is bit-identical to the incremental run by construction; the
    /// equivalence suites compare against it. O(peers) per event, so
    /// never called by production paths. Not snapshotted: call it again
    /// after [`Self::restore`].
    #[doc(hidden)]
    pub fn force_full_recompute_for_test(&mut self) {
        self.full_recompute = true;
    }

    /// Forwards a named span timing to the attached probe (no-op without
    /// one).
    pub fn emit_span(&mut self, name: &str, micros: u64) {
        if let Some(probe) = self.probe.as_mut() {
            probe.on_span(name, micros);
        }
    }

    /// Forwards a flight record to the attached probe when it asked for
    /// them at attach time. Public so checkpointing drivers can record
    /// checkpoint cycles into the same ring the engine feeds.
    pub fn emit_flight(&mut self, kind: FlightKind, a: u64, b: u64) {
        if !self.flight {
            return;
        }
        let rec = FlightRecord {
            t: self.t,
            events: self.outcome.events,
            kind,
            a,
            b,
        };
        if let Some(probe) = self.probe.as_mut() {
            probe.on_flight(&rec);
        }
    }

    /// Enables the self-profiler for the rest of the run. Wall-clock
    /// observation only: results never feed back into the simulation.
    pub fn enable_profiler(&mut self, profiler: Profiler) {
        self.profiler = Some(profiler);
    }

    /// Adds externally-timed work to a profiler phase (no-op when no
    /// profiler is enabled) — the checkpoint driver reports snapshot
    /// encode cost here.
    pub fn profiler_add(&mut self, phase: ProfPhase, ns: u64) {
        if let Some(p) = self.profiler.as_mut() {
            p.add(phase, ns);
        }
    }

    /// The profiler's aggregated per-phase table, when one is enabled.
    pub fn profiler_table(&self) -> Option<ProfileTable> {
        self.profiler.as_ref().map(|p| p.table(self.outcome.events))
    }

    #[inline]
    fn prof_enter(&mut self, phase: ProfPhase) {
        if let Some(p) = self.profiler.as_mut() {
            p.enter(phase);
        }
    }

    #[inline]
    fn prof_leave(&mut self, phase: ProfPhase) {
        if let Some(p) = self.profiler.as_mut() {
            p.leave(phase);
        }
    }

    /// Builds a [`Sample`] of the current aggregates and hands it to the
    /// attached probe.
    fn emit_sample(&mut self) {
        let Some(probe) = self.probe.as_mut() else {
            return;
        };
        // Mean individual ρ over present peers: an O(slab) walk, paid
        // only at sampling cadence, never per event.
        let mut rho_sum = 0.0;
        let mut present = 0u64;
        for p in &self.peers {
            if p.phase != Phase::Departed {
                rho_sum += p.rho;
                present += 1;
            }
        }
        let (weight, pool_real, pool_virtual) = match self.agg.as_ref() {
            Some(agg) => (agg.weight(), agg.pool_real(), agg.pool_virtual()),
            None => (
                self.cache.weight(),
                self.cache.pool_real(),
                self.cache.pool_virtual(),
            ),
        };
        probe.on_sample(&Sample {
            t: self.t,
            events: self.outcome.events,
            downloaders: &self.dl_peers,
            download_pairs: &self.dl_pairs,
            seed_pairs: &self.seed_pairs,
            weight,
            pool_real,
            pool_virtual,
            rho_mean: if present > 0 {
                rho_sum / present as f64
            } else {
                0.0
            },
            delta_mean: self.last_delta,
            counters: self.counters,
        });
    }

    /// Seeds the initial population from the CMFSD fluid fixed point.
    ///
    /// Warm-start peers carry arrival time −1 so the warm-up cut always
    /// excludes them from the statistics.
    fn populate_from_fluid(&mut self) -> Result<(), NumError> {
        let SchemeKind::Cmfsd { rho } = self.cfg.scheme else {
            unreachable!("validated by DesConfig::validate");
        };
        let fluid =
            btfluid_core::cmfsd::Cmfsd::new(self.cfg.params, self.cfg.model.class_rates(), rho)?;
        let ss = fluid.steady_state()?;
        let k = self.cfg.model.k() as usize;
        for i in 1..=k {
            // Downloader stages.
            for j in 1..=i {
                let n = ss.stages[fluid.stage_index(i, j)].round() as usize;
                for _ in 0..n {
                    let mut peer = self.make_warm_peer(i, k);
                    // Stages 1..j−1 finished; stage j has uniform residual.
                    for pos in 0..j - 1 {
                        let slot = peer.order(pos);
                        peer.slots[slot].remaining = 0.0;
                        peer.slots[slot].completed_at = Some(0.0);
                    }
                    peer.cursor = j - 1;
                    let slot = peer.order(peer.cursor);
                    peer.slots[slot].remaining = self.rng_service.next_f64_open();
                    self.peers.push(peer);
                }
            }
            // Real seeds: y^i = λᵢ/γ.
            let n = ss.seeds[i - 1].round() as usize;
            for _ in 0..n {
                let mut peer = self.make_warm_peer(i, k);
                for slot in 0..i {
                    peer.slots[slot].remaining = 0.0;
                    peer.slots[slot].completed_at = Some(0.0);
                }
                peer.cursor = i;
                peer.phase = Phase::SeedingAll;
                peer.depart_at = Some(self.gamma.sample(&mut self.rng_service));
                self.peers.push(peer);
            }
        }
        Ok(())
    }

    /// Builds a warm-start peer of class `i` with a uniform random file set
    /// and order.
    fn make_warm_peer(&mut self, i: usize, k: usize) -> Peer {
        let files = uniform_subset(&mut self.rng_service, k, i);
        let order = random_order(&mut self.rng_service, i);
        let mut peer = Peer::new(self.user_counter, -1.0, files, order, 1.0);
        self.user_counter += 1;
        assign_arrival_policy(
            &mut peer,
            self.cfg.scheme,
            self.cfg.adapt.as_ref(),
            &mut self.rng_service,
        );
        peer
    }

    /// Runs to completion and returns the outcome.
    ///
    /// # Panics
    /// Panics when a `checked`-mode invariant audit fails; use
    /// [`Self::try_run`] to receive the violation as a [`DesError`].
    pub fn run(self) -> SimOutcome {
        self.try_run()
            .expect("invariant violation (checked mode); call try_run to handle it")
    }

    /// Runs to completion, surfacing `checked`-mode invariant violations as
    /// typed errors.
    ///
    /// # Errors
    /// Returns [`DesError::Invariant`] when [`DesConfig::checked`] is set
    /// and a per-event audit fails.
    pub fn try_run(mut self) -> Result<SimOutcome, DesError> {
        while self.step()? {}
        Ok(self.finish())
    }

    /// Dispatches the next event and returns whether the run can continue:
    /// `Ok(true)` after a regular event, `Ok(false)` once the hard stop at
    /// `horizon + drain` has been reached (call [`Self::finish`]).
    ///
    /// Driving `step()` in a loop and then calling [`Self::finish`] is
    /// *exactly* [`Self::run`] — the checkpointing harness interleaves
    /// [`Self::snapshot`] calls between steps without perturbing the
    /// trajectory.
    ///
    /// # Errors
    /// Returns [`DesError::Invariant`] when [`DesConfig::checked`] is set
    /// and the post-event audit fails. Stepping past the end (after
    /// `Ok(false)`) keeps returning `Ok(false)` without advancing.
    pub fn step(&mut self) -> Result<bool, DesError> {
        let end = self.cfg.horizon + self.cfg.drain;
        if !self.started {
            self.started = true;
            self.trajectory = self
                .cfg
                .record_every
                .map(|_| TimeSeries::new(vec!["downloaders", "seeds"]).expect("two channels"));
            self.schedule_arrival();
            // Initial build: everything registered so far is dirty.
            self.refresh_rates(self.full_recompute);
            if self.hook.is_some() {
                self.rearm_abort();
            }
        }
        if self.t >= end {
            return Ok(false);
        }
        if let (Some(series), Some(dt)) = (self.trajectory.as_mut(), self.cfg.record_every) {
            if self.t >= self.next_record {
                series
                    .push(
                        self.t,
                        &[self.traj_downloaders as f64, self.traj_seeds as f64],
                    )
                    .expect("time is monotone");
                while self.next_record <= self.t {
                    self.next_record += dt;
                }
            }
        }
        if self.sample_every > 0.0 && self.t >= self.next_sample {
            self.prof_enter(ProfPhase::SinkWrite);
            self.emit_sample();
            self.prof_leave(ProfPhase::SinkWrite);
            while self.next_sample <= self.t {
                self.next_sample += self.sample_every;
            }
        }
        let queue_len = self.queue.len() as u64;
        if queue_len > self.counters.heap_peak {
            self.counters.heap_peak = queue_len;
        }
        // Counter snapshot for the flight recorder: the record points
        // reuse deltas of counters the engine maintains anyway, so the
        // armed cost is a few integer subtractions per event and the
        // disarmed cost is this one boolean test.
        let flight_before = if self.flight {
            Some((
                self.counters.rate_recomputes,
                self.counters.agg_rate_updates,
                self.counters.agg_samples,
            ))
        } else {
            None
        };
        self.prof_enter(ProfPhase::HeapOps);
        let (t_next, event) = self.next_event(end);
        self.prof_leave(ProfPhase::HeapOps);
        self.outcome.events += 1;
        let dt = t_next - self.t;
        debug_assert!(dt >= -1e-9, "time went backwards: dt = {dt}");
        // Population integrals over the stationary window, from the
        // per-class counters (state is constant on [t, t_next)).
        // Step intervals are disjoint half-open [t, t_next) slices, so
        // clipping each to [warmup, horizon] under the strict `>` guard
        // partitions the window exactly once: an event landing exactly
        // at `warmup` yields a zero-width (skipped) left slice and its
        // successor starts at `warmup` — the boundary instant is never
        // double-counted (regression-tested in
        // `tests/telemetry_props.rs::population_window_boundary_exact`).
        let win_lo = self.t.max(self.cfg.warmup);
        let win_hi = t_next.min(self.cfg.horizon);
        if win_hi > win_lo {
            self.outcome.population.accumulate(
                win_hi - win_lo,
                &self.dl_peers,
                &self.dl_pairs,
                &self.seed_pairs,
            );
        }
        self.t = t_next;
        self.prof_enter(ProfPhase::HookDispatch);
        match event {
            Event::End => {
                self.prof_leave(ProfPhase::HookDispatch);
                return Ok(false);
            }
            Event::Arrival => self.handle_arrival(),
            Event::Completion(p, slot) => self.handle_completion(p, slot),
            Event::SeedExpiry(p) => self.handle_seed_expiry(p),
            Event::Epoch => self.handle_epoch(),
            Event::Abort => self.handle_abort(),
            Event::Control => self.handle_control(),
        }
        self.prof_leave(ProfPhase::HookDispatch);
        // Epochs may rewrite every ρ, so they always recompute fully.
        let force = self.full_recompute || matches!(event, Event::Epoch);
        self.prof_enter(ProfPhase::RateMaint);
        self.refresh_rates(force);
        self.prof_leave(ProfPhase::RateMaint);
        if let Some((recomputes, agg_updates, agg_samples)) = flight_before {
            self.emit_flight(FlightKind::EventPop, event_code(&event), 0);
            let ds = self.counters.agg_samples - agg_samples;
            if ds > 0 {
                self.emit_flight(FlightKind::AggResample, ds, 0);
            }
            let dr = self.counters.rate_recomputes - recomputes;
            let da = self.counters.agg_rate_updates - agg_updates;
            if dr > 0 || da > 0 {
                self.emit_flight(FlightKind::RateRecompute, dr, da);
            }
        }
        if self.hook.is_some() {
            // The downloader count may have changed; re-sample the
            // abort candidate (exact by memorylessness — the thinned
            // race is exponential at `bound · N` between events).
            self.rearm_abort();
        }
        if self.cfg.checked {
            self.validate_invariants()?;
        }
        Ok(true)
    }

    /// Closes out a stepped run: settles every surviving peer at the stop
    /// time, records censoring diagnostics, and returns the outcome. Must
    /// only be called after [`Self::step`] returned `Ok(false)` — finishing
    /// early yields an outcome for a truncated horizon.
    pub fn finish(mut self) -> SimOutcome {
        // Settle everyone still alive so censored diagnostics reflect the
        // hard stop.
        let t = self.t;
        self.cache.settle_remaining(&mut self.peers, t);
        for peer in &mut self.peers {
            if peer.phase != Phase::Departed {
                peer.settle_donation(t);
            }
        }
        // Whatever is still alive is censored (if it would have counted).
        let warmup = self.cfg.warmup;
        for p in &self.peers {
            if p.phase != Phase::Departed && p.arrival >= warmup {
                self.outcome.censored += 1;
                let remaining = p
                    .slots
                    .iter()
                    .map(|s| s.remaining)
                    .filter(|&r| r > 0.0)
                    .fold(0.0, f64::max);
                self.outcome.inflight.push(crate::observer::InflightInfo {
                    class: p.class(),
                    done: p.done_count(),
                    remaining,
                    arrival: p.arrival,
                });
            }
        }
        self.outcome.trajectory = self.trajectory.take();
        if let Some(probe) = self.probe.as_mut() {
            probe.on_finish(t, &self.counters);
        }
        self.outcome
    }

    /// Current simulated time (between steps).
    pub fn sim_time(&self) -> f64 {
        self.t
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.outcome.events
    }

    /// Live downloading-peer counts per class (index `class − 1`).
    pub fn class_downloaders(&self) -> &[usize] {
        &self.dl_peers
    }

    /// Drains the weight, demand and pool terms the incremental rate cache
    /// summed since the last call, with its live source sets (a work count
    /// for tests; the run's counters do not see it).
    pub fn take_rate_terms(&mut self) -> (u64, usize) {
        self.cache.take_terms()
    }

    /// Occupied rate groups of the incremental engine (0 under aggregate
    /// mode): the bound on the group rates one event can re-evaluate.
    pub fn rate_groups(&self) -> usize {
        self.cache.occupied_groups()
    }

    /// The peer slab. Contains departed tombstones — filter on
    /// [`Phase::Departed`] before aggregating.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Seeds a not-yet-started, empty simulation with an externally sampled
    /// population (the hybrid engine's fluid→DES handoff).
    ///
    /// The caller supplies fully initialized [`Peer`]s — file sets, order,
    /// progress, phase, seed timers — drawn on its *own* RNG stream; the
    /// engine only assigns ids and registers the peers with its caches and
    /// counters, so none of the engine streams advance and a run seeded this
    /// way stays bit-reproducible. Injected peers should carry `arrival`
    /// −1.0 (like warm-start peers) so the statistics window never counts
    /// them as arrivals.
    ///
    /// # Errors
    /// Rejects simulations that have already started or hold peers, and
    /// peers whose file ids fall outside `0..K` or whose download order
    /// names a slot they do not have.
    pub fn inject_peers(&mut self, mut incoming: Vec<Peer>) -> Result<(), NumError> {
        if self.started || !self.peers.is_empty() {
            return Err(NumError::InvalidInput {
                what: "Simulation::inject_peers",
                detail: "peers can only be injected into a fresh, empty simulation".into(),
            });
        }
        let k = self.cfg.model.k() as usize;
        for peer in &mut incoming {
            let n = peer.class();
            let shape_ok = n >= 1
                && peer
                    .slots
                    .iter()
                    .all(|s| (s.file as usize) < k && (s.order as usize) < n);
            if !shape_ok {
                let files: Vec<FileId> = peer.files().collect();
                return Err(NumError::InvalidInput {
                    what: "Simulation::inject_peers",
                    detail: format!("malformed injected peer (files {files:?}, K {k})"),
                });
            }
            peer.id = self.user_counter;
            self.user_counter += 1;
        }
        self.peers = incoming;
        self.adopt_slab();
        for idx in 0..self.peers.len() {
            self.reschedule_expiry(idx);
        }
        Ok(())
    }

    /// Registers every live peer of a slab filled without touches (warm
    /// start, injection, restore) with the rate structure and the
    /// population and holder counters.
    fn adopt_slab(&mut self) {
        self.cache_grow(self.peers.len());
        for idx in 0..self.peers.len() {
            if self.peers[idx].phase == Phase::Departed {
                continue;
            }
            self.cache_register(idx);
            self.add_counters(idx);
            for s in 0..self.peers[idx].class() {
                if self.peers[idx].finished(s) {
                    self.holders[self.peers[idx].slots[s].file as usize] += 1;
                }
            }
        }
    }

    /// Encodes the run's full mutable state between steps: the snapshot
    /// body, which [`Snapshot::seal`] turns into the file format.
    ///
    /// This is the one snapshot encoder. It reads the live engine and
    /// writes the layout [`Snapshot::from_body`] reads, field for field.
    /// Restoring the snapshot (into a fresh process, after a crash, …) and
    /// stepping on is bit-identical to never having stopped — see
    /// [`crate::snapshot`] for the contract and what is rebuilt rather than
    /// serialized.
    pub fn snapshot_body(&self) -> Vec<u8> {
        // A generous size estimate, so the encoder and the checksum that
        // `Snapshot::seal` appends seldom grow the buffer.
        let slots: usize = self.peers.iter().map(Peer::class).sum();
        let capacity = 256 + self.peers.len() * 128 + slots * 64 + self.outcome.records.len() * 64;
        let mut w = Writer::with_header(snapshot::SNAPSHOT_VERSION, capacity);
        w.u64(snapshot::config_digest(&self.cfg));
        w.u64(snapshot::hook_fingerprint(self.hook.as_deref()));
        w.f64(self.t);
        w.bool(self.started);
        for rng in [&self.rng_arrivals, &self.rng_service, &self.rng_scenario] {
            for word in rng.state() {
                w.u64(word);
            }
        }
        w.u64(self.user_counter);
        w.u64(self.next_stamp);
        w.f64(self.arrival_clock);
        w.u64(self.origin_now as u64);
        match &self.next_arrival {
            None => w.u8(0),
            Some((t, files)) => {
                w.u8(1);
                w.f64(*t);
                w.u64(files.len() as u64);
                for &f in files {
                    w.u32(u32::from(f));
                }
            }
        }
        w.opt_f64(self.next_epoch);
        w.opt_f64(self.next_abort);
        w.opt_f64(self.next_control);
        w.u64(self.free.len() as u64);
        for &i in &self.free {
            w.u64(i as u64);
        }
        w.u64(self.peers.len() as u64);
        // Active downloads' remaining work is read off the group clocks;
        // `received_vs` is not, as the group records carry the `vs_mark`s.
        for (idx, p) in self.peers.iter().enumerate() {
            snapshot::encode_peer(&mut w, p, |s| {
                self.cache
                    .remaining_at(idx, s, self.t)
                    .unwrap_or(p.slots[s].remaining)
            });
        }
        snapshot::encode_outcome(&mut w, &self.outcome);
        snapshot::encode_trajectory(&mut w, self.trajectory.as_ref());
        w.f64(self.next_record);
        for v in self.counters.values() {
            w.u64(v);
        }
        w.f64(self.next_sample);
        w.f64(self.last_delta);
        w.bool(self.agg.is_some());
        if self.agg.is_none() {
            snapshot::encode_group_clocks(&mut w, &self.cache.group_clocks());
        }
        if let Some(a) = &self.agg {
            for word in self.rng_agg.state() {
                w.u64(word);
            }
            w.u64(a.n_groups() as u64);
            for g in 0..a.n_groups() as u32 {
                let (target, acc, anchor) = a.group_hazard(g);
                w.f64(target);
                w.f64(acc);
                w.f64(anchor);
                w.f64(a.group_deadline(g));
                w.u64(a.group_stamp(g));
                w.u64(a.group_len(g) as u64);
                for i in 0..a.group_len(g) {
                    let (peer, slot) = a.group_member(g, i);
                    w.u32(peer);
                    w.u32(slot);
                }
            }
        }
        w.into_bytes()
    }

    /// The decoded form of [`Self::snapshot_body`]: what
    /// [`Self::restore`] takes. Paths that only write or store the bytes
    /// call [`Self::snapshot_body`] directly.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::from_body(&self.snapshot_body()).expect("the engine encodes a valid snapshot")
    }

    /// Reconstructs a suspended hookless run from a snapshot.
    ///
    /// # Errors
    /// [`DesError::Snapshot`] when the config does not match the one the
    /// snapshot was taken under, the snapshot was taken with a hook
    /// attached, or the payload is inconsistent; [`DesError::Invariant`]
    /// when the rebuilt rate cache fails to reproduce the serialized rates
    /// bitwise.
    pub fn restore(cfg: DesConfig, snap: &Snapshot) -> Result<Self, DesError> {
        Self::restore_inner(cfg, snap, None)
    }

    /// Reconstructs a suspended scenario run from a snapshot, re-attaching
    /// its hook.
    ///
    /// The hook must fingerprint ([`crate::snapshot::hook_fingerprint`])
    /// to the value embedded in the snapshot — hooks are pure functions of
    /// `t`, so an equal fingerprint means the re-attached hook replays the
    /// original scenario exactly.
    ///
    /// # Errors
    /// As [`Self::restore`], plus [`SnapshotError::HookMismatch`] for a
    /// hook whose state digests differently.
    pub fn restore_with_hook(
        cfg: DesConfig,
        snap: &Snapshot,
        hook: Box<dyn ScenarioHook>,
    ) -> Result<Self, DesError> {
        Self::restore_inner(cfg, snap, Some(hook))
    }

    fn restore_inner(
        cfg: DesConfig,
        snap: &Snapshot,
        hook: Option<Box<dyn ScenarioHook>>,
    ) -> Result<Self, DesError> {
        cfg.validate()?;
        if snapshot::config_digest(&cfg) != snap.config_digest {
            return Err(SnapshotError::ConfigMismatch.into());
        }
        if snapshot::hook_fingerprint(hook.as_deref()) != snap.hook_fp {
            return Err(SnapshotError::HookMismatch.into());
        }
        for s in &snap.rng_states {
            if *s == [0; 4] {
                return Err(SnapshotError::Corrupt("all-zero RNG stream state".into()).into());
            }
        }
        let k = cfg.model.k() as usize;
        let mut peers = snap.peers.clone();
        for (p, st) in peers.iter_mut().zip(&snap.adapt_states) {
            if let Some((rho, above, below)) = st {
                let setup = cfg.adapt.as_ref().ok_or_else(|| {
                    SnapshotError::Corrupt(
                        "peer carries an Adapt controller but the config has none".into(),
                    )
                })?;
                p.adapt = Some(btfluid_core::adapt::AdaptController::from_raw_state(
                    setup.controller,
                    *rho,
                    *above,
                    *below,
                )?);
            }
        }
        if snap.outcome.k() != k {
            return Err(SnapshotError::Corrupt(format!(
                "outcome tracks {} classes, config has {k}",
                snap.outcome.k()
            ))
            .into());
        }
        let origin_now = snap.origin_now as usize;
        if cfg.aggregate != snap.agg.is_some() {
            return Err(SnapshotError::Corrupt(
                "aggregate section does not match the config's aggregate flag".into(),
            )
            .into());
        }
        let mut sim = Self::blank(cfg)?;
        let [arrivals, service, scenario] = snap.rng_states;
        sim.rng_arrivals = Xoshiro256StarStar::from_state(arrivals);
        sim.rng_service = Xoshiro256StarStar::from_state(service);
        sim.rng_scenario = Xoshiro256StarStar::from_state(scenario);
        if let Some(a) = &snap.agg {
            if a.rng_agg == [0; 4] {
                return Err(SnapshotError::Corrupt("all-zero RNG stream state".into()).into());
            }
            sim.rng_agg = Xoshiro256StarStar::from_state(a.rng_agg);
        }
        sim.t = snap.t;
        sim.peers = peers;
        sim.free = snap.free.iter().map(|&i| i as usize).collect();
        sim.next_arrival = snap.next_arrival.clone();
        sim.next_epoch = snap.next_epoch;
        sim.user_counter = snap.user_counter;
        sim.outcome = snap.outcome.clone();
        sim.next_stamp = snap.next_stamp;
        sim.arrival_clock = snap.arrival_clock;
        sim.next_abort = snap.next_abort;
        sim.next_control = snap.next_control;
        sim.started = snap.started;
        sim.trajectory = snap.trajectory.clone();
        sim.next_record = snap.next_record;
        sim.counters = snap.counters;
        sim.next_sample = snap.next_sample;
        sim.last_delta = snap.last_delta;
        // The origin count in force: the snapshot already carries it and
        // the scheduled control boundary, so a hook is installed without
        // re-reading either.
        sim.apply_origin(origin_now);
        if let Some(h) = hook {
            sim.install_hook(h)?;
        }
        // Rebuild the derived structures (cache memberships, population
        // and holder counts) and the expiry
        // entries of the event heap, keyed at their true deadlines.
        sim.adopt_slab();
        for (idx, peer) in sim.peers.iter().enumerate() {
            if peer.phase == Phase::Departed || peer.expiry_stamp == 0 {
                continue;
            }
            let deadline = peer.expiry_deadline();
            if !deadline.is_finite() {
                return Err(SnapshotError::Corrupt(format!(
                    "peer {idx}: armed expiry with no finite deadline"
                ))
                .into());
            }
            sim.queue.schedule(Entry {
                time: deadline,
                rank: RANK_EXPIRY,
                peer: idx as u32,
                slot: 0,
                group: 0,
            });
        }
        let t = sim.t;
        if let Some(snap_agg) = snap.agg.as_ref() {
            // Aggregate rebuild: recompute group rates from the registered
            // memberships, then install the serialized sampling order and
            // hazard state. The registration order above generally differs
            // from the live order (members move under swap_remove), so the
            // member lists are overwritten — after verifying they hold the
            // same multiset.
            {
                let agg = sim.agg.as_mut().expect("aggregate snapshot section");
                let mut changed = Vec::new();
                agg.refresh(t, true, &mut changed);
                let _ = agg.take_stats();
                if snap_agg.groups.len() != agg.n_groups() {
                    return Err(SnapshotError::Corrupt(format!(
                        "snapshot carries {} groups, config implies {}",
                        snap_agg.groups.len(),
                        agg.n_groups()
                    ))
                    .into());
                }
                for (gi, gs) in snap_agg.groups.iter().enumerate() {
                    let g = gi as u32;
                    agg.install_members(g, &gs.members)
                        .map_err(SnapshotError::Corrupt)?;
                    agg.install_hazard(g, gs.target, gs.acc, gs.anchor, gs.deadline, gs.stamp);
                }
            }
            // Every armed group must satisfy the hazard identity
            // `deadline = anchor + (target − acc) / rate` bitwise against
            // the *rebuilt* rate — the aggregate analogue of the per-peer
            // no-op-refresh check below: a mismatch means the snapshot and
            // the cache's resummation contract disagree.
            let agg = sim.agg.as_ref().expect("aggregate snapshot section");
            for (gi, gs) in snap_agg.groups.iter().enumerate() {
                let g = gi as u32;
                if gs.stamp == 0 {
                    if gs.deadline != f64::INFINITY {
                        return Err(SnapshotError::Corrupt(format!(
                            "group {g}: disarmed entry carries deadline {}",
                            gs.deadline
                        ))
                        .into());
                    }
                    continue;
                }
                if !gs.deadline.is_finite() {
                    return Err(SnapshotError::Corrupt(format!(
                        "group {g}: armed aggregate entry at {}",
                        gs.deadline
                    ))
                    .into());
                }
                let expect = gs.anchor + (gs.target - gs.acc) / agg.group_rate(g);
                if expect.to_bits() != gs.deadline.to_bits() {
                    return Err(DesError::Invariant {
                        kind: InvariantKind::RateCacheDrift,
                        t,
                        detail: format!(
                            "restore: group {g} deadline {} rebuilt as {expect}",
                            gs.deadline
                        ),
                    });
                }
            }
            return Ok(sim);
        }
        // Install the serialized clocks, rates and marks over the groups
        // registration built. The rebuild refresh must then be a bitwise
        // no-op: every group rate has to reproduce its serialized value.
        // Anything else means the snapshot and the cache's resummation
        // contract disagree.
        sim.cache
            .install_clocks(&snap.groups)
            .map_err(SnapshotError::Corrupt)?;
        let moved = sim.cache.refresh(&mut sim.peers, t, false);
        // The rebuild refresh is restore machinery, not simulated work:
        // drop its cache statistics so a resumed run's counters match an
        // uninterrupted one's.
        let _ = sim.cache.take_stats();
        let _ = sim.cache.take_terms();
        if moved != 0 {
            return Err(DesError::Invariant {
                kind: InvariantKind::RateCacheDrift,
                t,
                detail: format!("restore: {moved} group rates changed during cache rebuild"),
            });
        }
        // Every group with a completion due gets its entry at the exact
        // deadline; a live run may hold a slowed entry's key early, but the
        // dispatched order depends only on the true keys.
        sim.schedule_groups();
        for (idx, (now, was)) in sim.peers.iter().zip(&snap.peers).enumerate() {
            if now.donation_rate.to_bits() != was.donation_rate.to_bits() {
                return Err(DesError::Invariant {
                    kind: InvariantKind::RateCacheDrift,
                    t,
                    detail: format!(
                        "restore: peer {idx} donation rate {} rebuilt as {}",
                        was.donation_rate, now.donation_rate
                    ),
                });
            }
        }
        Ok(sim)
    }

    /// `checked`-mode audit: finiteness, the rate groups' structure, the
    /// event queue against the armed expiries and due groups, and bitwise
    /// agreement of the group rates with a from-scratch recompute.
    /// O(peers) per call.
    fn validate_invariants(&self) -> Result<(), DesError> {
        let violation = |kind: InvariantKind, detail: String| {
            Err(DesError::Invariant {
                kind,
                t: self.t,
                detail,
            })
        };
        let mut armed = 0usize;
        for (idx, p) in self.peers.iter().enumerate() {
            if p.phase == Phase::Departed {
                // Tombstones must hold no armed deadlines.
                if p.expiry_stamp != 0 {
                    return violation(
                        InvariantKind::QueueInconsistency,
                        format!("departed peer {idx} still holds an armed stamp"),
                    );
                }
                continue;
            }
            armed += usize::from(p.expiry_stamp != 0);
            for s in 0..p.class() {
                let remaining = self.cache.remaining_at(idx, s, self.t);
                let checks = [
                    ("remaining", remaining.unwrap_or(p.slots[s].remaining)),
                    ("donation_rate", p.donation_rate),
                ];
                for (what, v) in checks {
                    if !v.is_finite() || v < 0.0 {
                        return violation(
                            InvariantKind::NonFiniteRate,
                            format!("peer {idx} slot {s}: {what} = {v}"),
                        );
                    }
                }
            }
        }
        if let Some(agg) = self.agg.as_ref() {
            // Aggregate mode: completions are armed per group in the group
            // cache, never in the heap, and the per-peer donation rates stay
            // at their untouched zeros.
            self.audit_queue(armed)?;
            if let Some(idx) = self
                .peers
                .iter()
                .position(|p| p.phase != Phase::Departed && p.donation_rate != 0.0)
            {
                return violation(
                    InvariantKind::RateCacheDrift,
                    format!("peer {idx}: per-peer rates populated in aggregate mode"),
                );
            }
            // Group rates, integer aggregates and the group argmin vs. a
            // from-scratch rebuild.
            return agg
                .audit(&self.peers)
                .map_err(|detail| DesError::Invariant {
                    kind: InvariantKind::RateCacheDrift,
                    t: self.t,
                    detail,
                });
        }
        if let Err(detail) = self.cache.audit() {
            return violation(InvariantKind::RateCacheDrift, detail);
        }
        self.audit_queue(armed + self.cache.due_groups())?;
        // Full recompute vs. the incrementally maintained group rates.
        let fresh = compute_rates(
            &self.peers,
            self.cfg.scheme,
            &self.cfg.params,
            self.cfg.model.k() as usize,
            self.origin_now,
        );
        for d in &fresh.downloads {
            let cached = self.cache.slot_rate(d.peer_idx, d.slot);
            let fresh_bits = (d.rate.to_bits(), d.vs_rate.to_bits());
            if cached.map(|(r, v)| (r.to_bits(), v.to_bits())) != Some(fresh_bits) {
                return violation(
                    InvariantKind::RateCacheDrift,
                    format!(
                        "peer {} slot {}: cached {cached:?} vs fresh ({}, {})",
                        d.peer_idx, d.slot, d.rate, d.vs_rate
                    ),
                );
            }
        }
        for (idx, p) in self.peers.iter().enumerate() {
            if p.phase == Phase::Departed {
                continue;
            }
            if p.donation_rate.to_bits() != fresh.donations[idx].to_bits() {
                return violation(
                    InvariantKind::RateCacheDrift,
                    format!(
                        "peer {idx}: cached donation {} vs fresh {}",
                        p.donation_rate, fresh.donations[idx]
                    ),
                );
            }
        }
        Ok(())
    }

    /// Queue audit: one heap entry per armed key (`armed`: expiries plus
    /// rate groups with a completion due), a consistent position map, and
    /// every key at or before its true deadline — a completion keyed by its
    /// group's current head.
    fn audit_queue(&self, armed: usize) -> Result<(), DesError> {
        let violation = |detail: String| {
            Err(DesError::Invariant {
                kind: InvariantKind::QueueInconsistency,
                t: self.t,
                detail,
            })
        };
        if self.queue.len() != armed {
            return violation(format!(
                "heap holds {} entries vs {armed} armed keys",
                self.queue.len()
            ));
        }
        if let Err(detail) = self.queue.check() {
            return violation(detail);
        }
        for e in self.queue.entries() {
            let due = if e.rank == RANK_COMPLETION {
                match self.cache.next_completion(e.group) {
                    Some((due, p, s)) if (p, s) == (e.peer, e.slot) => due,
                    other => {
                        return violation(format!(
                            "group {} entry at ({}, {}) vs its completion {other:?}",
                            e.group, e.peer, e.slot
                        ))
                    }
                }
            } else {
                let p = &self.peers[e.peer as usize];
                if p.expiry_stamp == 0 {
                    return violation(format!("expiry entry for disarmed peer {}", e.peer));
                }
                p.expiry_deadline()
            };
            if !(e.time <= due) {
                return violation(format!(
                    "entry (rank {}, peer {}, slot {}) keyed at {} after its deadline {due}",
                    e.rank, e.peer, e.slot, e.time
                ));
            }
        }
        Ok(())
    }

    /// Finds the earliest pending event: arrival and epoch are single
    /// registers; completions and expiries come from the heap (re-keying a
    /// lazily slowed completion at the top first), aggregate group
    /// completions from the group cache's argmin.
    fn next_event(&mut self, end: f64) -> (f64, Event) {
        let mut t_best = end;
        let mut best = Event::End;
        if let Some((ta, _)) = &self.next_arrival {
            if *ta < t_best {
                t_best = *ta;
                best = Event::Arrival;
            }
        }
        if let Some(te) = self.next_epoch {
            if te < t_best {
                t_best = te;
                best = Event::Epoch;
            }
        }
        if let Some(tc) = self.next_control {
            if tc < t_best {
                t_best = tc;
                best = Event::Control;
            }
        }
        if let Some(ta) = self.next_abort {
            if ta < t_best {
                t_best = ta;
                best = Event::Abort;
            }
        }
        // The heap top, once its key is exact. A key below `t_best` may be
        // a slowed completion's lower bound: re-key it in place and look
        // again. A key at or past `t_best` cannot win either way.
        let mut next: Option<Entry> = None;
        while let Some(e) = self.queue.peek() {
            if e.time >= t_best {
                break;
            }
            if e.rank == RANK_COMPLETION {
                let due = self.cache.group_due(e.group);
                if e.time < due {
                    self.queue.rekey_top(due);
                    self.counters.stale_discards += 1;
                    continue;
                }
            }
            next = Some(e);
            break;
        }
        if let Some((time, g)) = self.agg.as_mut().and_then(AggCache::next_deadline) {
            let group = Entry {
                time,
                rank: RANK_AGG,
                peer: g,
                slot: 0,
                group: g,
            };
            if time < t_best && next.is_none_or(|e| group < e) {
                next = Some(group);
            }
        }
        if let Some(e) = next {
            self.counters.events_popped += 1;
            if e.rank == RANK_AGG {
                // Aggregate completion: the group's total hazard fired;
                // only now decide *which* member finished. Canonical draw
                // order — member index first, replacement Exp(1) target
                // second — is part of the reproducibility contract.
                if let Some(p) = self.profiler.as_mut() {
                    p.enter(ProfPhase::MemberSample);
                }
                let agg = self.agg.as_mut().expect("group deadline without cache");
                let n = agg.group_len(e.peer);
                debug_assert!(n > 0, "armed aggregate group with no members");
                let i = self.rng_agg.next_below(n as u64) as usize;
                let (p, s) = agg.group_member(e.peer, i);
                let target = exp1(&mut self.rng_agg);
                agg.on_pop(e.peer, target, e.time);
                self.counters.agg_samples += 1;
                best = Event::Completion(p as usize, s as usize);
                if let Some(p) = self.profiler.as_mut() {
                    p.leave(ProfPhase::MemberSample);
                }
            } else {
                self.queue.pop();
                if e.rank == RANK_COMPLETION {
                    best = Event::Completion(e.peer as usize, e.slot as usize);
                } else {
                    self.peers[e.peer as usize].expiry_stamp = 0;
                    best = Event::SeedExpiry(e.peer as usize);
                }
            }
            t_best = e.time;
        }
        (t_best.max(self.t), best)
    }

    /// Runs the cache refresh, then reschedules the completion of every
    /// rate group whose head, rate or occupancy changed.
    fn refresh_rates(&mut self, force: bool) {
        if self.agg.is_some() {
            return self.refresh_rates_agg(force);
        }
        self.cache.refresh(&mut self.peers, self.t, force);
        let (recomputes, clean) = self.cache.take_stats();
        self.counters.rate_recomputes += recomputes;
        self.counters.rate_clean_hits += clean;
        self.schedule_groups();
    }

    /// Arms the queue entry of every changed rate group at its head's
    /// completion, or disarms it when none is due. With the same head a
    /// later time only lives on the group, and `next_event` re-keys the
    /// too-early entry when it reaches the top — this skips a heap
    /// operation for every slowdown, the common case when an arrival
    /// dilutes a subtorrent's pools.
    fn schedule_groups(&mut self) {
        for &g in self.cache.changed_groups() {
            let g = g as u32;
            let Some((time, peer, slot)) = self.cache.next_completion(g) else {
                self.queue.remove(RANK_COMPLETION, g);
                continue;
            };
            let e = Entry {
                time,
                rank: RANK_COMPLETION,
                peer,
                slot,
                group: g,
            };
            match self.queue.get(RANK_COMPLETION, g) {
                Some(old) if (old.peer, old.slot) == (peer, slot) => self.queue.advance(e),
                _ => self.queue.schedule(e),
            }
        }
        self.cache.clear_changed();
    }

    /// Aggregate-mode counterpart of [`Self::refresh_rates`]: refreshes the
    /// class-group cache and (re)arms one hazard deadline per changed group
    /// instead of one per (peer, slot), in the cache's own deadline array.
    fn refresh_rates_agg(&mut self, force: bool) {
        let mut changed = std::mem::take(&mut self.agg_changed);
        let agg = self.agg.as_mut().expect("refresh_rates_agg without cache");
        agg.refresh(self.t, force, &mut changed);
        let (updates, clean) = agg.take_stats();
        self.counters.agg_rate_updates += updates;
        self.counters.rate_clean_hits += clean;
        for &g in &changed {
            agg.schedule_group(g, &mut self.next_stamp);
        }
        changed.clear();
        self.agg_changed = changed;
    }

    /// Routes a peer registration to the active rate structure.
    fn cache_register(&mut self, idx: usize) {
        if let Some(agg) = self.agg.as_mut() {
            agg.register(idx, &self.peers);
        } else {
            self.cache.register(idx, &mut self.peers, self.t);
        }
    }

    /// Grows the active rate structure's per-peer bookkeeping.
    fn cache_grow(&mut self, n: usize) {
        if let Some(agg) = self.agg.as_mut() {
            agg.grow(n);
        } else {
            self.cache.grow(n);
        }
    }

    /// Begins a touch: removes the peer's counter contributions, settles
    /// and zeroes its donation, and (aggregate mode) removes its group
    /// memberships; the incremental cache diffs them in
    /// [`Self::touch_end`]. Its expiry entry stays for
    /// [`Self::reschedule_expiry`] to move.
    /// Returns whether the peer was downloading (for the active-time
    /// transition in [`Self::touch_end`]).
    fn touch_begin(&mut self, idx: usize) -> bool {
        self.sub_counters(idx);
        let t = self.t;
        let peer = &mut self.peers[idx];
        peer.settle_donation(t);
        peer.donation_rate = 0.0;
        let was_downloading = peer.phase == Phase::Downloading;
        if let Some(agg) = self.agg.as_mut() {
            agg.deregister(idx, &self.peers);
        }
        was_downloading
    }

    /// Ends a touch: re-registers the (mutated) peer, moving only the
    /// cache memberships that changed, restores its counter contributions,
    /// tracks the downloading-phase transition for
    /// [`Peer::download_time_acc`], and reschedules its expiry deadline.
    fn touch_end(&mut self, idx: usize, was_downloading: bool) {
        // A departed tombstone holds no memberships and its slab slot may
        // be recycled: the incremental cache drops them in the diff, and
        // aggregate mode leaves it deregistered.
        if self.agg.is_none() || self.peers[idx].phase != Phase::Departed {
            self.cache_register(idx);
        }
        self.add_counters(idx);
        let t = self.t;
        let peer = &mut self.peers[idx];
        let now = peer.phase == Phase::Downloading;
        if was_downloading && !now {
            peer.download_time_acc += t - peer.active_since;
        } else if !was_downloading && now {
            peer.active_since = t;
        }
        self.reschedule_expiry(idx);
    }

    /// Keys the peer's expiry entry at its earliest finite seed or
    /// departure deadline, in place (an unchanged time costs nothing), and
    /// removes it once the peer departs or no finite deadline remains.
    fn reschedule_expiry(&mut self, idx: usize) {
        let peer = &mut self.peers[idx];
        let deadline = if peer.phase == Phase::Departed {
            f64::INFINITY
        } else {
            peer.expiry_deadline()
        };
        if deadline.is_finite() {
            peer.expiry_stamp = self.next_stamp;
            self.next_stamp += 1;
            self.queue.schedule(Entry {
                time: deadline,
                rank: RANK_EXPIRY,
                peer: idx as u32,
                slot: 0,
                group: 0,
            });
        } else if peer.expiry_stamp != 0 {
            peer.expiry_stamp = 0;
            self.queue.remove(RANK_EXPIRY, idx as u32);
        }
    }

    /// The peer's current contribution to the per-class counters:
    /// `(class index, downloader peers, download pairs, seed pairs,
    /// trajectory downloaders, trajectory seeds)`.
    fn contribution(&self, idx: usize) -> (usize, usize, usize, usize, usize, usize) {
        let peer = &self.peers[idx];
        let c = peer.class() - 1;
        let concurrent = matches!(self.cfg.scheme, SchemeKind::Mtcd | SchemeKind::Mfcd);
        let (dl_peer, pairs, traj_dl) = if peer.phase == Phase::Downloading {
            let pairs = if concurrent {
                peer.class() - peer.done_count()
            } else {
                1
            };
            (1, pairs, 1)
        } else {
            (0, 0, 0)
        };
        let lingering = peer.slots.iter().filter(|s| s.seed_until.is_some()).count();
        let seeds = match peer.phase {
            Phase::SeedingFile(_) => 1,
            Phase::SeedingAll => {
                if concurrent {
                    lingering
                } else {
                    1
                }
            }
            Phase::Downloading => {
                if concurrent {
                    lingering
                } else {
                    0
                }
            }
            Phase::Departed => 0,
        };
        let traj_seed = matches!(peer.phase, Phase::SeedingFile(_) | Phase::SeedingAll) as usize;
        (c, dl_peer, pairs, seeds, traj_dl, traj_seed)
    }

    fn add_counters(&mut self, idx: usize) {
        let (c, dl_peer, pairs, seeds, traj_dl, traj_seed) = self.contribution(idx);
        self.dl_peers[c] += dl_peer;
        self.dl_pairs[c] += pairs;
        self.seed_pairs[c] += seeds;
        self.traj_downloaders += traj_dl;
        self.traj_seeds += traj_seed;
    }

    fn sub_counters(&mut self, idx: usize) {
        let (c, dl_peer, pairs, seeds, traj_dl, traj_seed) = self.contribution(idx);
        self.dl_peers[c] -= dl_peer;
        self.dl_pairs[c] -= pairs;
        self.seed_pairs[c] -= seeds;
        self.traj_downloaders -= traj_dl;
        self.traj_seeds -= traj_seed;
    }

    /// Places a new peer into the slab, recycling a tombstone when one is
    /// free.
    fn alloc_peer(&mut self, peer: Peer) -> usize {
        if let Some(idx) = self.free.pop() {
            self.peers[idx] = peer;
            idx
        } else {
            self.peers.push(peer);
            let n = self.peers.len();
            self.cache_grow(n);
            n - 1
        }
    }

    /// Draws the next *entering* arrival (Poisson visitors thinned by
    /// non-empty request sets), if it lands before the horizon.
    fn schedule_arrival(&mut self) {
        if self.hook.is_some() {
            self.schedule_arrival_hooked();
            return;
        }
        let mut t = self.next_arrival.take().map(|(ta, _)| ta).unwrap_or(self.t);
        loop {
            t += self.gap.sample(&mut self.rng_arrivals);
            if t >= self.cfg.horizon {
                self.next_arrival = None;
                return;
            }
            let files = self.sampler.sample_visitor(&mut self.rng_arrivals);
            if !files.is_empty() {
                self.next_arrival = Some((t, files));
                return;
            }
        }
    }

    /// Hooked arrival scheduling: Lewis–Shedler thinning at the majorizing
    /// rate, request sets drawn at the accepted candidate's instant with
    /// `p(t)`, entry deferred to the tracker's release time.
    ///
    /// The raw candidate clock (`arrival_clock`) advances independently of
    /// the (possibly deferred) scheduled time, so a blackout queues every
    /// candidate drawn during the window at its end — the post-blackout
    /// rush — without distorting the underlying Poisson process.
    fn schedule_arrival_hooked(&mut self) {
        self.next_arrival = None;
        if self.hook.as_ref().is_some_and(|h| h.replays()) {
            self.schedule_arrival_replay();
            return;
        }
        let gap = self
            .hook_gap
            .expect("hooked scheduling without a gap sampler");
        let bound = gap.rate();
        let mut t = self.arrival_clock;
        loop {
            t += gap.sample(&mut self.rng_arrivals);
            if t >= self.cfg.horizon {
                self.arrival_clock = t;
                return;
            }
            let hook = self.hook.as_ref().expect("checked by schedule_arrival");
            let lambda = hook.arrival_rate(t);
            debug_assert!(
                (0.0..=bound).contains(&lambda),
                "arrival_rate({t}) = {lambda} escapes [0, {bound}]"
            );
            if self.rng_arrivals.next_f64() * bound >= lambda {
                continue; // thinned out
            }
            let p = hook.correlation(t);
            let release = hook.tracker_release(t);
            let files = self
                .sampler
                .sample_visitor_with_p(&mut self.rng_arrivals, p);
            if files.is_empty() {
                continue; // empty request set: the visitor never enters
            }
            if release >= self.cfg.horizon {
                continue; // tracker still dark at the arrival cutoff
            }
            self.arrival_clock = t;
            self.next_arrival = Some((release, files));
            return;
        }
    }

    /// Replay scheduling ([`ScenarioHook::replays`]): consumes recorded
    /// arrivals by index instead of thinning. `arrival_clock` holds the
    /// cursor (see its field docs); nothing is drawn from any RNG stream,
    /// so replay determinism is independent of the rate-refresh mode.
    fn schedule_arrival_replay(&mut self) {
        let mut idx = self.arrival_clock as u64;
        loop {
            let hook = self
                .hook
                .as_ref()
                .expect("replay scheduling without a hook");
            let Some((t, files)) = hook.replay_arrival(idx) else {
                // End of trace: park the cursor and leave no arrival armed.
                self.arrival_clock = idx as f64;
                return;
            };
            if t >= self.cfg.horizon {
                // Trace times are non-decreasing, so nothing later can
                // land inside the horizon either.
                self.arrival_clock = idx as f64;
                return;
            }
            let release = hook.tracker_release(t);
            idx += 1;
            if files.is_empty() || release >= self.cfg.horizon {
                continue; // malformed record or tracker dark past the cutoff
            }
            self.arrival_clock = idx as f64;
            self.next_arrival = Some((release.max(t), files));
            return;
        }
    }

    fn handle_arrival(&mut self) {
        let (ta, files) = self
            .next_arrival
            .take()
            .expect("arrival event without a scheduled arrival");
        debug_assert!((ta - self.t).abs() < 1e-9);
        // Random download order (sequential schemes).
        let order = random_order(&mut self.rng_service, files.len());
        // The tombstone `alloc_peer` is about to recycle lends its slot
        // buffer, so a recycling arrival allocates no slot storage.
        let buf = self
            .free
            .last()
            .map(|&idx| std::mem::take(&mut self.peers[idx].slots))
            .unwrap_or_default();
        let mut peer = Peer::in_buffer(buf, self.user_counter, self.t, &files, &order, 1.0);
        self.user_counter += 1;
        assign_arrival_policy(
            &mut peer,
            self.cfg.scheme,
            self.cfg.adapt.as_ref(),
            &mut self.rng_service,
        );
        let idx = self.alloc_peer(peer);
        self.apply_order_policy(idx);
        self.cache_register(idx);
        self.add_counters(idx);
        self.reschedule_expiry(idx);
        self.outcome.arrivals += 1;
        // Re-arm from the consumed arrival's time.
        self.next_arrival = Some((ta, Vec::new()));
        self.schedule_arrival();
    }

    /// Under [`OrderPolicy::RarestFirst`], swaps the rarest unfinished file
    /// into the peer's next download position, using the incrementally
    /// maintained holder counts.
    fn apply_order_policy(&mut self, idx: usize) {
        if self.cfg.order_policy != OrderPolicy::RarestFirst || !self.cfg.scheme.is_sequential() {
            return;
        }
        let peer = &mut self.peers[idx];
        if peer.phase != Phase::Downloading || peer.cursor >= peer.class() {
            return;
        }
        let mut best: Vec<usize> = Vec::new();
        let mut best_count = usize::MAX;
        for pos in peer.cursor..peer.class() {
            let f = peer.slots[peer.order(pos)].file as usize;
            match self.holders[f].cmp(&best_count) {
                std::cmp::Ordering::Less => {
                    best_count = self.holders[f];
                    best.clear();
                    best.push(pos);
                }
                std::cmp::Ordering::Equal => best.push(pos),
                std::cmp::Ordering::Greater => {}
            }
        }
        let pick = best[self.rng_service.next_below(best.len() as u64) as usize];
        let cursor = peer.cursor;
        peer.swap_order(cursor, pick);
    }

    fn handle_completion(&mut self, idx: usize, slot: usize) {
        let was = self.touch_begin(idx);
        let t = self.t;
        {
            let s = &mut self.peers[idx].slots[slot];
            s.remaining = 0.0;
            s.completed_at = Some(t);
        }
        // Holder count first, so rarest-first sees the fresh copy.
        self.holders[self.peers[idx].slots[slot].file as usize] += 1;
        match self.cfg.scheme {
            SchemeKind::Mtsd => {
                let dur = self.gamma.sample(&mut self.rng_service);
                let peer = &mut self.peers[idx];
                peer.slots[slot].seed_duration = dur;
                peer.slots[slot].seed_until = Some(t + dur);
                peer.phase = Phase::SeedingFile(slot);
            }
            SchemeKind::Mtcd => {
                let dur = self.gamma.sample(&mut self.rng_service);
                let peer = &mut self.peers[idx];
                peer.slots[slot].seed_duration = dur;
                peer.slots[slot].seed_until = Some(t + dur);
                if peer.all_done() {
                    peer.phase = Phase::SeedingAll;
                }
            }
            SchemeKind::Mfcd => {
                // Virtual seed persists until the user departs as a whole.
                let peer = &mut self.peers[idx];
                peer.slots[slot].seed_until = Some(f64::INFINITY);
                if peer.all_done() {
                    let dur = self.gamma.sample(&mut self.rng_service);
                    self.peers[idx].depart_at = Some(t + dur);
                    self.peers[idx].phase = Phase::SeedingAll;
                }
            }
            SchemeKind::Cmfsd { .. } => {
                let peer = &mut self.peers[idx];
                peer.cursor += 1;
                if peer.cursor >= peer.class() {
                    let dur = self.gamma.sample(&mut self.rng_service);
                    self.peers[idx].depart_at = Some(t + dur);
                    self.peers[idx].phase = Phase::SeedingAll;
                } else {
                    // While downloading continues, the (1−ρ)μ virtual seed
                    // serves the finished files demand-aware (see `rate`),
                    // and the next file follows the order policy.
                    self.apply_order_policy(idx);
                }
            }
        }
        self.touch_end(idx, was);
    }

    fn handle_seed_expiry(&mut self, idx: usize) {
        let was = self.touch_begin(idx);
        let t = self.t;
        let mut departed = false;
        match self.cfg.scheme {
            SchemeKind::Mtsd => {
                let mut resume = false;
                {
                    let peer = &mut self.peers[idx];
                    if let Phase::SeedingFile(slot) = peer.phase {
                        if peer.slots[slot].seed_until.is_some_and(|su| su <= t + 1e-9) {
                            peer.slots[slot].seed_until = None;
                            peer.cursor += 1;
                            if peer.cursor < peer.class() {
                                peer.phase = Phase::Downloading;
                                resume = true;
                            } else {
                                departed = true;
                            }
                        }
                    }
                }
                if resume {
                    self.apply_order_policy(idx);
                }
            }
            SchemeKind::Mtcd => {
                let peer = &mut self.peers[idx];
                for slot in 0..peer.class() {
                    if peer.slots[slot].seed_until.is_some_and(|su| su <= t + 1e-9) {
                        peer.slots[slot].seed_until = None;
                    }
                }
                if peer.all_done() && peer.slots.iter().all(|s| s.seed_until.is_none()) {
                    departed = true;
                }
            }
            SchemeKind::Mfcd | SchemeKind::Cmfsd { .. } => {
                if self.peers[idx].depart_at.is_some_and(|da| da <= t + 1e-9) {
                    departed = true;
                }
            }
        }
        if departed {
            self.finalize_departure(idx);
        }
        self.touch_end(idx, was);
        if departed {
            self.free.push(idx);
        }
    }

    fn handle_epoch(&mut self) {
        let setup = self.cfg.adapt.expect("epoch event without adapt setup");
        // Telemetry-only Δ aggregation: observes the same values the
        // controllers receive, writes nowhere but `last_delta`.
        let mut delta_sum = 0.0;
        let mut delta_n = 0u64;
        for idx in 0..self.peers.len() {
            if self.peers[idx].phase == Phase::Departed {
                continue;
            }
            let was = self.touch_begin(idx);
            {
                let peer = &mut self.peers[idx];
                self.cache.settle_received_vs(idx, peer, self.t);
                if peer.phase == Phase::Downloading && peer.class() >= 2 {
                    if let Some(ctrl) = peer.adapt.as_mut() {
                        // Δ in bandwidth units: give minus take, per unit
                        // time.
                        let delta = (peer.donated - peer.received_vs) / setup.epoch;
                        peer.rho = ctrl.observe(delta);
                        delta_sum += delta;
                        delta_n += 1;
                    }
                }
                peer.donated = 0.0;
                peer.received_vs = 0.0;
            }
            self.touch_end(idx, was);
        }
        if delta_n > 0 {
            self.last_delta = delta_sum / delta_n as f64;
        }
        self.next_epoch = Some(self.next_epoch.expect("epoch scheduled") + setup.epoch);
    }

    /// Re-samples the abort candidate from the scenario stream: an
    /// exponential race at rate `abort_rate_bound · N` (N = downloading
    /// peers), thinned to `θ(t)` at acceptance time. Called after every
    /// event while a hook is attached — exact because the exponential race
    /// is memoryless and `N` is constant between events.
    fn rearm_abort(&mut self) {
        let n = self.traj_downloaders;
        if self.abort_bound <= 0.0 || n == 0 {
            self.next_abort = None;
            return;
        }
        let rate = self.abort_bound * n as f64;
        let gap = -self.rng_scenario.next_f64_open().ln() / rate;
        self.next_abort = Some(self.t + gap);
    }

    /// An abort candidate fired: accept with probability
    /// `θ(t) / abort_rate_bound`, then evict a uniformly chosen
    /// downloading peer. Peers in a seeding phase are never aborted — the
    /// fault models downloader impatience, not seed churn (seed churn is
    /// the origin-outage axis).
    fn handle_abort(&mut self) {
        self.next_abort = None;
        let theta = {
            let hook = self.hook.as_ref().expect("abort event without hook");
            hook.abort_rate(self.t)
        };
        debug_assert!(
            (0.0..=self.abort_bound).contains(&theta),
            "abort_rate({}) = {theta} escapes [0, {}]",
            self.t,
            self.abort_bound
        );
        if self.rng_scenario.next_f64() * self.abort_bound >= theta {
            return; // thinned out
        }
        let n = self.traj_downloaders;
        if n == 0 {
            return;
        }
        let target = self.rng_scenario.next_below(n as u64) as usize;
        let mut seen = 0usize;
        let mut victim = None;
        for (idx, p) in self.peers.iter().enumerate() {
            if p.phase == Phase::Downloading {
                if seen == target {
                    victim = Some(idx);
                    break;
                }
                seen += 1;
            }
        }
        let idx = victim.expect("traj_downloaders counted a downloading peer");
        let was = self.touch_begin(idx);
        self.finalize_abort(idx);
        self.touch_end(idx, was);
        self.free.push(idx);
    }

    /// A scenario boundary: re-read the origin-seed count and schedule the
    /// next boundary. Tracker transitions need no action here — deferral
    /// is resolved at arrival-scheduling time — but their boundaries pass
    /// through this event harmlessly.
    fn handle_control(&mut self) {
        let (origin, next) = {
            let hook = self.hook.as_ref().expect("control event without hook");
            (hook.origin_seeds(self.t), hook.next_boundary(self.t))
        };
        if let Some(b) = next {
            debug_assert!(
                b > self.t,
                "next_boundary({}) = {b} did not advance",
                self.t
            );
        }
        self.next_control = next;
        self.apply_origin(origin);
    }

    /// Puts a new origin-seed count in force: adjusts the rarest-first
    /// holder counts and re-seeds the rate cache's origin bandwidth (which
    /// marks every pool dirty for the next refresh).
    fn apply_origin(&mut self, n: usize) {
        if n == self.origin_now {
            return;
        }
        let old = self.origin_now;
        for h in &mut self.holders {
            // Every holder count includes `old` origin copies, so the
            // subtraction cannot underflow.
            *h = *h + n - old;
        }
        if let Some(agg) = self.agg.as_mut() {
            agg.set_origin_seeds(n);
        } else {
            self.cache.set_origin_seeds(n);
        }
        self.origin_now = n;
    }

    /// Tombstones an aborted downloader: releases its holder counts and
    /// logs an [`AbortRecord`] (no [`UserRecord`] — the user never
    /// finished). The caller recycles the slot via `free`.
    fn finalize_abort(&mut self, idx: usize) {
        let t = self.t;
        let record = {
            let peer = &mut self.peers[idx];
            peer.phase = Phase::Departed;
            AbortRecord {
                id: peer.id,
                class: peer.class(),
                arrival: peer.arrival,
                time: t,
                done: peer.done_count(),
            }
        };
        for s in 0..self.peers[idx].class() {
            if self.peers[idx].finished(s) {
                self.holders[self.peers[idx].slots[s].file as usize] -= 1;
            }
        }
        self.outcome.aborts.push(record);
    }

    /// Marks a finished user departed: tombstones the slab slot, releases
    /// its holder counts, and emits the user record if it falls in the
    /// measured window. The caller recycles the slot via `free`.
    fn finalize_departure(&mut self, idx: usize) {
        let t = self.t;
        let counted;
        let record;
        {
            let peer = &mut self.peers[idx];
            peer.phase = Phase::Departed;
            counted = peer.arrival >= self.cfg.warmup && peer.arrival < self.cfg.horizon;
            let online_fluid = match self.cfg.scheme {
                SchemeKind::Mtcd => {
                    // Per-virtual-peer mean: (completion − arrival) + own
                    // seed duration, averaged over the user's torrents.
                    let sum: f64 = peer
                        .slots
                        .iter()
                        .map(|s| {
                            s.completed_at.expect("departed ⇒ all complete") - peer.arrival
                                + s.seed_duration
                        })
                        .sum();
                    sum / peer.class() as f64
                }
                _ => t - peer.arrival,
            };
            record = UserRecord {
                id: peer.id,
                class: peer.class(),
                arrival: peer.arrival,
                departure: t,
                download_span: peer.download_time_acc,
                online_fluid,
                final_rho: peer.rho,
                cheater: peer.cheater,
            };
        }
        for s in 0..self.peers[idx].class() {
            if self.peers[idx].finished(s) {
                self.holders[self.peers[idx].slots[s].file as usize] -= 1;
            }
        }
        if counted {
            self.outcome.record(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DesConfig;

    fn run(scheme: SchemeKind, p: f64, seed: u64) -> SimOutcome {
        let cfg = DesConfig::paper_small(scheme, p, seed).unwrap();
        Simulation::new(cfg).unwrap().run()
    }

    #[test]
    fn mtsd_matches_fluid_prediction() {
        // Fluid: download per file 60, online per file 80.
        let o = run(SchemeKind::Mtsd, 0.3, 42);
        assert!(o.records.len() > 200, "only {} records", o.records.len());
        let dl = o.avg_download_per_file().unwrap();
        let on = o.avg_online_per_file().unwrap();
        assert!((dl - 60.0).abs() < 6.0, "download/file = {dl}");
        assert!((on - 80.0).abs() < 7.0, "online/file = {on}");
    }

    #[test]
    fn mtcd_single_class_k1_matches_fluid() {
        // K = 1 forces class 1 only; MTCD degenerates to the single
        // torrent: download 60.
        let cfg = DesConfig {
            model: btfluid_workload::CorrelationModel::new(1, 0.9, 0.3).unwrap(),
            ..DesConfig::paper_small(SchemeKind::Mtcd, 0.9, 7).unwrap()
        };
        let o = Simulation::new(cfg).unwrap().run();
        assert!(o.classes[0].count() > 200);
        let dl = o.classes[0].download.mean();
        assert!((dl - 60.0).abs() < 6.0, "download = {dl}");
    }

    #[test]
    fn arrivals_accounted() {
        let o = run(SchemeKind::Mtsd, 0.5, 3);
        assert!(o.arrivals > 0);
        // Everything that arrived post-warm-up either finished or is
        // censored. records may also include pre-horizon arrivals only.
        assert!(o.records.len() + o.censored <= o.arrivals);
    }

    #[test]
    fn events_are_counted() {
        let o = run(SchemeKind::Mtsd, 0.5, 3);
        // At minimum every arrival dispatched one event, plus the End.
        assert!(o.events > o.arrivals as u64);
    }

    #[test]
    fn determinism_per_seed() {
        let a = run(SchemeKind::Cmfsd { rho: 0.3 }, 0.6, 11);
        let b = run(SchemeKind::Cmfsd { rho: 0.3 }, 0.6, 11);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.id, rb.id);
            assert!((ra.online_fluid - rb.online_fluid).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_mode_matches_incremental_smoke() {
        // The full matrix lives in tests/equivalence.rs; this is the quick
        // in-crate guard.
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.5, 19).unwrap();
        cfg.horizon = 800.0;
        cfg.warmup = 200.0;
        cfg.drain = 800.0;
        let mut exact = Simulation::new(cfg.clone()).unwrap();
        exact.force_full_recompute_for_test();
        let a = exact.run();
        let b = Simulation::new(cfg).unwrap().run();
        assert_eq!(a.events, b.events);
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra.id, rb.id);
            assert_eq!(ra.departure.to_bits(), rb.departure.to_bits());
            assert_eq!(ra.download_span.to_bits(), rb.download_span.to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(SchemeKind::Mtsd, 0.5, 1);
        let b = run(SchemeKind::Mtsd, 0.5, 2);
        assert_ne!(a.records.len(), 0);
        // Astronomically unlikely to match exactly.
        assert!(
            a.records.len() != b.records.len()
                || a.avg_online_per_file().unwrap() != b.avg_online_per_file().unwrap()
        );
    }

    #[test]
    fn cmfsd_rho_zero_beats_rho_one_at_high_p() {
        let fast = run(SchemeKind::Cmfsd { rho: 0.0 }, 0.9, 5);
        let slow = run(SchemeKind::Cmfsd { rho: 1.0 }, 0.9, 5);
        let f = fast.avg_online_per_file().unwrap();
        let s = slow.avg_online_per_file().unwrap();
        assert!(f < s, "ρ=0 ({f}) should beat ρ=1 ({s})");
    }

    #[test]
    fn mtsd_per_class_online_proportional_to_class() {
        // p = 0.2 gives classes 1-3 substantial mass.
        let o = run(SchemeKind::Mtsd, 0.2, 9);
        // Classes with decent support: compare class 3 vs class 1 online.
        let c1 = &o.classes[0];
        let c3 = &o.classes[2];
        if c1.count() > 30 && c3.count() > 30 {
            let ratio = c3.online.mean() / c1.online.mean();
            assert!((ratio - 3.0).abs() < 0.6, "ratio = {ratio}");
        } else {
            panic!(
                "not enough support: c1 = {}, c3 = {}",
                c1.count(),
                c3.count()
            );
        }
    }

    #[test]
    fn population_tracking_nonzero() {
        let o = run(SchemeKind::Mtsd, 0.5, 13);
        assert!(o.population.window > 0.0);
        let total: f64 = (1..=10).map(|i| o.population.avg_downloader_peers(i)).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn censoring_is_rare_with_ample_drain() {
        let o = run(SchemeKind::Mtsd, 0.3, 17);
        assert_eq!(o.censored, 0, "drain should let everyone finish");
    }

    #[test]
    fn trajectory_recording() {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.4, 23).unwrap();
        cfg.horizon = 1500.0;
        cfg.warmup = 300.0;
        cfg.drain = 1500.0;
        cfg.record_every = Some(50.0);
        let o = Simulation::new(cfg).unwrap().run();
        let series = o.trajectory.expect("recording enabled");
        assert!(series.len() > 20, "rows = {}", series.len());
        assert_eq!(series.names(), &["downloaders", "seeds"]);
        // Populations eventually become positive and the series is in time
        // order (enforced by TimeSeries::push).
        let downloaders = series.channel(0);
        assert!(downloaders.iter().any(|&x| x > 0.0));
        // The stationary level (between warm-up and the horizon — after
        // the horizon arrivals stop and the population drains) should be
        // near the fluid prediction x_total = λ₀·K·p·T = 60.
        let stationary: Vec<f64> = series
            .times()
            .iter()
            .zip(&downloaders)
            .filter(|(&t, _)| (600.0..=1500.0).contains(&t))
            .map(|(_, &x)| x)
            .collect();
        assert!(stationary.len() > 10);
        let mean: f64 = stationary.iter().sum::<f64>() / stationary.len() as f64;
        let expect = 0.25 * 10.0 * 0.4 * 60.0;
        assert!(
            (mean - expect).abs() / expect < 0.35,
            "stationary mean {mean} vs fluid {expect}"
        );
    }

    #[test]
    fn trajectory_disabled_by_default() {
        let o = run(SchemeKind::Mtsd, 0.3, 29);
        assert!(o.trajectory.is_none());
    }

    #[test]
    fn record_every_validation() {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.4, 1).unwrap();
        cfg.record_every = Some(0.0);
        assert!(cfg.validate().is_err());
        cfg.record_every = Some(f64::NAN);
        assert!(cfg.validate().is_err());
    }
}
