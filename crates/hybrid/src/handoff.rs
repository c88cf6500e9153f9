//! Bidirectional state handoff between the DES peer slab and the fluid
//! ODE state.
//!
//! **DES → fluid (fold).** Each live peer is projected onto the fluid
//! state exactly as the engine's own counters would count it:
//!
//! - MTCD's per-torrent symmetric state `[x₁..x_K, y₁..y_K]` counts
//!   download *pairs* and lingering per-file seeds divided by `K` (a
//!   class-`i` downloader holds `i − done` open downloads spread over
//!   `K` symmetric torrents).
//! - MTSD's staged state counts whole users: a class-`i` peer
//!   downloading its `j`-th file adds one to `x_{i,j}`, a peer seeding
//!   its `j`-th file adds one to `s_{i,j}`.
//!
//! **Fluid → DES (sample).** Each fluid mass is rounded to an integer
//! peer count and that many peers are materialized with file sets and
//! orders drawn on the *handoff* RNG stream, progress drawn uniform on
//! `(0, 1]` (the mean-residual-work distribution of a processor-shared
//! download), and seed timers drawn `Exp(γ)`. Sampling returns the
//! *realized* (quantized) masses alongside the peers so the round-trip
//! `fold(sample(m)) == realized(m)` holds to float-sum accuracy — the
//! conservation property the proptests pin down.

use crate::policy::Regime;
use btfluid_des::peer::{Peer, Phase};
use btfluid_des::SchemeKind;
use btfluid_numkit::dist::Exponential;
use btfluid_numkit::ode::{FixedStep, OdeSystem, Rk4, StepScratch};
use btfluid_numkit::rng::RngCore;
use btfluid_numkit::NumError;
use btfluid_scenario::{ScenarioProgram, ScheduledMtcd, ScheduledMtsd};
use btfluid_workload::{random_order, uniform_subset};

/// One recorded regime switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HandoffRecord {
    /// Simulated time of the switch.
    pub t: f64,
    /// The regime switched *to*.
    pub to: Regime,
    /// Total downloading population at the switch.
    pub pop: f64,
}

/// The scheme ODE a hybrid run integrates, plus the handoff projections.
#[derive(Debug, Clone)]
pub enum FluidModel {
    /// Per-torrent symmetric MTCD state, `2K` components.
    Mtcd(ScheduledMtcd),
    /// System-wide staged MTSD state, `K(K+1)` components.
    Mtsd(ScheduledMtsd),
}

impl FluidModel {
    /// Builds the model for `scheme` from the program's schedules.
    ///
    /// # Errors
    /// Rejects schemes without a scheduled fluid counterpart (MFCD and
    /// CMFSD) and propagates program validation failures.
    pub fn new(program: &ScenarioProgram, scheme: SchemeKind) -> Result<Self, NumError> {
        match scheme {
            SchemeKind::Mtcd => Ok(Self::Mtcd(ScheduledMtcd::from_program(program)?)),
            SchemeKind::Mtsd => Ok(Self::Mtsd(ScheduledMtsd::from_program(program)?)),
            other => Err(NumError::InvalidInput {
                what: "FluidModel::new",
                detail: format!(
                    "hybrid runs need a scheduled fluid model; {} has none (use mtcd or mtsd)",
                    other.name()
                ),
            }),
        }
    }

    /// Number of classes `K`.
    pub fn k(&self) -> usize {
        match self {
            Self::Mtcd(m) => m.k(),
            Self::Mtsd(m) => m.k(),
        }
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        match self {
            Self::Mtcd(m) => m.dim(),
            Self::Mtsd(m) => m.dim(),
        }
    }

    /// Advances `state` from `t` by `h` with one classical RK4 step in
    /// `scratch`'s stage buffers.
    pub fn rk4_step(&self, t: f64, state: &mut [f64], h: f64, scratch: &mut StepScratch) {
        match self {
            Self::Mtcd(m) => Rk4.step_with(m, t, state, h, scratch),
            Self::Mtsd(m) => Rk4.step_with(m, t, state, h, scratch),
        }
    }

    /// Per-class downloading *users* (index `class − 1`), clamped at
    /// zero. MTCD's per-torrent pairs convert via `K·xᵢ/i`; MTSD's
    /// stages sum directly.
    pub fn class_downloaders(&self, state: &[f64], out: &mut [f64]) {
        match self {
            Self::Mtcd(m) => {
                let k = m.k();
                for (i, slot) in out.iter_mut().enumerate().take(k) {
                    *slot = k as f64 * state[i].max(0.0) / (i + 1) as f64;
                }
            }
            Self::Mtsd(m) => m.class_downloaders(state, out),
        }
    }

    /// Total downloading users.
    pub fn total_downloaders(&self, state: &[f64]) -> f64 {
        let mut out = vec![0.0; self.k()];
        self.class_downloaders(state, &mut out);
        out.iter().sum()
    }

    /// Folds a DES peer slab into fluid state (DES → fluid handoff).
    /// Departed tombstones are skipped; everything else projects exactly
    /// as the engine's pair/seed counters would count it.
    pub fn fold(&self, peers: &[Peer]) -> Vec<f64> {
        let mut state = vec![0.0; self.dim()];
        match self {
            Self::Mtcd(m) => {
                let k = m.k() as f64;
                for p in peers {
                    if p.phase == Phase::Departed {
                        continue;
                    }
                    let class = p.class();
                    if p.phase == Phase::Downloading {
                        state[class - 1] += (class - p.done_count()) as f64 / k;
                    }
                    let lingering = p.slots.iter().filter(|s| s.seed_until.is_some()).count();
                    state[m.k() + class - 1] += lingering as f64 / k;
                }
            }
            Self::Mtsd(m) => {
                let half = m.dim() / 2;
                for p in peers {
                    match p.phase {
                        Phase::Downloading => {
                            // Stage j = files finished + 1.
                            state[m.stage_index(p.class(), p.done_count() + 1)] += 1.0;
                        }
                        Phase::SeedingFile(_) => {
                            // Seeding the done_count()-th finished file.
                            state[half + m.stage_index(p.class(), p.done_count())] += 1.0;
                        }
                        Phase::SeedingAll | Phase::Departed => {}
                    }
                }
            }
        }
        state
    }

    /// Samples a peer population from fluid state (fluid → DES handoff).
    ///
    /// All randomness comes from `rng` — the dedicated handoff stream —
    /// so engine streams never advance and same-seed runs sample the
    /// same population. Seed timers are drawn `Exp(γ)` relative to the
    /// new DES segment's local `t = 0`; injected peers carry arrival
    /// `−1.0` so statistics windows never count them as arrivals.
    ///
    /// Returns the peers and the realized (integer-quantized) fluid
    /// masses actually represented.
    pub fn sample<R: RngCore + ?Sized>(
        &self,
        state: &[f64],
        rng: &mut R,
        gamma: &Exponential,
    ) -> (Vec<Peer>, Vec<f64>) {
        let mut peers = Vec::new();
        let mut realized = vec![0.0; self.dim()];
        match self {
            Self::Mtcd(m) => {
                let k = m.k();
                for class in 1..=k {
                    // Downloaders: x_i per-torrent pairs ↔ K·x_i/i users,
                    // each holding `class` fresh concurrent downloads.
                    let n_dl = (k as f64 * state[class - 1].max(0.0) / class as f64).round();
                    for _ in 0..n_dl as usize {
                        let files = uniform_subset(rng, k, class);
                        let order = random_order(rng, class);
                        let mut p = Peer::new(0, -1.0, files, order, 1.0);
                        for slot in 0..class {
                            p.slots[slot].remaining = rng.next_f64_open();
                        }
                        realized[class - 1] += class as f64 / k as f64;
                        peers.push(p);
                    }
                    // Seeds: y_i per-torrent seeds ↔ K·y_i/i all-done
                    // users, each lingering on every file.
                    let n_sd = (k as f64 * state[k + class - 1].max(0.0) / class as f64).round();
                    for _ in 0..n_sd as usize {
                        let files = uniform_subset(rng, k, class);
                        let order = random_order(rng, class);
                        let mut p = Peer::new(0, -1.0, files, order, 1.0);
                        for slot in 0..class {
                            p.slots[slot].remaining = 0.0;
                            p.slots[slot].completed_at = Some(0.0);
                            let dur = gamma.sample(rng);
                            p.slots[slot].seed_until = Some(dur);
                            p.slots[slot].seed_duration = dur;
                        }
                        p.cursor = class;
                        p.phase = Phase::SeedingAll;
                        realized[k + class - 1] += class as f64 / k as f64;
                        peers.push(p);
                    }
                }
            }
            Self::Mtsd(m) => {
                let k = m.k();
                let half = m.dim() / 2;
                for class in 1..=k {
                    for stage in 1..=class {
                        let idx = m.stage_index(class, stage);
                        // Downloading stage j: j−1 files finished, the
                        // j-th in progress with uniform residual work.
                        let n_dl = state[idx].max(0.0).round();
                        for _ in 0..n_dl as usize {
                            let files = uniform_subset(rng, k, class);
                            let order = random_order(rng, class);
                            let mut p = Peer::new(0, -1.0, files, order, 1.0);
                            for pos in 0..stage - 1 {
                                let slot = p.order(pos);
                                p.slots[slot].remaining = 0.0;
                                p.slots[slot].completed_at = Some(0.0);
                            }
                            p.cursor = stage - 1;
                            let slot = p.order(p.cursor);
                            p.slots[slot].remaining = rng.next_f64_open();
                            realized[idx] += 1.0;
                            peers.push(p);
                        }
                        // Seeding stage j: j files finished, lingering on
                        // the j-th before moving to file j+1 (or leaving).
                        let n_sd = state[half + idx].max(0.0).round();
                        for _ in 0..n_sd as usize {
                            let files = uniform_subset(rng, k, class);
                            let order = random_order(rng, class);
                            let mut p = Peer::new(0, -1.0, files, order, 1.0);
                            for pos in 0..stage {
                                let slot = p.order(pos);
                                p.slots[slot].remaining = 0.0;
                                p.slots[slot].completed_at = Some(0.0);
                            }
                            p.cursor = stage - 1;
                            let slot = p.order(p.cursor);
                            let dur = gamma.sample(rng);
                            p.slots[slot].seed_until = Some(dur);
                            p.slots[slot].seed_duration = dur;
                            p.phase = Phase::SeedingFile(slot);
                            realized[half + idx] += 1.0;
                            peers.push(p);
                        }
                    }
                }
            }
        }
        (peers, realized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_numkit::rng::Xoshiro256StarStar;
    use btfluid_scenario::registry;

    fn model(scheme: SchemeKind) -> FluidModel {
        FluidModel::new(&registry::flash_crowd(), scheme).unwrap()
    }

    #[test]
    fn unsupported_schemes_rejected() {
        let program = registry::flash_crowd();
        assert!(FluidModel::new(&program, SchemeKind::Mfcd).is_err());
        assert!(FluidModel::new(&program, SchemeKind::Cmfsd { rho: 0.5 }).is_err());
    }

    #[test]
    fn mtcd_round_trip_conserves_mass() {
        let m = model(SchemeKind::Mtcd);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let gamma = Exponential::new(0.05).unwrap();
        let mut state = vec![0.0; m.dim()];
        for (i, s) in state.iter_mut().enumerate() {
            *s = (i as f64 * 0.37 + 0.9) % 4.0;
        }
        let (peers, realized) = m.sample(&state, &mut rng, &gamma);
        let folded = m.fold(&peers);
        for (idx, (&f, &r)) in folded.iter().zip(realized.iter()).enumerate() {
            assert!(
                (f - r).abs() < 1e-9,
                "component {idx}: fold {f}, realized {r}"
            );
        }
    }

    #[test]
    fn mtsd_round_trip_is_exact_counts() {
        let m = model(SchemeKind::Mtsd);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let gamma = Exponential::new(0.05).unwrap();
        let mut state = vec![0.0; m.dim()];
        for (i, s) in state.iter_mut().enumerate() {
            *s = (i as f64 * 1.13) % 3.0;
        }
        let (peers, realized) = m.sample(&state, &mut rng, &gamma);
        let folded = m.fold(&peers);
        assert_eq!(folded, realized, "stage counts are integers — exact");
    }

    #[test]
    fn sampled_population_matches_downloader_projection() {
        let m = model(SchemeKind::Mtsd);
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let gamma = Exponential::new(0.05).unwrap();
        let mut state = vec![0.0; m.dim()];
        state[m.dim() / 4] = 12.0;
        let (peers, realized) = m.sample(&state, &mut rng, &gamma);
        let downloading = peers
            .iter()
            .filter(|p| p.phase == Phase::Downloading)
            .count();
        assert_eq!(downloading as f64, m.total_downloaders(&realized));
    }
}
