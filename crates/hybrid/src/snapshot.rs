//! Hybrid snapshots: checkpoint/resume for hybrid runs.
//!
//! A hybrid checkpoint is taken *between decision boundaries* and captures
//! everything the driver cannot re-derive from its config: the clock, the
//! active regime, the fluid state vector or the embedded engine snapshot
//! body, the handoff RNG stream, the per-class integrals, and the handoff
//! log. Boundaries, policy, and the fluid model are pure functions of the
//! config and are rebuilt on restore. Restore-then-run is bit-identical to
//! never having stopped — the same contract the engine snapshot keeps.
//!
//! The envelope is written with the engine's codec
//! ([`btfluid_des::snapshot`]): the same magic, writer, reader and
//! checksum, under its own version. The engine's *unsealed* body is
//! embedded and decoded with [`Snapshot::from_body`], so one checksum
//! covers the whole file. A config digest rejects a snapshot taken by a
//! different run; every decode failure is a typed
//! [`HybridError::Snapshot`].

use crate::driver::{segment_config, HybridConfig, HybridError, HybridRunner, ShiftedHook};
use crate::handoff::HandoffRecord;
use crate::policy::Regime;
use btfluid_des::snapshot::{self, Reader, Writer};
use btfluid_des::{Simulation, Snapshot, SnapshotError};
use btfluid_numkit::rng::Xoshiro256StarStar;

/// Hybrid snapshot version. The envelope shares the engine's `BTFS`
/// magic, so this must differ from [`snapshot::SNAPSHOT_VERSION`].
pub const HYBRID_SNAPSHOT_VERSION: u32 = 6;
const _: () = assert!(HYBRID_SNAPSHOT_VERSION != snapshot::SNAPSHOT_VERSION);

/// Digest of everything that parameterizes a run. Debug formatting of the
/// program is stable, covers every schedule/fault field, and is the same
/// representation the scenario hook fingerprint relies on.
fn config_digest(cfg: &HybridConfig) -> u64 {
    let mut bytes = format!("{:?}", cfg.program).into_bytes();
    bytes.extend_from_slice(cfg.scheme.name().as_bytes());
    bytes.extend_from_slice(&cfg.seed.to_le_bytes());
    bytes.extend_from_slice(&cfg.tol.to_bits().to_le_bytes());
    bytes.push(u8::from(cfg.aggregate));
    snapshot::checksum(&bytes)
}

/// Regimes travel as a bool: discrete or not.
fn regime_of(discrete: bool) -> Regime {
    if discrete {
        Regime::Discrete
    } else {
        Regime::Fluid
    }
}

impl HybridRunner {
    /// Serializes the full driver state (between decision boundaries)
    /// as a sealed snapshot file.
    pub fn snapshot(&self) -> Vec<u8> {
        Snapshot::seal(self.snapshot_body())
    }

    /// The snapshot minus its trailing checksum, which
    /// [`Snapshot::seal`] appends.
    pub fn snapshot_body(&self) -> Vec<u8> {
        let mut w = Writer::with_header(HYBRID_SNAPSHOT_VERSION, 256);
        w.u64(config_digest(self.config()));
        w.f64(self.t);
        w.bool(self.regime == Regime::Discrete);
        w.f64(self.seg_t0);
        w.u64(self.seg_seed);
        w.u64(self.segment);
        w.u64(self.next_boundary as u64);
        for word in self.rng_handoff.state() {
            w.u64(word);
        }
        w.u64(self.des_events);
        w.u64(self.fluid_steps);
        w.f64s(&self.integrals);
        w.f64s(&self.fluid);
        w.u64(self.handoffs.len() as u64);
        for h in &self.handoffs {
            w.f64(h.t);
            w.bool(h.to == Regime::Discrete);
            w.f64(h.pop);
        }
        w.bool(self.sim.is_some());
        if let Some(sim) = &self.sim {
            w.bytes(&sim.snapshot_body());
        }
        w.into_bytes()
    }

    /// Rebuilds a runner from `cfg` and a snapshot taken by an identical
    /// config; stepping on is bit-identical to never having stopped.
    ///
    /// # Errors
    /// Typed [`HybridError::Snapshot`] on truncation, checksum or digest
    /// mismatch, bad magic/version; propagates embedded-engine restore
    /// failures.
    pub fn resume(cfg: HybridConfig, bytes: &[u8]) -> Result<Self, HybridError> {
        let mut r = Reader::new(snapshot::unseal(bytes)?);
        let version = r.header()?;
        if version != HYBRID_SNAPSHOT_VERSION {
            return Err(HybridError::Snapshot(format!(
                "version {version}, expected {HYBRID_SNAPSHOT_VERSION}"
            )));
        }
        if r.u64()? != config_digest(&cfg) {
            return Err(HybridError::Snapshot(
                "config digest mismatch (snapshot from a different run)".into(),
            ));
        }
        let mut runner = Self::new(cfg)?;
        runner.t = r.f64()?;
        runner.regime = regime_of(r.bool()?);
        runner.seg_t0 = r.f64()?;
        runner.seg_seed = r.u64()?;
        runner.segment = r.u64()?;
        runner.next_boundary = r.u64()? as usize;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64()?;
        }
        runner.rng_handoff = Xoshiro256StarStar::from_state(rng_state);
        runner.des_events = r.u64()?;
        runner.fluid_steps = r.u64()?;
        let integrals = r.f64s()?;
        if integrals.len() != runner.integrals.len() {
            return Err(HybridError::Snapshot(format!(
                "integral count {} does not match K = {}",
                integrals.len(),
                runner.integrals.len()
            )));
        }
        runner.integrals = integrals;
        let fluid = r.f64s()?;
        if fluid.len() != runner.fluid.len() {
            return Err(HybridError::Snapshot(format!(
                "fluid dim {} does not match model dim {}",
                fluid.len(),
                runner.fluid.len()
            )));
        }
        runner.fluid = fluid;
        let n_handoffs = r.len(17)?;
        runner.handoffs = (0..n_handoffs)
            .map(|_| {
                Ok(HandoffRecord {
                    t: r.f64()?,
                    to: regime_of(r.bool()?),
                    pop: r.f64()?,
                })
            })
            .collect::<Result<_, SnapshotError>>()?;
        let engine = if r.bool()? { Some(r.bytes()?) } else { None };
        r.done()?;
        if let Some(body) = engine {
            let snap = Snapshot::from_body(body)
                .map_err(|e| HybridError::Snapshot(format!("embedded engine: {e}")))?;
            let seg_cfg = segment_config(runner.config(), runner.seg_t0, runner.seg_seed)?;
            let hook = Box::new(ShiftedHook::new(
                runner.config().program.hook(),
                runner.seg_t0,
            ));
            runner.sim = Some(Simulation::restore_with_hook(seg_cfg, &snap, hook)?);
        }
        Ok(runner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::amplified_flash_crowd;
    use btfluid_des::SchemeKind;

    fn cfg() -> HybridConfig {
        HybridConfig {
            program: amplified_flash_crowd(512.0, 0.005),
            scheme: SchemeKind::Mtcd,
            seed: 17,
            tol: 0.1,
            aggregate: true,
        }
    }

    #[test]
    fn corrupt_and_mismatched_snapshots_yield_typed_errors() {
        let runner = HybridRunner::new(cfg()).unwrap();
        let bytes = runner.snapshot();

        assert!(matches!(
            HybridRunner::resume(cfg(), b"BTFSgarbage"),
            Err(HybridError::Snapshot(_))
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(
            HybridRunner::resume(cfg(), &flipped),
            Err(HybridError::Snapshot(_))
        ));
        let mut other = cfg();
        other.seed = 18;
        assert!(matches!(
            HybridRunner::resume(other, &bytes),
            Err(HybridError::Snapshot(_))
        ));
        // The pristine bytes restore fine.
        assert!(HybridRunner::resume(cfg(), &bytes).is_ok());
    }
}
