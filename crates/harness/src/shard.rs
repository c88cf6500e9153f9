//! Rayon-sharded multi-run driver.
//!
//! [`run_shards`] executes a batch of independent engine configurations on
//! the workspace thread pool and returns one compact, order-preserving
//! summary per run. Unlike [`crate::supervisor::run_sweep`] there is no
//! journal, no checkpointing, and no quarantine — this is the light-weight
//! path for callers that need many *whole* runs fast and in memory: the
//! oracle's aggregate-vs-incremental equivalence check, seed-replication
//! studies, and bench drivers comparing scheduling modes.
//!
//! The first engine error aborts the batch (collection short-circuits like
//! a sequential `collect::<Result<_, _>>`), so a `checked`-mode invariant
//! violation in any shard surfaces as the batch result rather than being
//! averaged away.

use crate::HarnessError;
use btfluid_des::{Counters, DesConfig, Simulation};
use rayon::prelude::*;

/// One run in a shard batch.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Label echoed back in the matching [`ShardOutcome`].
    pub id: String,
    /// Engine configuration; seed and scheduling mode are baked in.
    pub cfg: DesConfig,
}

/// Compact summary of one completed shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Label from the [`ShardSpec`].
    pub id: String,
    /// Events dispatched over the whole run.
    pub events: u64,
    /// Users counted in the stationary window.
    pub users: usize,
    /// Users still in flight at the hard stop.
    pub censored: usize,
    /// Mean online time per requested file (NaN when no users completed,
    /// so callers aggregating across seeds notice the hole).
    pub avg_online_per_file: f64,
    /// Per-class mean fluid-online time (index 0 ↔ class 1; NaN for
    /// classes with no completed users).
    pub class_online_mean: Vec<f64>,
    /// Per-class completed-user counts (same indexing).
    pub class_count: Vec<u64>,
    /// Time-averaged active (peer,file) download pairs per class over the
    /// stationary window — the processor-sharing-insensitive population
    /// measure, comparable across scheduling modes.
    pub class_download_pairs: Vec<f64>,
    /// The engine's hot-loop counters — lets callers compare work done
    /// per scheduling mode (e.g. `rate_recomputes` vs `agg_samples`).
    pub counters: Counters,
}

fn run_one(spec: ShardSpec) -> Result<ShardOutcome, HarnessError> {
    let mut sim = Simulation::new(spec.cfg)?;
    while sim.step()? {}
    let counters = sim.counters();
    let outcome = sim.finish();
    let avg = outcome.avg_online_per_file().unwrap_or(f64::NAN);
    let class_online_mean = outcome
        .classes
        .iter()
        .map(|c| {
            if c.count() > 0 {
                c.online.mean()
            } else {
                f64::NAN
            }
        })
        .collect();
    let class_count = outcome.classes.iter().map(|c| c.count()).collect();
    let class_download_pairs = (1..=outcome.k())
        .map(|i| outcome.population.avg_download_pairs(i))
        .collect();
    Ok(ShardOutcome {
        id: spec.id,
        events: outcome.events,
        users: outcome.records.len(),
        censored: outcome.censored,
        avg_online_per_file: avg,
        class_online_mean,
        class_count,
        class_download_pairs,
        counters,
    })
}

/// Runs every spec to completion on the thread pool; results come back in
/// input order. The first engine failure (construction or a `checked`
/// invariant violation) aborts the batch.
pub fn run_shards(specs: Vec<ShardSpec>) -> Result<Vec<ShardOutcome>, HarnessError> {
    specs.into_par_iter().map(run_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_des::SchemeKind;

    fn short(scheme: SchemeKind, seed: u64, aggregate: bool) -> DesConfig {
        let mut cfg = DesConfig::paper_small(scheme, 0.5, seed).expect("config");
        cfg.horizon = 400.0;
        cfg.warmup = 100.0;
        cfg.drain = 400.0;
        cfg.aggregate = aggregate;
        cfg
    }

    #[test]
    fn batch_preserves_order_and_summarizes() {
        let specs = vec![
            ShardSpec {
                id: "per-peer".into(),
                cfg: short(SchemeKind::Mtsd, 11, false),
            },
            ShardSpec {
                id: "aggregate".into(),
                cfg: short(SchemeKind::Mtsd, 11, true),
            },
        ];
        let out = run_shards(specs).expect("batch");
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, "per-peer");
        assert_eq!(out[1].id, "aggregate");
        for o in &out {
            assert!(o.events > 0 && o.users > 0, "{}: empty run", o.id);
            assert!(o.avg_online_per_file.is_finite());
            assert_eq!(o.class_online_mean.len(), o.class_count.len());
        }
        // Mode-specific counters land on the right side.
        assert!(out[0].counters.agg_samples == 0);
        assert!(out[1].counters.agg_samples > 0);
        assert!(out[1].counters.rate_recomputes == 0);
    }

    #[test]
    fn same_seed_same_mode_is_deterministic_across_threads() {
        let mk = |id: &str| ShardSpec {
            id: id.into(),
            cfg: short(SchemeKind::Cmfsd { rho: 0.4 }, 23, true),
        };
        let out = run_shards(vec![mk("a"), mk("b"), mk("c"), mk("d")]).expect("batch");
        for o in &out[1..] {
            assert_eq!(o.events, out[0].events);
            assert_eq!(o.users, out[0].users);
            assert_eq!(
                o.avg_online_per_file.to_bits(),
                out[0].avg_online_per_file.to_bits()
            );
        }
    }

    #[test]
    fn first_engine_error_aborts_the_batch() {
        let mut bad = short(SchemeKind::Mtsd, 5, true);
        bad.horizon = 0.0; // rejected by validation
        let specs = vec![
            ShardSpec {
                id: "good".into(),
                cfg: short(SchemeKind::Mtsd, 5, false),
            },
            ShardSpec {
                id: "bad".into(),
                cfg: bad,
            },
        ];
        assert!(run_shards(specs).is_err());
    }
}
