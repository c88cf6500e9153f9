//! Independent replications in parallel, with merged summaries.

use crate::config::DesConfig;
use crate::engine::Simulation;
use crate::observer::SimOutcome;
use btfluid_numkit::stats::{Confidence, Welford};
use btfluid_numkit::NumError;
use rayon::prelude::*;

/// Aggregated results over `R` independent replications.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// One accumulator over the per-replication *average online time per
    /// file* values (so the CI is a true replication CI).
    pub online_per_file: Welford,
    /// Same for download time per file.
    pub download_per_file: Welford,
    /// Total censored users across replications.
    pub censored: usize,
    /// The individual outcomes (for deeper inspection).
    pub outcomes: Vec<SimOutcome>,
}

impl ReplicationSummary {
    /// 95% confidence half-width on the population online-per-file mean.
    pub fn online_ci95(&self) -> f64 {
        self.online_per_file.ci_half_width(Confidence::P95)
    }
}

/// Runs `replications` independent simulations (seeds `base_seed + r`) in
/// parallel and merges the results.
///
/// # Errors
/// Propagates configuration validation errors; a replication that records
/// no completed user also fails (enlarge the horizon or `λ₀`).
pub fn run_replications(
    cfg: &DesConfig,
    replications: usize,
    base_seed: u64,
) -> Result<ReplicationSummary, NumError> {
    if replications == 0 {
        return Err(NumError::InvalidInput {
            what: "run_replications",
            detail: "need at least one replication".into(),
        });
    }
    cfg.validate()?;
    let outcomes: Vec<Result<SimOutcome, NumError>> = (0..replications)
        .into_par_iter()
        .map(|r| {
            let mut c = cfg.clone();
            c.seed = base_seed.wrapping_add(r as u64);
            Ok(Simulation::new(c)?.run())
        })
        .collect();
    let mut merged = ReplicationSummary {
        online_per_file: Welford::new(),
        download_per_file: Welford::new(),
        censored: 0,
        outcomes: Vec::with_capacity(replications),
    };
    for outcome in outcomes {
        let o = outcome?;
        merged.online_per_file.push(o.avg_online_per_file()?);
        merged.download_per_file.push(o.avg_download_per_file()?);
        merged.censored += o.censored;
        merged.outcomes.push(o);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DesConfig, SchemeKind};

    fn small_cfg() -> DesConfig {
        let mut cfg = DesConfig::paper_small(SchemeKind::Mtsd, 0.4, 0).unwrap();
        // Keep the test fast.
        cfg.horizon = 2000.0;
        cfg.warmup = 500.0;
        cfg.drain = 2500.0;
        cfg
    }

    #[test]
    fn zero_replications_rejected() {
        assert!(run_replications(&small_cfg(), 0, 1).is_err());
    }

    #[test]
    fn replications_reduce_uncertainty() {
        let cfg = small_cfg();
        let s = run_replications(&cfg, 4, 100).unwrap();
        assert_eq!(s.outcomes.len(), 4);
        assert_eq!(s.online_per_file.count(), 4);
        // MTSD fluid prediction: 80 per file.
        let mean = s.online_per_file.mean();
        assert!((mean - 80.0).abs() < 8.0, "mean = {mean}");
        assert!(s.online_ci95().is_finite());
    }

    #[test]
    fn distinct_base_seeds_give_distinct_results() {
        let cfg = small_cfg();
        let a = run_replications(&cfg, 1, 1).unwrap();
        let b = run_replications(&cfg, 1, 2).unwrap();
        assert_ne!(
            a.online_per_file.mean(),
            b.online_per_file.mean(),
            "different seeds should differ"
        );
    }

    #[test]
    fn same_base_seed_is_reproducible() {
        let cfg = small_cfg();
        let a = run_replications(&cfg, 2, 5).unwrap();
        let b = run_replications(&cfg, 2, 5).unwrap();
        assert_eq!(a.online_per_file.mean(), b.online_per_file.mean());
    }
}
