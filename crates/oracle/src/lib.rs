//! # btfluid-oracle — the differential self-check oracle
//!
//! Three independent implementations of the paper's models live in this
//! workspace: the closed-form steady states (`btfluid-core`), the transient
//! fluid ODE (`btfluid-scenario`) and the discrete-event simulator
//! (`btfluid-des`, itself in two rate-refresh modes). None of them is a
//! trusted reference — but the *paper* supplies exact relationships they
//! must all satisfy, and wherever two implementations answer the same
//! question they must agree. This crate packages those relationships as a
//! registry of runnable checks:
//!
//! - **Invariants** ([`invariants`]): metamorphic identities of the
//!   analytic layers — binomial class-rate mass, MTCD ≡ MFCD, MTSD's
//!   `p`-invariance, CMFSD's ρ- and K-limits, monotonicity in ρ.
//! - **Differential** ([`differential`]): full-recompute-vs-incremental DES
//!   bit-equivalence, aggregate-mode determinism and distribution
//!   equivalence (class means vs the per-peer path and the ODE),
//!   checked-mode audits, DES vs the fluid ODE and the closed forms, and
//!   a supervised multi-cell sweep.
//! - **Structural** ([`structural`]): decoder fuzz — mutated snapshots
//!   must yield typed errors, traces with non-finite samples must stay
//!   valid JSONL.
//!
//! The registry also contains a **mutation canary**
//! ([`differential::mutation_canary`]): it corrupts a live engine's rate
//! cache on purpose and *fails unless the audit notices*. `btfluid
//! selfcheck --expect-fail` inverts that check's polarity at the CLI to
//! prove end to end that a detected violation reaches the right exit code.
//!
//! Checks come in two tiers: [`Tier::Quick`] runs on every invocation
//! (sub-second each), [`Tier::Full`] adds the simulation-heavy
//! comparisons behind `--full`.

pub mod differential;
pub mod invariants;
pub mod report;
pub mod structural;

pub use report::{Check, CheckOutcome, OracleConfig, OracleReport, Tier};

use btfluid_telemetry::{diag, Level};
use std::time::Instant;

/// The built-in check registry, in execution order (cheap analytics first,
/// simulations last).
pub fn registry() -> Vec<Check> {
    vec![
        Check {
            name: "binomial-class-mass",
            paper_ref: "Sec. 4.1 (class rates λᵢ)",
            tier: Tier::Quick,
            run: invariants::binomial_class_mass,
        },
        Check {
            name: "per-torrent-mass",
            paper_ref: "Sec. 4.1 (per-torrent rates λⱼⁱ)",
            tier: Tier::Quick,
            run: invariants::per_torrent_mass_and_entrant_mean,
        },
        Check {
            name: "mtcd-equiv-mfcd",
            paper_ref: "Sec. 3.4 (fluid equivalence)",
            tier: Tier::Quick,
            run: invariants::mtcd_equals_mfcd,
        },
        Check {
            name: "mtsd-p-invariance",
            paper_ref: "Eqs. 3–4 (online/file = 80)",
            tier: Tier::Quick,
            run: invariants::mtsd_p_invariance,
        },
        Check {
            name: "cmfsd-rho-one-mfcd",
            paper_ref: "Eq. 5, ρ → 1 limit",
            tier: Tier::Quick,
            run: invariants::cmfsd_rho_one_equals_mfcd,
        },
        Check {
            name: "cmfsd-k1-mtsd",
            paper_ref: "Eq. 5, K = 1 limit",
            tier: Tier::Quick,
            run: invariants::cmfsd_k1_equals_mtsd,
        },
        Check {
            name: "cmfsd-monotone-rho",
            paper_ref: "Sec. 4.3 (virtual seeding helps)",
            tier: Tier::Quick,
            run: invariants::cmfsd_monotone_in_rho,
        },
        Check {
            name: "trace-jsonl-round-trip",
            paper_ref: "telemetry contract (no NaN in JSONL)",
            tier: Tier::Quick,
            run: structural::trace_jsonl_round_trip,
        },
        Check {
            name: "snapshot-fuzz",
            paper_ref: "snapshot contract (typed errors, no panic)",
            tier: Tier::Quick,
            run: structural::snapshot_fuzz,
        },
        Check {
            name: "hybrid-snapshot-fuzz",
            paper_ref: "hybrid snapshot contract (typed errors, no panic)",
            tier: Tier::Quick,
            run: structural::hybrid_snapshot_fuzz,
        },
        Check {
            name: "trace-codec-fuzz",
            paper_ref: "trace codec contract (typed errors, no panic)",
            tier: Tier::Quick,
            run: structural::trace_codec_fuzz,
        },
        Check {
            name: "flightrec-round-trip",
            paper_ref: "flight dump contract (last-capacity window, read by read_trace)",
            tier: Tier::Quick,
            run: structural::flightrec_round_trip,
        },
        Check {
            name: "des-full-vs-incremental",
            paper_ref: "engine contract (full recompute ≡ incremental)",
            tier: Tier::Quick,
            run: differential::full_vs_incremental,
        },
        Check {
            name: "des-checked-audit",
            paper_ref: "engine contract (invariant audit clean)",
            tier: Tier::Quick,
            run: differential::checked_run_is_clean,
        },
        Check {
            name: "mutation-canary",
            paper_ref: "oracle contract (detector detects)",
            tier: Tier::Quick,
            run: differential::mutation_canary,
        },
        Check {
            name: "des-aggregate-determinism",
            paper_ref: "engine contract (aggregate mode reproducible)",
            tier: Tier::Quick,
            run: differential::aggregate_determinism,
        },
        Check {
            name: "des-aggregate-vs-incremental",
            paper_ref: "Sec. 3 (class-level Markov means)",
            tier: Tier::Full,
            run: differential::aggregate_vs_incremental_means,
        },
        Check {
            name: "des-aggregate-insensitivity",
            paper_ref: "Sec. 3.4 (PS insensitivity of download populations)",
            tier: Tier::Full,
            run: differential::aggregate_insensitivity,
        },
        Check {
            name: "des-vs-fluid-transient",
            paper_ref: "Sec. 4 (DES tracks the ODE)",
            tier: Tier::Full,
            run: differential::des_vs_fluid_transient,
        },
        Check {
            name: "des-vs-closed-form-mtsd",
            paper_ref: "Eqs. 3–4 (DES hits 80)",
            tier: Tier::Full,
            run: differential::des_vs_closed_form_mtsd,
        },
        Check {
            name: "supervised-scheme-cells",
            paper_ref: "harness contract (4 schemes, parallel cells)",
            tier: Tier::Full,
            run: differential::supervised_scheme_cells,
        },
        Check {
            name: "hybrid-vs-des",
            paper_ref: "fluid-limit convergence (hybrid tracks pure DES)",
            tier: Tier::Full,
            run: differential::hybrid_vs_des,
        },
        Check {
            name: "trace-fit-closure",
            paper_ref: "Sec. 3 moments (fit → synthesize → refit closes)",
            tier: Tier::Full,
            run: differential::trace_fit_closure,
        },
    ]
}

/// Runs every registered check enabled by `cfg` and collects the report.
pub fn run_all(cfg: &OracleConfig) -> OracleReport {
    let started = Instant::now();
    let mut outcomes = Vec::new();
    for check in &registry() {
        if check.tier == Tier::Full && !cfg.full {
            continue;
        }
        diag!(Level::Debug, "oracle: running {}", check.name);
        let outcome = report::execute(check, cfg);
        diag!(
            if outcome.passed {
                Level::Debug
            } else {
                Level::Warn
            },
            "oracle: {} {} in {} ms — {}",
            check.name,
            if outcome.passed { "passed" } else { "FAILED" },
            outcome.wall_ms,
            outcome.detail
        );
        outcomes.push(outcome);
    }
    OracleReport {
        outcomes,
        wall_ms: started.elapsed().as_millis() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_kebab() {
        let checks = registry();
        let mut names: Vec<&str> = checks.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate check names");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "non-kebab check name {name:?}"
            );
        }
    }

    #[test]
    fn quick_tier_passes() {
        let report = run_all(&OracleConfig::default());
        assert!(
            report.all_passed(),
            "quick-tier failures: {:?}\n{:#?}",
            report.failures(),
            report
                .outcomes
                .iter()
                .filter(|o| !o.passed)
                .map(|o| (&o.name, &o.detail))
                .collect::<Vec<_>>()
        );
        // Quick tier excludes the Full checks.
        assert!(report.outcomes.len() < registry().len());
    }

    #[test]
    fn full_flag_enables_everything() {
        let cfg = OracleConfig {
            full: true,
            ..OracleConfig::default()
        };
        // Only count the plan here — the full runs execute in the (slower)
        // integration suite and the CLI.
        let enabled = registry()
            .iter()
            .filter(|c| c.tier == Tier::Quick || cfg.full)
            .count();
        assert_eq!(enabled, registry().len());
    }

    #[test]
    fn seed_changes_detail_but_not_verdict() {
        let a = run_all(&OracleConfig {
            seed: 1,
            full: false,
        });
        let b = run_all(&OracleConfig {
            seed: 2,
            full: false,
        });
        assert!(a.all_passed() && b.all_passed());
        assert_eq!(a.outcomes.len(), b.outcomes.len());
    }
}
