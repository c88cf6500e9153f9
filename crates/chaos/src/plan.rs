//! Chaos plans: one randomized trial each, derived deterministically from
//! a SplitMix64 stream, plus the JSON codec the repro bundles use.
//!
//! A plan composes three fault axes the robustness stack must absorb
//! simultaneously:
//!
//! 1. **Scenario faults** — seed-outage / tracker-blackout windows on the
//!    workload itself (the churn the paper's swarms live under).
//! 2. **I/O faults** — a [`FaultScript`] firing ENOSPC/EIO/short-write/
//!    rename failures at exact operation indices on the harness write
//!    sites.
//! 3. **Kill/resume** — an event budget (DES) or a handoff-boundary index
//!    (hybrid, landing both mid-fluid and mid-discrete) where the run is
//!    stopped, checkpointed, torn down, and resumed.
//!
//! Every numeric knob is drawn from a coarse grid so the JSON round trip
//! is exact and the plan replays bit-identically.

use btfluid_des::SchemeKind;
use btfluid_numkit::rng::{RngCore, SplitMix64};
use btfluid_scenario::ScenarioProgram;
use btfluid_telemetry::faults::{FaultKind, FaultRule, FaultScript, FaultSite};
use btfluid_telemetry::json::Json;

/// Rule count that outlives any run: "this fault is permanent".
pub const PERMANENT: u64 = u64::MAX;

/// Which engine a plan exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Pure event-driven run under a stationary scenario hook.
    Des,
    /// Hybrid fluid/DES run under the amplified flash crowd.
    Hybrid,
}

impl ChaosMode {
    fn name(self) -> &'static str {
        match self {
            ChaosMode::Des => "des",
            ChaosMode::Hybrid => "hybrid",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "des" => Some(ChaosMode::Des),
            "hybrid" => Some(ChaosMode::Hybrid),
            _ => None,
        }
    }
}

/// One randomized trial: scenario × fault script × kill point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Index within the generating sweep (stable across reruns).
    pub index: u64,
    /// Engine seed.
    pub seed: u64,
    /// Which engine the plan runs.
    pub mode: ChaosMode,
    /// Download scheme (the generator emits MTCD/MTSD — the two with
    /// scheduled fluid counterparts, so both modes accept them).
    pub scheme: SchemeKind,
    /// Optional seed-outage window on the scenario (DES only).
    pub seed_outage: Option<(f64, f64)>,
    /// Optional tracker-blackout window on the scenario (DES only).
    pub tracker_blackout: Option<(f64, f64)>,
    /// I/O fault schedule, armed for the chaos legs only.
    pub script: FaultScript,
    /// Kill point: DES = stop at this engine event count then resume;
    /// hybrid = checkpoint-and-resume at this handoff boundary index.
    pub kill_at: Option<u64>,
    /// Attach a JSONL trace sink (DES only) so trace-site faults bite.
    pub trace: bool,
}

impl ChaosPlan {
    /// Compiles the DES scenario this plan runs (mode `Des` only): a
    /// small stationary program with the plan's fault windows folded in.
    pub fn program(&self) -> ScenarioProgram {
        let lambda0 = 1.0 + 0.5 * (self.seed % 4) as f64;
        let mut program = ScenarioProgram::stationary("chaos", lambda0, 0.5, 2, 300.0, 50.0, 300.0);
        if let Some(w) = self.seed_outage {
            program.faults.seed_outages = vec![w];
        }
        if let Some(w) = self.tracker_blackout {
            program.faults.tracker_blackouts = vec![w];
        }
        program
    }

    /// JSON form (the `plan` member of `chaos.json`).
    pub fn to_json(&self) -> Json {
        let window = |w: (f64, f64)| Json::Arr(vec![Json::num_f64(w.0), Json::num_f64(w.1)]);
        let mut fields = vec![
            ("index".into(), Json::num_u64(self.index)),
            ("seed".into(), Json::num_u64(self.seed)),
            ("mode".into(), Json::Str(self.mode.name().into())),
            ("scheme".into(), Json::Str(scheme_name(self.scheme).into())),
        ];
        if let Some(w) = self.seed_outage {
            fields.push(("seed_outage".into(), window(w)));
        }
        if let Some(w) = self.tracker_blackout {
            fields.push(("tracker_blackout".into(), window(w)));
        }
        let rules = self
            .script
            .rules
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("site".into(), Json::Str(r.site.name().into())),
                    ("kind".into(), Json::Str(r.kind.name().into())),
                    ("from_op".into(), Json::num_u64(r.from_op)),
                    ("count".into(), Json::num_u64(r.count)),
                ])
            })
            .collect();
        fields.push(("rules".into(), Json::Arr(rules)));
        if let Some(k) = self.kill_at {
            fields.push(("kill_at".into(), Json::num_u64(k)));
        }
        fields.push(("trace".into(), Json::Bool(self.trace)));
        Json::Obj(fields)
    }

    /// Decodes a plan from its JSON form.
    ///
    /// # Errors
    /// A human-readable description of the first malformed member.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let window = |v: &Json| -> Option<(f64, f64)> {
            let arr = v.as_arr()?;
            Some((arr.first()?.as_f64()?, arr.get(1)?.as_f64()?))
        };
        let mode = v
            .get("mode")
            .and_then(Json::as_str)
            .and_then(ChaosMode::from_name)
            .ok_or("plan: bad mode")?;
        let scheme = v
            .get("scheme")
            .and_then(Json::as_str)
            .and_then(scheme_from_name)
            .ok_or("plan: bad scheme")?;
        let mut rules = Vec::new();
        for r in v
            .get("rules")
            .and_then(Json::as_arr)
            .ok_or("plan: missing rules")?
        {
            let site = r
                .get("site")
                .and_then(Json::as_str)
                .and_then(FaultSite::from_name)
                .ok_or("plan: bad rule site")?;
            let kind = r
                .get("kind")
                .and_then(Json::as_str)
                .and_then(FaultKind::from_name)
                .ok_or("plan: bad rule kind")?;
            rules.push(FaultRule {
                site,
                kind,
                from_op: r
                    .get("from_op")
                    .and_then(Json::as_u64)
                    .ok_or("plan: bad rule from_op")?,
                count: r
                    .get("count")
                    .and_then(Json::as_u64)
                    .ok_or("plan: bad rule count")?,
            });
        }
        Ok(ChaosPlan {
            index: v
                .get("index")
                .and_then(Json::as_u64)
                .ok_or("plan: missing index")?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("plan: missing seed")?,
            mode,
            scheme,
            seed_outage: v.get("seed_outage").and_then(window),
            tracker_blackout: v.get("tracker_blackout").and_then(window),
            script: FaultScript { rules },
            kill_at: v.get("kill_at").and_then(Json::as_u64),
            trace: v.get("trace").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

fn scheme_name(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Mtcd => "mtcd",
        SchemeKind::Mtsd => "mtsd",
        // The generator never emits the others; map them anyway so a
        // hand-edited bundle fails at decode, not silently.
        SchemeKind::Mfcd => "mfcd",
        SchemeKind::Cmfsd { .. } => "cmfsd",
    }
}

fn scheme_from_name(s: &str) -> Option<SchemeKind> {
    match s {
        "mtcd" => Some(SchemeKind::Mtcd),
        "mtsd" => Some(SchemeKind::Mtsd),
        _ => None,
    }
}

/// Generates `n` plans from `master_seed`. Same seed → same plans,
/// bit for bit.
pub fn generate(master_seed: u64, n: u64) -> Vec<ChaosPlan> {
    let mut master = SplitMix64::new(master_seed);
    (0..n)
        .map(|index| {
            let mut rng = SplitMix64::new(master.split());
            generate_one(index, &mut rng)
        })
        .collect()
}

fn generate_one(index: u64, rng: &mut SplitMix64) -> ChaosPlan {
    let pick = |rng: &mut SplitMix64, n: u64| rng.next_u64() % n;
    let mode = if pick(rng, 4) == 0 {
        ChaosMode::Hybrid
    } else {
        ChaosMode::Des
    };
    let scheme = if pick(rng, 2) == 0 {
        SchemeKind::Mtcd
    } else {
        SchemeKind::Mtsd
    };
    let seed = rng.next_u64();

    // Scenario fault windows on a coarse decimal grid (exact JSON round
    // trip): start in [60, 200), length in [20, 60).
    let grid_window = |rng: &mut SplitMix64| {
        let start = 60.0 + 20.0 * pick(rng, 8) as f64;
        let len = 20.0 + 10.0 * pick(rng, 4) as f64;
        (start, start + len)
    };
    let (seed_outage, tracker_blackout) = if mode == ChaosMode::Des {
        (
            (pick(rng, 2) == 0).then(|| grid_window(rng)),
            (pick(rng, 3) == 0).then(|| grid_window(rng)),
        )
    } else {
        (None, None)
    };

    let trace = mode == ChaosMode::Des && pick(rng, 4) == 0;
    let mut rules = Vec::new();
    for _ in 0..pick(rng, 4) {
        // Trace sites only when a sink will be attached; otherwise the
        // rule would be inert and shrinking would have dead weight.
        let sites: &[FaultSite] = if trace {
            &[
                FaultSite::CheckpointWrite,
                FaultSite::CheckpointRename,
                FaultSite::TraceWrite,
                FaultSite::TraceFinish,
            ]
        } else {
            &[FaultSite::CheckpointWrite, FaultSite::CheckpointRename]
        };
        let site = sites[pick(rng, sites.len() as u64) as usize];
        let kinds: &[FaultKind] = match site {
            FaultSite::CheckpointWrite | FaultSite::TraceWrite => {
                &[FaultKind::Enospc, FaultKind::Eio, FaultKind::ShortWrite]
            }
            _ => &[FaultKind::RenameFail, FaultKind::Eio],
        };
        let kind = kinds[pick(rng, kinds.len() as u64) as usize];
        let count = if pick(rng, 8) == 0 {
            PERMANENT
        } else {
            1 + pick(rng, 3)
        };
        rules.push(FaultRule {
            site,
            kind,
            from_op: pick(rng, 4),
            count,
        });
    }

    let kill_at = match mode {
        ChaosMode::Des => (pick(rng, 10) < 7).then(|| 100 + 100 * pick(rng, 15)),
        ChaosMode::Hybrid => (pick(rng, 10) < 7).then(|| 1 + pick(rng, 4)),
    };

    ChaosPlan {
        index,
        seed,
        mode,
        scheme,
        seed_outage,
        tracker_blackout,
        script: FaultScript { rules },
        kill_at,
        trace,
    }
}

/// The expect-fail canary: a plan whose checkpoint writes are *silently*
/// corrupted (lying-disk `CorruptWrite`, outside the survivable fault
/// model the random generator draws from) with a kill/resume on top. The
/// resume must detect the corruption via the snapshot checksum — a typed
/// error, so the run cannot complete, which the invariant catalog reports
/// as a `run-completes` violation. CI asserts this canary is caught,
/// shrunk, and exits 4.
pub fn canary(master_seed: u64) -> ChaosPlan {
    let mut rng = SplitMix64::new(master_seed ^ 0xbad0_cafe);
    ChaosPlan {
        index: 0,
        seed: rng.next_u64(),
        mode: ChaosMode::Des,
        scheme: SchemeKind::Mtcd,
        seed_outage: Some((60.0, 90.0)),
        tracker_blackout: None,
        script: FaultScript {
            rules: vec![FaultRule {
                site: FaultSite::CheckpointWrite,
                kind: FaultKind::CorruptWrite,
                from_op: 0,
                count: PERMANENT,
            }],
        },
        kill_at: Some(400),
        trace: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_json_round_trips() {
        let a = generate(42, 32);
        let b = generate(42, 32);
        assert_eq!(a, b, "same seed must generate identical plans");
        let c = generate(43, 32);
        assert_ne!(a, c, "different seeds must diverge");
        for plan in &a {
            let text = plan.to_json().to_string();
            let back = ChaosPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(*plan, back, "JSON round trip must be exact");
            if plan.mode == ChaosMode::Des {
                plan.program().validate().unwrap();
            }
        }
    }

    #[test]
    fn canary_corrupts_checkpoints_and_kills() {
        let plan = canary(7);
        assert_eq!(plan, canary(7));
        assert!(plan.kill_at.is_some());
        assert!(plan
            .script
            .rules
            .iter()
            .any(|r| r.kind == FaultKind::CorruptWrite));
    }
}
