//! Chaos repro bundles: a directory holding `chaos.json` — the shrunk
//! failing plan, the violations it produced, and the shrink accounting —
//! replayable with `btfluid repro <dir>` (which distinguishes chaos
//! bundles from supervisor cell bundles by the file name).

use crate::exec::Violation;
use crate::plan::ChaosPlan;
use btfluid_telemetry::json::Json;
use std::path::Path;

/// Bundle format version; bumped on incompatible `chaos.json` changes.
pub const CHAOS_BUNDLE_VERSION: u64 = 1;

/// A shrunk failing plan plus the evidence, ready to replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosBundle {
    /// The master seed the failing plan was generated from.
    pub master_seed: u64,
    /// The (shrunk) failing plan.
    pub plan: ChaosPlan,
    /// Violations observed when the plan ran.
    pub violations: Vec<Violation>,
    /// Plan evaluations the shrinker spent.
    pub shrink_evals: u32,
    /// Flight-recorder dump (a btfluid-trace run) from the violating
    /// run, written as a sibling `flightrec.jsonl` when present.
    pub flight: Option<String>,
}

impl ChaosBundle {
    /// Writes `chaos.json` into `dir` (created if needed) with the atomic
    /// temp-file-and-rename discipline.
    ///
    /// # Errors
    /// Underlying filesystem errors.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let doc = Json::Obj(vec![
            ("version".into(), Json::num_u64(CHAOS_BUNDLE_VERSION)),
            ("master_seed".into(), Json::num_u64(self.master_seed)),
            ("plan".into(), self.plan.to_json()),
            (
                "violations".into(),
                Json::Arr(
                    self.violations
                        .iter()
                        .map(|v| {
                            Json::Obj(vec![
                                ("invariant".into(), Json::Str(v.invariant.clone())),
                                ("detail".into(), Json::Str(v.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shrink_evals".into(),
                Json::num_u64(u64::from(self.shrink_evals)),
            ),
        ]);
        btfluid_harness::atomic_write(&dir.join("chaos.json"), format!("{doc}\n").as_bytes())?;
        let flight_path = dir.join("flightrec.jsonl");
        match &self.flight {
            Some(dump) => btfluid_harness::atomic_write(&flight_path, dump.as_bytes())?,
            None => {
                // Delete a stale dump from an earlier bundle of the same
                // cell, so the directory never mixes generations.
                if let Err(e) = std::fs::remove_file(&flight_path) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Reads a bundle directory back.
    ///
    /// # Errors
    /// A human-readable description of the I/O or decode failure.
    pub fn read(dir: &Path) -> Result<Self, String> {
        let path = dir.join("chaos.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("chaos.json: {e}"))?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("chaos.json: missing version")?;
        if version != CHAOS_BUNDLE_VERSION {
            return Err(format!(
                "chaos.json: version {version} unsupported (want {CHAOS_BUNDLE_VERSION})"
            ));
        }
        let mut violations = Vec::new();
        for v in doc
            .get("violations")
            .and_then(Json::as_arr)
            .ok_or("chaos.json: missing violations")?
        {
            violations.push(Violation {
                invariant: v
                    .get("invariant")
                    .and_then(Json::as_str)
                    .ok_or("chaos.json: bad violation")?
                    .to_string(),
                detail: v
                    .get("detail")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            });
        }
        Ok(ChaosBundle {
            master_seed: doc
                .get("master_seed")
                .and_then(Json::as_u64)
                .ok_or("chaos.json: missing master_seed")?,
            plan: ChaosPlan::from_json(doc.get("plan").ok_or("chaos.json: missing plan")?)?,
            violations,
            shrink_evals: doc
                .get("shrink_evals")
                .and_then(Json::as_u64)
                .and_then(|x| u32::try_from(x).ok())
                .unwrap_or(0),
            flight: match std::fs::read_to_string(dir.join("flightrec.jsonl")) {
                Ok(dump) => Some(dump),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(format!("flightrec.jsonl: {e}")),
            },
        })
    }

    /// Whether `dir` holds a chaos bundle (vs a supervisor cell bundle).
    pub fn is_chaos_dir(dir: &Path) -> bool {
        dir.join("chaos.json").is_file()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan;
    use btfluid_telemetry::ScratchDir;

    #[test]
    fn bundle_round_trips() {
        let bundle = ChaosBundle {
            master_seed: 99,
            plan: plan::canary(99),
            violations: vec![Violation {
                invariant: "run-completes".into(),
                detail: "resume leg: Engine(Snapshot(..))".into(),
            }],
            shrink_evals: 17,
            flight: Some(
                "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\",\"capacity\":4,\
                 \"total\":1,\"dropped\":0}\n\
                 {\"kind\":\"flight\",\"k\":\"pop\",\"t\":1.5,\"ev\":1,\"a\":1,\"b\":0}\n"
                    .into(),
            ),
        };
        let scratch = ScratchDir::new("chaos-bundle").unwrap();
        let dir = scratch.join("roundtrip");
        bundle.write(&dir).unwrap();
        assert!(ChaosBundle::is_chaos_dir(&dir));
        let back = ChaosBundle::read(&dir).unwrap();
        assert_eq!(bundle, back);
        // A rewrite without a dump clears the stale member.
        let bare = ChaosBundle {
            flight: None,
            ..bundle
        };
        bare.write(&dir).unwrap();
        assert!(!dir.join("flightrec.jsonl").exists());
        assert_eq!(ChaosBundle::read(&dir).unwrap().flight, None);
    }

    #[test]
    fn missing_and_corrupt_bundles_are_typed() {
        let scratch = ScratchDir::new("chaos-bundle").unwrap();
        let dir = scratch.join("nope");
        assert!(!ChaosBundle::is_chaos_dir(&dir));
        assert!(ChaosBundle::read(&dir).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chaos.json"), "{not json").unwrap();
        assert!(ChaosBundle::read(&dir).is_err());
    }
}
