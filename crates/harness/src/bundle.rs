//! Repro bundles: everything needed to replay a failed cell.
//!
//! When the supervisor quarantines a cell it writes a directory holding
//! `repro.json` — the full [`DesConfig`], the scenario reference (if the
//! cell ran under a hook), the failure reason, and any injected-panic
//! schedule — plus `checkpoint.snap`, the last engine snapshot captured
//! before the failure (when one exists). `btfluid repro <dir>` loads the
//! bundle and re-runs the cell from the checkpoint, reproducing the
//! failure deterministically or demonstrating it is gone.

use crate::error::{io_err, HarnessError};
use btfluid_core::adapt::AdaptConfig;
use btfluid_core::FluidParams;
use btfluid_des::{AdaptSetup, DesConfig, OrderPolicy, ScenarioHook, SchemeKind};
use btfluid_scenario::registry;
use btfluid_telemetry::json::Json;
use btfluid_workload::CorrelationModel;
use std::path::Path;

/// Bundle format version; bumped on incompatible `repro.json` changes.
pub const BUNDLE_VERSION: u64 = 1;

/// One bundle file write, routed through the chaos injection seam so a
/// scripted ENOSPC/EIO/short write on the `bundle-write` site surfaces as
/// the typed I/O error the real failure would.
fn bundle_write(path: &Path, bytes: &[u8]) -> Result<(), HarnessError> {
    use btfluid_telemetry::faults::{self, FaultSite, WritePlan};
    match faults::write_plan(FaultSite::BundleWrite, bytes.len()) {
        WritePlan::Full | WritePlan::Corrupt => {}
        WritePlan::Short(n, e) => {
            let _ = std::fs::write(path, &bytes[..n]);
            return Err(io_err(path, e));
        }
        WritePlan::Fail(e) => return Err(io_err(path, e)),
    }
    std::fs::write(path, bytes).map_err(|e| io_err(path, e))
}

/// A scenario program reference: enough to recompile the exact hook.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRef {
    /// Registry name (`flash_crowd`, …), or a descriptive label when
    /// [`Self::trace`] is set.
    pub name: String,
    /// Time-scale factor applied before compiling the hook (registry
    /// scenarios only).
    pub scale: f64,
    /// Path to a recorded `btfluid-trace-arrivals` file. When set, the
    /// hook replays that trace ([`btfluid_scenario::TraceHook`]) instead
    /// of compiling a registry program; `.jsonl` selects the JSONL codec,
    /// anything else the CSV codec.
    pub trace: Option<String>,
}

impl ScenarioRef {
    /// A registry-scenario reference.
    pub fn named(name: &str, scale: f64) -> Self {
        Self {
            name: name.into(),
            scale,
            trace: None,
        }
    }

    /// A trace-replay reference.
    pub fn traced(path: &str) -> Self {
        Self {
            name: format!("trace:{path}"),
            scale: 1.0,
            trace: Some(path.into()),
        }
    }

    /// Recompiles the scenario hook this reference describes: a replaying
    /// [`btfluid_scenario::TraceHook`] when [`Self::trace`] is set, the
    /// named registry program otherwise.
    ///
    /// # Errors
    /// [`HarnessError::Bundle`] for an unknown registry name, an
    /// unreadable trace file, or a trace that fails codec validation.
    pub fn build_hook(&self) -> Result<Box<dyn ScenarioHook>, HarnessError> {
        if let Some(path) = &self.trace {
            let trace = load_trace(Path::new(path))?;
            let hook = btfluid_scenario::TraceHook::new(&trace)
                .map_err(|e| HarnessError::Bundle(format!("trace '{path}': {e}")))?;
            return Ok(Box::new(hook));
        }
        let program = registry::by_name(&self.name)
            .ok_or_else(|| HarnessError::Bundle(format!("unknown scenario '{}'", self.name)))?;
        let program = program.time_scaled(self.scale);
        Ok(Box::new(program.hook()))
    }
}

/// Reads and decodes a trace file, choosing the codec by extension
/// (`.jsonl` → JSONL, anything else → CSV).
///
/// # Errors
/// [`HarnessError::Io`] for filesystem failure, [`HarnessError::Bundle`]
/// for codec validation failure.
pub fn load_trace(path: &Path) -> Result<btfluid_workload::ArrivalTrace, HarnessError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let decoded = if path.extension().is_some_and(|e| e == "jsonl") {
        btfluid_workload::ArrivalTrace::from_jsonl(&text)
    } else {
        btfluid_workload::ArrivalTrace::from_csv(&text)
    };
    decoded.map_err(|e| HarnessError::Bundle(format!("trace '{}': {e}", path.display())))
}

/// One quarantined cell, ready to replay.
#[derive(Debug, Clone)]
pub struct ReproBundle {
    /// The failed cell's id.
    pub cell_id: String,
    /// Why it was quarantined (panic message, budget kind, engine error).
    pub reason: String,
    /// The exact engine configuration the cell ran with.
    pub cfg: DesConfig,
    /// The scenario the cell ran under, if any.
    pub scenario: Option<ScenarioRef>,
    /// Deterministic fault injection: panic when the engine reaches this
    /// event count (used by the crash-recovery CI smoke).
    pub inject_panic_at: Option<u64>,
    /// Raw bytes of the last checkpoint taken before the failure.
    pub checkpoint: Option<Vec<u8>>,
    /// The cell's flight dump (a btfluid-trace run): the last-N engine
    /// happenings before the failure, captured by the supervisor's
    /// always-on flight recorder.
    pub flight: Option<String>,
}

impl ReproBundle {
    /// Writes the bundle directory (`repro.json` + `checkpoint.snap` +
    /// `flightrec.jsonl`).
    ///
    /// Bundles are failure diagnostics keyed by cell id: rewriting one for
    /// the same cell replaces the stale diagnosis, so no `--force` gate.
    ///
    /// # Errors
    /// [`HarnessError::Io`] on filesystem failure.
    pub fn write(&self, dir: &Path) -> Result<(), HarnessError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let json_path = dir.join("repro.json");
        bundle_write(&json_path, format!("{}\n", self.to_json()).as_bytes())?;
        let snap_path = dir.join("checkpoint.snap");
        match &self.checkpoint {
            Some(bytes) => bundle_write(&snap_path, bytes)?,
            None => {
                // A re-written bundle must not keep a stale checkpoint.
                if snap_path.exists() {
                    std::fs::remove_file(&snap_path).map_err(|e| io_err(&snap_path, e))?;
                }
            }
        }
        let flight_path = dir.join("flightrec.jsonl");
        match &self.flight {
            Some(text) => bundle_write(&flight_path, text.as_bytes())?,
            None => {
                // Same stale-member discipline as the checkpoint.
                if flight_path.exists() {
                    std::fs::remove_file(&flight_path).map_err(|e| io_err(&flight_path, e))?;
                }
            }
        }
        Ok(())
    }

    /// Reads a bundle directory back.
    ///
    /// # Errors
    /// [`HarnessError::Bundle`] for a missing/undecodable `repro.json`,
    /// [`HarnessError::Io`] for filesystem failure.
    pub fn read(dir: &Path) -> Result<Self, HarnessError> {
        let json_path = dir.join("repro.json");
        let text = std::fs::read_to_string(&json_path).map_err(|e| io_err(&json_path, e))?;
        let doc =
            Json::parse(&text).map_err(|e| HarnessError::Bundle(format!("repro.json: {e}")))?;
        let mut bundle = Self::from_json(&doc)?;
        let snap_path = dir.join("checkpoint.snap");
        bundle.checkpoint = match std::fs::read(&snap_path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(&snap_path, e)),
        };
        let flight_path = dir.join("flightrec.jsonl");
        bundle.flight = match std::fs::read_to_string(&flight_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_err(&flight_path, e)),
        };
        Ok(bundle)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::num_u64(BUNDLE_VERSION)),
            ("cell_id".into(), Json::Str(self.cell_id.clone())),
            ("reason".into(), Json::Str(self.reason.clone())),
            (
                "scenario".into(),
                match &self.scenario {
                    None => Json::Null,
                    Some(s) => {
                        let mut fields = vec![
                            ("name".into(), Json::Str(s.name.clone())),
                            ("scale".into(), Json::num_f64(s.scale)),
                        ];
                        // Written only when present, so bundles from
                        // registry scenarios keep their original shape.
                        if let Some(path) = &s.trace {
                            fields.push(("trace".into(), Json::Str(path.clone())));
                        }
                        Json::Obj(fields)
                    }
                },
            ),
            (
                "inject_panic_at".into(),
                self.inject_panic_at.map_or(Json::Null, Json::num_u64),
            ),
            ("config".into(), config_to_json(&self.cfg)),
        ])
    }

    fn from_json(doc: &Json) -> Result<Self, HarnessError> {
        let bad = |what: &str| HarnessError::Bundle(format!("repro.json: missing/bad {what}"));
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("version"))?;
        if version != BUNDLE_VERSION {
            return Err(HarnessError::Bundle(format!(
                "unsupported bundle version {version} (this build reads {BUNDLE_VERSION})"
            )));
        }
        let scenario = match doc.get("scenario") {
            None | Some(Json::Null) => None,
            Some(s) => Some(ScenarioRef {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("scenario.name"))?
                    .to_string(),
                scale: s
                    .get("scale")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("scenario.scale"))?,
                // Absent in bundles written before the trace pipeline.
                trace: match s.get("trace") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(v.as_str().ok_or_else(|| bad("scenario.trace"))?.to_string()),
                },
            }),
        };
        Ok(ReproBundle {
            cell_id: doc
                .get("cell_id")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("cell_id"))?
                .to_string(),
            reason: doc
                .get("reason")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("reason"))?
                .to_string(),
            cfg: config_from_json(doc.get("config").ok_or_else(|| bad("config"))?)?,
            scenario,
            inject_panic_at: match doc.get("inject_panic_at") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_u64().ok_or_else(|| bad("inject_panic_at"))?),
            },
            checkpoint: None,
            flight: None,
        })
    }
}

/// Serializes a [`DesConfig`] to JSON, field for field.
pub fn config_to_json(cfg: &DesConfig) -> Json {
    let (scheme, rho) = match cfg.scheme {
        SchemeKind::Mtsd => ("mtsd", None),
        SchemeKind::Mtcd => ("mtcd", None),
        SchemeKind::Mfcd => ("mfcd", None),
        SchemeKind::Cmfsd { rho } => ("cmfsd", Some(rho)),
    };
    Json::Obj(vec![
        ("mu".into(), Json::num_f64(cfg.params.mu())),
        ("eta".into(), Json::num_f64(cfg.params.eta())),
        ("gamma".into(), Json::num_f64(cfg.params.gamma())),
        ("k".into(), Json::num_u64(u64::from(cfg.model.k()))),
        ("p".into(), Json::num_f64(cfg.model.p())),
        ("lambda0".into(), Json::num_f64(cfg.model.lambda0())),
        ("scheme".into(), Json::Str(scheme.into())),
        ("rho".into(), rho.map_or(Json::Null, Json::num_f64)),
        ("horizon".into(), Json::num_f64(cfg.horizon)),
        ("warmup".into(), Json::num_f64(cfg.warmup)),
        ("drain".into(), Json::num_f64(cfg.drain)),
        ("seed".into(), Json::num_u64(cfg.seed)),
        (
            "adapt".into(),
            match &cfg.adapt {
                None => Json::Null,
                Some(a) => Json::Obj(vec![
                    ("phi_inc".into(), Json::num_f64(a.controller.phi_inc)),
                    ("phi_dec".into(), Json::num_f64(a.controller.phi_dec)),
                    ("v_inc".into(), Json::num_f64(a.controller.v_inc)),
                    ("v_dec".into(), Json::num_f64(a.controller.v_dec)),
                    (
                        "patience".into(),
                        Json::num_u64(u64::from(a.controller.patience)),
                    ),
                    ("epoch".into(), Json::num_f64(a.epoch)),
                    ("cheater_fraction".into(), Json::num_f64(a.cheater_fraction)),
                ]),
            },
        ),
        (
            "origin_seeds".into(),
            Json::num_u64(cfg.origin_seeds as u64),
        ),
        ("warm_start".into(), Json::Bool(cfg.warm_start)),
        (
            "order_policy".into(),
            Json::Str(
                match cfg.order_policy {
                    OrderPolicy::Random => "random",
                    OrderPolicy::RarestFirst => "rarest-first",
                }
                .into(),
            ),
        ),
        (
            "record_every".into(),
            cfg.record_every.map_or(Json::Null, Json::num_f64),
        ),
        ("aggregate".into(), Json::Bool(cfg.aggregate)),
        ("checked".into(), Json::Bool(cfg.checked)),
    ])
}

/// Deserializes a [`DesConfig`] from [`config_to_json`] output.
///
/// # Errors
/// [`HarnessError::Bundle`] for missing/invalid fields; [`HarnessError::Num`]
/// when the decoded values fail model validation.
pub fn config_from_json(doc: &Json) -> Result<DesConfig, HarnessError> {
    let bad = |what: &str| HarnessError::Bundle(format!("config: missing/bad {what}"));
    let f = |key: &'static str| doc.get(key).and_then(Json::as_f64).ok_or_else(|| bad(key));
    let u = |key: &'static str| doc.get(key).and_then(Json::as_u64).ok_or_else(|| bad(key));
    let b = |key: &'static str| doc.get(key).and_then(Json::as_bool).ok_or_else(|| bad(key));
    let opt_f = |key: &'static str| match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_f64().map(Some).ok_or_else(|| bad(key)),
    };

    let scheme = match doc.get("scheme").and_then(Json::as_str) {
        Some("mtsd") => SchemeKind::Mtsd,
        Some("mtcd") => SchemeKind::Mtcd,
        Some("mfcd") => SchemeKind::Mfcd,
        Some("cmfsd") => SchemeKind::Cmfsd {
            rho: f("rho").map_err(|_| bad("rho (required for cmfsd)"))?,
        },
        _ => return Err(bad("scheme")),
    };
    let adapt = match doc.get("adapt") {
        None | Some(Json::Null) => None,
        Some(a) => {
            let af = |key: &'static str| {
                a.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad(&format!("adapt.{key}")))
            };
            Some(AdaptSetup {
                controller: AdaptConfig {
                    phi_inc: af("phi_inc")?,
                    phi_dec: af("phi_dec")?,
                    v_inc: af("v_inc")?,
                    v_dec: af("v_dec")?,
                    patience: a
                        .get("patience")
                        .and_then(Json::as_u64)
                        .and_then(|v| u32::try_from(v).ok())
                        .ok_or_else(|| bad("adapt.patience"))?,
                },
                epoch: af("epoch")?,
                cheater_fraction: af("cheater_fraction")?,
            })
        }
    };
    let k = u32::try_from(u("k")?).map_err(|_| bad("k"))?;
    let cfg = DesConfig {
        params: FluidParams::new(f("mu")?, f("eta")?, f("gamma")?)?,
        model: CorrelationModel::new(k, f("p")?, f("lambda0")?)?,
        scheme,
        horizon: f("horizon")?,
        warmup: f("warmup")?,
        drain: f("drain")?,
        seed: u("seed")?,
        adapt,
        origin_seeds: usize::try_from(u("origin_seeds")?).map_err(|_| bad("origin_seeds"))?,
        warm_start: b("warm_start")?,
        order_policy: match doc.get("order_policy").and_then(Json::as_str) {
            Some("random") => OrderPolicy::Random,
            Some("rarest-first") => OrderPolicy::RarestFirst,
            _ => return Err(bad("order_policy")),
        },
        record_every: opt_f("record_every")?,
        // Absent in bundles written before aggregate mode existed.
        aggregate: doc
            .get("aggregate")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        checked: b("checked")?,
    };
    cfg.validate()?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btfluid_telemetry::ScratchDir;

    fn sample_cfg() -> DesConfig {
        DesConfig {
            params: FluidParams::paper(),
            model: CorrelationModel::new(10, 0.5, 0.25).unwrap(),
            scheme: SchemeKind::Cmfsd { rho: 0.3 },
            horizon: 600.0,
            warmup: 150.0,
            drain: 600.0,
            seed: u64::MAX - 7,
            adapt: Some(AdaptSetup {
                controller: AdaptConfig::default_for_mu(0.02),
                epoch: 40.0,
                cheater_fraction: 0.2,
            }),
            origin_seeds: 1,
            warm_start: false,
            order_policy: OrderPolicy::RarestFirst,
            record_every: Some(25.0),
            aggregate: false,
            checked: true,
        }
    }

    #[test]
    fn config_roundtrips_exactly() {
        let cfg = sample_cfg();
        let back = config_from_json(&config_to_json(&cfg)).unwrap();
        // The digest hashes every field, so equality of digests is the
        // same "nothing drifted" statement the snapshot layer enforces.
        assert_eq!(
            btfluid_des::snapshot::config_digest(&cfg),
            btfluid_des::snapshot::config_digest(&back)
        );
    }

    #[test]
    fn legacy_rate_mode_key_is_ignored() {
        // A `repro.json` as written while configs still carried the
        // full-recompute flag. That mode was bit-identical to the
        // incremental one, so the key decodes to the same config as its
        // absence.
        let legacy = r#"{"version":1,"cell_id":"mtcd-s42","reason":"injected panic at event 50","scenario":null,"inject_panic_at":50,"config":{"mu":0.02,"eta":0.5,"gamma":0.05,"k":10,"p":0.5,"lambda0":0.25,"scheme":"mtcd","rho":null,"horizon":4000,"warmup":800,"drain":4000,"seed":42,"adapt":null,"origin_seeds":0,"warm_start":false,"order_policy":"random","record_every":null,"exact_rates":true,"aggregate":false,"checked":false}}"#;
        let current = legacy.replace(r#""exact_rates":true,"#, "");
        assert_ne!(current, legacy);
        let decode = |text: &str| ReproBundle::from_json(&Json::parse(text).unwrap()).unwrap();
        let (old, new) = (decode(legacy), decode(&current));
        assert_eq!(old.cfg, new.cfg);
        assert_eq!(
            old.cfg,
            DesConfig::paper_small(SchemeKind::Mtcd, 0.5, 42).unwrap()
        );
        assert_eq!(old.inject_panic_at, Some(50));
    }

    #[test]
    fn bundle_roundtrips_through_disk() {
        let dir = ScratchDir::new("bundle").unwrap();
        let bundle = ReproBundle {
            cell_id: "cmfsd:0.3-s42".into(),
            reason: "injected panic at event 50".into(),
            cfg: sample_cfg(),
            scenario: Some(ScenarioRef::named("flash_crowd", 0.25)),
            inject_panic_at: Some(50),
            checkpoint: Some(vec![1, 2, 3, 4]),
            flight: Some(
                "{\"schema\":\"btfluid-trace\",\"version\":1,\"kind\":\"meta\",\"capacity\":4,\
                 \"total\":1,\"dropped\":0}\n\
                 {\"kind\":\"flight\",\"k\":\"pop\",\"t\":1.5,\"ev\":1,\"a\":1,\"b\":0}\n"
                    .into(),
            ),
        };
        bundle.write(&dir).unwrap();
        let back = ReproBundle::read(&dir).unwrap();
        assert_eq!(back.cell_id, bundle.cell_id);
        assert_eq!(back.reason, bundle.reason);
        assert_eq!(back.scenario, bundle.scenario);
        assert_eq!(back.inject_panic_at, Some(50));
        assert_eq!(back.checkpoint, Some(vec![1, 2, 3, 4]));
        assert_eq!(back.flight, bundle.flight);
        assert_eq!(
            btfluid_des::snapshot::config_digest(&back.cfg),
            btfluid_des::snapshot::config_digest(&bundle.cfg)
        );
        assert!(back.scenario.unwrap().build_hook().is_ok());

        // Re-writing without a checkpoint or flight dump clears the
        // stale members.
        let mut no_snap = bundle.clone();
        no_snap.checkpoint = None;
        no_snap.flight = None;
        no_snap.write(&dir).unwrap();
        let reread = ReproBundle::read(&dir).unwrap();
        assert_eq!(reread.checkpoint, None);
        assert_eq!(reread.flight, None);
    }

    #[test]
    fn unknown_scenario_is_refused() {
        let r = ScenarioRef::named("nope", 1.0);
        assert!(matches!(r.build_hook(), Err(HarnessError::Bundle(_))));
    }

    #[test]
    fn trace_ref_roundtrips_and_builds_a_replay_hook() {
        use btfluid_numkit::rng::Xoshiro256StarStar;
        use btfluid_workload::{ArrivalTrace, CorrelationModel};
        let dir = ScratchDir::new("traceref").unwrap();
        let path = dir.join("workload.csv");
        let model = CorrelationModel::new(5, 0.5, 0.5).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let trace = ArrivalTrace::generate(&model, 200.0, &mut rng).unwrap();
        std::fs::write(&path, trace.to_csv()).unwrap();

        let bundle = ReproBundle {
            cell_id: "trace-cell".into(),
            reason: "test".into(),
            cfg: sample_cfg(),
            scenario: Some(ScenarioRef::traced(path.to_str().unwrap())),
            inject_panic_at: None,
            checkpoint: None,
            flight: None,
        };
        bundle.write(&dir).unwrap();
        let back = ReproBundle::read(&dir).unwrap();
        assert_eq!(back.scenario, bundle.scenario);
        let hook = back.scenario.unwrap().build_hook().unwrap();
        assert!(hook.replays());
        assert!(hook.replay_arrival(0).is_some());

        // A corrupt trace file is a typed bundle error, not a panic.
        std::fs::write(&path, "garbage").unwrap();
        assert!(matches!(
            bundle.scenario.clone().unwrap().build_hook(),
            Err(HarnessError::Bundle(_))
        ));
    }

    #[test]
    fn bad_version_is_refused() {
        let dir = ScratchDir::new("bundle-v").unwrap();
        std::fs::write(dir.join("repro.json"), "{\"version\":99}").unwrap();
        assert!(matches!(
            ReproBundle::read(&dir),
            Err(HarnessError::Bundle(_))
        ));
    }
}
