//! A short `run` (half a second a workload, at least a warm-up and three
//! timed reps) emits every metric `BENCHMARK.json` declares, with its
//! unit, passes every output check, traces every workload, and
//! `compare --canary` flags every workload.

use btfluid_harness::json::Json;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["figures", "flash_aggregate", "flash_hybrid", "sweep_trace"];

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
    bench
        .get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_run_emits_every_declared_metric_and_canary_flags_every_workload() {
    let exe = env!("CARGO_BIN_EXE_btfluid-benchmark");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let bench =
        Json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&out_dir).unwrap();
    let out = out_dir.join("run.json");

    let status = Command::new(exe)
        .args(["run", "--seconds", "0.5", "--out"])
        .arg(&out)
        .status()
        .expect("run starts");
    assert!(status.success(), "run exited with {status}");
    let run = Json::parse(&std::fs::read_to_string(&out).unwrap()).expect("run file parses");
    assert_eq!(run.get("correct").and_then(Json::as_bool), Some(true));
    for key in ["nproc", "cpu", "rustc", "git_head"] {
        assert!(
            run.get("host").and_then(|h| h.get(key)).is_some(),
            "host.{key}"
        );
    }

    for w in WORKLOADS {
        let entry = run.get("workloads").and_then(|x| x.get(w)).expect(w);
        for (pass, list) in [("untraced", "end_to_end"), ("traced", "per_layer")] {
            let report = entry.get(pass).expect(pass);
            assert_eq!(
                report.get("failed").and_then(Json::as_u64),
                Some(0),
                "{w} {pass}"
            );
            let metrics = report.get("metrics").expect("metrics");
            for (name, unit) in declared(&bench, list) {
                assert!(valid_name(&name), "invalid metric name {name}");
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{w}: {name}"
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            }
        }
        let traced = entry.get("traced").unwrap().get("metrics").unwrap();
        let unaccounted = traced
            .get("trace.unaccounted_frac")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!(unaccounted <= 0.05, "{w}: unaccounted {unaccounted}");
        let spans = std::fs::read_to_string(out_dir.join(format!("{w}.spans.jsonl")))
            .unwrap_or_else(|e| panic!("{w} spans: {e}"));
        assert!(spans.lines().count() > 2, "{w}: too few spans");
    }

    let canary = Command::new(exe)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .arg("--canary")
        .output()
        .expect("compare starts");
    assert_eq!(canary.status.code(), Some(4), "canary must be flagged");
    let text = String::from_utf8_lossy(&canary.stdout);
    for w in WORKLOADS {
        assert!(
            text.lines()
                .any(|l| l.starts_with(w) && l.contains("wall_min_s") && l.ends_with("Regression")),
            "canary missed {w}:\n{text}"
        );
    }
    let same = Command::new(exe)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .status()
        .expect("compare starts");
    assert!(same.success(), "a run compared with itself regressed");
}
