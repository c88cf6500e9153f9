//! `run`: every workload, untraced then traced, each in a process of its
//! own (so `peak_rss_mb` is the workload's), collected into one file
//! with the raw samples and a fingerprint of the host.

use crate::workloads::NAMES;
use crate::{default_out, golden, seconds, Args};
use btfluid_harness::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The host and build a run was measured on.
fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Output of a tool, `unknown` when it is missing or fails (outside a
    // git checkout, for instance).
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(crate::package_dir())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".into(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    Json::Obj(vec![
        ("nproc".into(), Json::num_u64(nproc)),
        ("cpu".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(tool("rustc", &["-V"]))),
        (
            "git_head".into(),
            Json::Str(tool("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// Runs one workload pass in a child process and reads its report. The
/// traced pass measures a fifth as long as the untraced one: it feeds
/// only the per-layer medians.
fn child(exe: &Path, dir: &Path, workload: &str, trace: bool, args: &Args) -> Result<Json, String> {
    let seed = args.parsed("seed", golden::DEFAULT_SEED)?.to_string();
    let seconds = seconds(args)?;
    let seconds = if trace { seconds / 5.0 } else { seconds }.to_string();
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        &seconds,
    ])
    .args(["--trace", if trace { "1" } else { "0" }])
    .arg("--out")
    .arg(dir)
    .stdout(Stdio::null());
    if args.has("bless") {
        cmd.arg("--bless");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("starting {}: {e}", exe.display()))?;
    let path = dir.join(format!("{workload}.trace{}.json", u8::from(trace)));
    let report = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload}: no report ({status}): {e}"))
        .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", path.display())))?;
    if !status.success() {
        eprintln!("{workload}: pass exited with {status}");
    }
    Ok(report)
}

/// Prints every metric of a pass with its unit and sample count; the
/// untraced pass adds the median and tail rep wall.
fn print_pass(workload: &str, report: &Json) {
    let count = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
    let n = count("traced_reps").max(count("reps"));
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let Some(Json::Obj(metrics)) = report.get("metrics") else {
        return;
    };
    for (name, m) in metrics {
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
        let value = num(m.get("value"));
        println!("{workload:<16} {name:<28} {value:>16.6} {unit:<6} n={n}");
    }
    if count("traced_reps") == 0 {
        let wall = report.get("wall");
        let field = |k: &str| num(wall.and_then(|w| w.get(k)));
        println!(
            "{workload:<16} {:<28} {:>16.6} {:<6} n={n}",
            "(wall median)",
            field("median_s"),
            "s"
        );
        println!(
            "{workload:<16} {:<28} {:>16.6} {:<6} n={n}, {} beyond",
            format!("(wall p{})", 100.0 * field("tail_quantile")),
            field("tail_s"),
            "s",
            field("tail_beyond")
        );
    }
}

/// `run` (module docs).
///
/// # Errors
/// Spawn or I/O failures; a failed check only sets the exit code.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names: Vec<&str> = match args.get("workload") {
        Some(w) if NAMES.contains(&w) => vec![w],
        Some(w) => return Err(format!("unknown workload '{w}'")),
        None => NAMES.to_vec(),
    };
    let out: PathBuf = args
        .get("out")
        .map_or_else(|| default_out().join("run.json"), PathBuf::from);
    let dir = default_out().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let passes: &[bool] = if args.has("bless") {
        &[false]
    } else {
        &[false, true]
    };
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for name in names {
        let mut entry = Vec::new();
        for &trace in passes {
            let report = child(&exe, &dir, name, trace, args)?;
            all_correct &= report.get("correct").and_then(Json::as_bool) == Some(true);
            print_pass(name, &report);
            entry.push((
                if trace { "traced" } else { "untraced" }.to_string(),
                report,
            ));
        }
        workloads.push((name.to_string(), Json::Obj(entry)));
    }
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    // The spans go next to the run file; the pass reports are inside it.
    for name in NAMES {
        let spans = dir.join(format!("{name}.spans.jsonl"));
        if spans.is_file() {
            let target = out.with_file_name(spans.file_name().expect("a file name"));
            std::fs::copy(&spans, &target).map_err(|e| format!("{}: {e}", target.display()))?;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let doc = Json::Obj(vec![
        ("host".into(), fingerprint()),
        (
            "seed".into(),
            Json::num_u64(args.parsed("seed", golden::DEFAULT_SEED)?),
        ),
        ("seconds".into(), Json::num_f64(seconds(args)?)),
        ("correct".into(), Json::Bool(all_correct)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    std::fs::write(&out, format!("{doc}\n"))
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(crate::EXIT_INCORRECT)
    })
}
