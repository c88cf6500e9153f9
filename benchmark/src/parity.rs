//! `parity`: the in-process workloads are the commands people run.
//!
//! * `btfluid all --csv` must print exactly the `figures` rep's CSV.
//! * `btfluid sweep --workload <trace> --workers 2 --reps 2
//!   --checkpoint-every 1000` must give every cell the events and
//!   completions of one `sweep_trace` rep on the same trace.

use crate::spans::Tracer;
use crate::workloads::{self, Obs, SweepTrace, Workload};
use crate::{default_out, golden, package_dir, Args};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Events and completions per cell id.
type Cells = BTreeMap<String, (u64, u64)>;

fn run_cli(bin: &PathBuf, args: &[&str]) -> Result<String, String> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .map_err(|e| format!("starting {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!(
            "btfluid {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

fn one_rep(w: &mut dyn Workload) -> Result<String, String> {
    let mut t = Tracer::new();
    let mut obs = Obs::new();
    w.setup(&mut t, &mut obs)?;
    Ok(w.rep(&mut t, &mut obs)?.digest)
}

/// Cells of a `sweep_trace` digest.
fn digest_cells(digest: &str) -> Result<Cells, String> {
    digest
        .lines()
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                ["cell", id, "events", ev, _, _, "completed", done, ..] => Ok((
                    id.to_string(),
                    (
                        ev.parse().map_err(|_| format!("bad events in '{l}'"))?,
                        done.parse()
                            .map_err(|_| format!("bad completed in '{l}'"))?,
                    ),
                )),
                _ => Err(format!("unexpected digest line '{l}'")),
            }
        })
        .collect()
}

/// Cells of `btfluid sweep --csv` output
/// (`cell,events,arrivals,completed,...`).
fn csv_cells(csv: &str) -> Result<Cells, String> {
    csv.lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() < 4 {
                return Err(format!("unexpected sweep row '{l}'"));
            }
            let n = |s: &str| s.parse::<u64>().map_err(|_| format!("bad number in '{l}'"));
            Ok((f[0].to_string(), (n(f[1])?, n(f[3])?)))
        })
        .collect()
}

/// `parity` (module docs).
///
/// # Errors
/// A missing binary, a failing command, or any mismatch.
pub fn parity(args: &Args) -> Result<ExitCode, String> {
    let bin = args.get("btfluid").map_or_else(
        || package_dir().join("../target/release/btfluid"),
        PathBuf::from,
    );
    if !bin.is_file() {
        return Err(format!(
            "{} not found; build it with `cargo build --release -p btfluid-cli` \
             at the repository root, or pass --btfluid PATH",
            bin.display()
        ));
    }
    let seed: u64 = args.parsed("seed", golden::DEFAULT_SEED)?;
    let work = default_out().join(format!("parity-{}", std::process::id()));
    let result = check(&bin, seed, &work);
    let _ = std::fs::remove_dir_all(&work);
    result?;
    println!("parity: btfluid all and btfluid sweep --workload match the workloads");
    Ok(ExitCode::SUCCESS)
}

fn check(bin: &PathBuf, seed: u64, work: &std::path::Path) -> Result<(), String> {
    let figures = one_rep(workloads::build("figures", seed, work)?.as_mut())?;
    let cli = run_cli(bin, &["all", "--csv", "--quiet"])?;
    if cli != figures {
        let line = cli
            .lines()
            .zip(figures.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "length".into(), |i| format!("line {}", i + 1));
        return Err(format!(
            "btfluid all --csv differs from the figures rep at {line}"
        ));
    }
    println!("figures: {} bytes identical", cli.len());

    let mut sweep = SweepTrace::new(seed, work)?;
    let ours = digest_cells(&one_rep(&mut sweep)?)?;
    let trace = sweep.trace_path().to_string_lossy().into_owned();
    let manifest = work
        .join("cli-manifest.jsonl")
        .to_string_lossy()
        .into_owned();
    let seed = seed.to_string();
    let csv = run_cli(
        bin,
        &[
            "sweep",
            "--workload",
            &trace,
            "--workers",
            "2",
            "--reps",
            "2",
            "--checkpoint-every",
            "1000",
            "--seed",
            &seed,
            "--manifest",
            &manifest,
            "--csv",
            "--quiet",
        ],
    )?;
    let theirs = csv_cells(&csv)?;
    if ours != theirs {
        return Err(format!(
            "btfluid sweep cells differ from the sweep_trace rep:\n  ours   {ours:?}\n  btfluid {theirs:?}"
        ));
    }
    println!(
        "sweep_trace: {} cells identical (events, completed)",
        ours.len()
    );
    Ok(())
}
