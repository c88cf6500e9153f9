//! The btfluid benchmark; see README.md for the workloads, the metrics,
//! and how to run, compare, bless, and check parity.

mod compare;
mod golden;
mod measure;
mod metrics;
mod parity;
mod spans;
mod stats;
mod suite;
mod workloads;

use btfluid_harness::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
btfluid-benchmark — end-to-end and per-layer benchmark of btfluid

USAGE
  btfluid-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
                    [--out DIR] [--bless]
      one measured run of one workload; the last stdout line is the
      result {\"correct\", \"attempted\", \"failed\", \"metrics\"}.
      --bless records the outputs as the golden references
  btfluid-benchmark run [--workload W] [--seed N] [--seconds S]
                    [--out FILE] [--bless]
      every workload (or one), untraced for S seconds then traced for
      S/5, each in its own process; writes the raw samples and a host
      fingerprint to FILE
  btfluid-benchmark compare A.json B.json [--canary]
      per workload and end-to-end metric, B's median against A's and the
      metric's bound; exits 4 on a regression. --canary first inflates
      B's wall times by 50%, which must flag every workload
  btfluid-benchmark parity [--btfluid PATH] [--seed N]
      checks the in-process workloads against the btfluid binary

WORKLOADS
  figures  flash_aggregate  flash_hybrid  sweep_trace

EXIT CODES
  0 success   1 usage or set-up error   3 an output check failed
  4 compare found a regression
";

/// Exit code of a run whose outputs failed a check.
const EXIT_INCORRECT: u8 = 3;

/// The benchmark package directory.
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Default directory for reports, spans, and working files.
pub fn default_out() -> PathBuf {
    package_dir().join("out")
}

/// `BENCHMARK.json` at the repository root.
///
/// # Errors
/// A missing or malformed file.
pub fn load_benchmark_json() -> Result<Json, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parsed `--key value` options and bare `--flag`s.
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], bare: &[&str]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if bare.contains(&key) => flags.push(key.to_string()),
                Some(key) => {
                    let v = it.next().ok_or(format!("--{key} needs a value"))?;
                    values.insert(key.to_string(), v.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Self {
            values,
            flags,
            positional,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse '{v}'")),
        }
    }

    fn check_known(&self, known: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

/// `--seconds`, by default `run_seconds` from `BENCHMARK.json` (the
/// measuring time the benchmark declares).
///
/// # Errors
/// An unparsable value, or no `run_seconds` to default to.
fn seconds(args: &Args) -> Result<f64, String> {
    match args.get("seconds") {
        Some(_) => args.parsed("seconds", 0.0),
        None => load_benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".into()),
    }
}

fn measure_one(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv, &["bless"])?;
    args.check_known(&["workload", "seed", "seconds", "trace", "out"])?;
    let workload = args.get("workload").ok_or("--workload is required")?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let seed = args.parsed("seed", golden::DEFAULT_SEED)?;
    if args.has("bless") && seed != golden::DEFAULT_SEED {
        return Err(format!(
            "--bless records goldens at the default seed {} only",
            golden::DEFAULT_SEED
        ));
    }
    let opts = measure::Options {
        workload: workload.to_string(),
        seed,
        seconds: seconds(&args)?,
        trace,
        out: args.get("out").map_or_else(default_out, PathBuf::from),
        bless: args.has("bless"),
    };
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let m = measure::measure(&opts)?;
    let report_path = opts
        .out
        .join(format!("{}.trace{}.json", opts.workload, u8::from(trace)));
    std::fs::write(&report_path, format!("{}\n", m.report))
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    println!("{}", m.line);
    Ok(if m.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_INCORRECT)
    })
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let args = Args::parse(&argv[1..], &["bless"])?;
            args.check_known(&["workload", "seed", "seconds", "out"])?;
            suite::run(&args)
        }
        Some("compare") => {
            let args = Args::parse(&argv[1..], &["canary"])?;
            args.check_known(&[])?;
            compare::compare(&args)
        }
        Some("parity") => {
            let args = Args::parse(&argv[1..], &[])?;
            args.check_known(&["btfluid", "seed"])?;
            parity::parity(&args)
        }
        Some(_) => measure_one(argv),
    }
}

fn main() -> ExitCode {
    // The sweep's per-cell progress lines would interleave with the
    // results; warnings (retries, fallbacks) still show.
    btfluid_telemetry::set_level(btfluid_telemetry::Level::Warn);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("btfluid-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
