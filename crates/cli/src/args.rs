//! Tiny dependency-free option parser: `--flag`, `--key value`.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: positional command plus `--key [value]` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    flags: BTreeMap<String, Option<String>>,
}

/// Parse failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Value-taking options whose argument must be a number (or a
/// comma-separated list of numbers). Validated eagerly at parse time so a
/// typo like `--p abc` is a hard error even for commands that never read
/// `p` — nothing silently falls back to a default.
const NUMERIC: &[&str] = &[
    "points",
    "k",
    "p",
    "rho",
    "reps",
    "horizon",
    "warmup",
    "seed",
    "cells",
    "cheaters",
    "crowd",
    "epoch",
    "origin-seeds",
    "scale",
    "checkpoint-every",
    "retries",
    "workers",
    "event-budget",
    "wall-budget-ms",
    "sample-every",
    "hybrid-tol",
    "flightrec-cap",
    "lambda0",
    "alpha",
    "leecher-frac",
    "bins",
];

/// Value-taking options with free-form string arguments (paths, scheme
/// names, `CELL@EVENT` specs, colon/comma grammars parsed by the command).
const STRINGLY: &[&str] = &[
    "scheme",
    "out",
    "classes",
    "checkpoint",
    "records",
    "schemes",
    "manifest",
    "bundles",
    "inject-panic",
    "trace",
    "csv-out",
    "flightrec",
    "history",
    "report",
    "md-out",
    "bench",
    "in",
    "shape",
    "format",
    "workload",
];

/// Known bare flags. Anything else starting with `--` is an unknown
/// option and a hard error (exit 1), instead of a silently-accepted flag.
const FLAGS: &[&str] = &[
    "csv",
    "force",
    "aggregate",
    "checked",
    "smoke",
    "resume",
    "fluid",
    "hybrid",
    "full",
    "expect-fail",
    "help",
    "verbose",
    "quiet",
    "record",
    "check",
    "canary",
];

impl Options {
    /// Parses `argv` after the subcommand.
    pub fn parse(argv: &[String]) -> Result<Self, ArgError> {
        let mut flags = BTreeMap::new();
        let mut it = argv.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{arg}' (options start with --)"
                )));
            };
            if name.is_empty() {
                return Err(ArgError("empty option name '--'".into()));
            }
            let numeric = NUMERIC.contains(&name);
            if numeric || STRINGLY.contains(&name) {
                let Some(value) = it.next() else {
                    return Err(ArgError(format!("option --{name} requires a value")));
                };
                if numeric {
                    for tok in value.split(',') {
                        if tok.trim().parse::<f64>().is_err() {
                            return Err(ArgError(format!("--{name}: '{tok}' is not a number")));
                        }
                    }
                }
                flags.insert(name.to_string(), Some(value.clone()));
            } else if FLAGS.contains(&name) {
                flags.insert(name.to_string(), None);
            } else {
                return Err(ArgError(format!(
                    "unknown option --{name} (see --help for the option list)"
                )));
            }
        }
        Ok(Self { flags })
    }

    /// Whether a bare flag (or any option) was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// String value of an option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.as_deref())
    }

    /// Typed value with a default.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{name}: '{s}' is not a number"))),
        }
    }

    /// Typed integer with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{name}: '{s}' is not an integer"))),
        }
    }

    /// Typed u64 with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(s) => s
                .parse()
                .map_err(|_| ArgError(format!("--{name}: '{s}' is not an integer"))),
        }
    }

    /// Comma-separated list of numbers with a default.
    pub fn get_f64_list(&self, name: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
        match self.get(name) {
            None => Ok(default.to_vec()),
            Some(s) => s
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{name}: '{tok}' is not a number")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_values() {
        let o = Options::parse(&argv(&["--csv", "--points", "25", "--p", "0.5"])).unwrap();
        assert!(o.has("csv"));
        assert_eq!(o.get("points"), Some("25"));
        assert_eq!(o.get_usize("points", 10).unwrap(), 25);
        assert_eq!(o.get_f64("p", 0.1).unwrap(), 0.5);
    }

    #[test]
    fn defaults_apply() {
        let o = Options::parse(&argv(&[])).unwrap();
        assert_eq!(o.get_usize("points", 50).unwrap(), 50);
        assert_eq!(o.get_f64("p", 0.9).unwrap(), 0.9);
        assert_eq!(o.get_u64("seed", 7).unwrap(), 7);
        assert!(!o.has("csv"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(Options::parse(&argv(&["--points"])).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(Options::parse(&argv(&["oops"])).is_err());
    }

    #[test]
    fn bad_number_rejected_at_parse_time() {
        // Regression: `--p abc` used to parse fine and only fail (or be
        // silently ignored) when some command happened to read `p`.
        let err = Options::parse(&argv(&["--p", "abc"])).unwrap_err();
        assert!(err.0.contains("not a number"), "{err}");
        assert!(Options::parse(&argv(&["--seed", "12x"])).is_err());
        assert!(Options::parse(&argv(&["--cheaters", "0.1,oops,0.5"])).is_err());
        // Scientific notation and negatives are still fine.
        assert!(Options::parse(&argv(&["--horizon", "1e6"])).is_ok());
        assert!(Options::parse(&argv(&["--crowd", "-2.5"])).is_ok());
    }

    #[test]
    fn unknown_flag_rejected() {
        // Regression: any unrecognized `--whatever` used to become an
        // accepted bare flag, so typos like `--forcee` were silent no-ops.
        let err = Options::parse(&argv(&["--forcee"])).unwrap_err();
        assert!(err.0.contains("unknown option --forcee"), "{err}");
        assert!(Options::parse(&argv(&["--no-such-thing", "1"])).is_err());
        // Known bare flags still parse.
        let o = Options::parse(&argv(&["--force", "--checked", "--resume"])).unwrap();
        assert!(o.has("force") && o.has("checked") && o.has("resume"));
    }

    #[test]
    fn lists_parse() {
        let o = Options::parse(&argv(&["--cheaters", "0,0.25, 0.5"])).unwrap();
        assert_eq!(
            o.get_f64_list("cheaters", &[]).unwrap(),
            vec![0.0, 0.25, 0.5]
        );
        let o = Options::parse(&argv(&[])).unwrap();
        assert_eq!(o.get_f64_list("cheaters", &[0.1]).unwrap(), vec![0.1]);
    }

    #[test]
    fn empty_option_rejected() {
        assert!(Options::parse(&argv(&["--"])).is_err());
    }

    #[test]
    fn valued_options_consume_their_argument() {
        // Regression: `--origin-seeds 0` and `--classes ...` must be
        // treated as key/value pairs, not a flag followed by a positional.
        let o =
            Options::parse(&argv(&["--origin-seeds", "0", "--classes", "0.02:0.2:0.3"])).unwrap();
        assert_eq!(o.get_usize("origin-seeds", 1).unwrap(), 0);
        assert_eq!(o.get("classes"), Some("0.02:0.2:0.3"));
        let o = Options::parse(&argv(&["--scale", "0.25"])).unwrap();
        assert_eq!(o.get_f64("scale", 1.0).unwrap(), 0.25);
    }
}
