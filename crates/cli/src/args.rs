//! Tiny dependency-free option parser. Each [`Command`] declares the
//! flags its handler reads; [`Options::parse`] accepts exactly those, so
//! a flag a command does not read is a usage error, not a silent no-op.

use crate::errors::CliError;
use std::collections::BTreeMap;
use std::fmt;

/// What an option's value must parse as. Checked at parse time, so a typo
/// like `--p abc` fails before anything runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// A bare flag: no value.
    Bare,
    /// A number.
    Num,
    /// A comma-separated list of numbers.
    NumList,
    /// A non-negative integer.
    Int,
    /// A free-form string (path, scheme, spec), named in help by the text.
    Str(&'static str),
}

/// One option a command reads: `--name [VALUE]`.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
}

impl Flag {
    pub const fn new(name: &'static str, kind: Kind) -> Self {
        Self { name, kind }
    }

    /// `[--name VALUE]` for the help synopsis.
    fn synopsis(&self) -> String {
        let value = match self.kind {
            Kind::Bare => return format!("[--{}]", self.name),
            Kind::Num => "X",
            Kind::NumList => "LIST",
            Kind::Int => "N",
            Kind::Str(what) => what,
        };
        format!("[--{} {value}]", self.name)
    }

    fn check(&self, value: &str) -> Result<(), ArgError> {
        let bad = |what: &str, tok: &str| {
            Err(ArgError(format!("--{}: '{tok}' is not {what}", self.name)))
        };
        match self.kind {
            Kind::Num if value.parse::<f64>().is_err() => bad("a number", value),
            Kind::NumList => match value.split(',').find(|t| t.trim().parse::<f64>().is_err()) {
                Some(tok) => bad("a number", tok),
                None => Ok(()),
            },
            Kind::Int if value.parse::<u64>().is_err() => bad("an integer", value),
            _ => Ok(()),
        }
    }
}

/// A command's positional argument, taken before its options.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    None,
    /// A required value the handler interprets (a scenario name, a
    /// path); the text names it in help.
    Named(&'static str),
    /// A subcommand from its own table.
    Sub(&'static [Command]),
}

/// One entry of the command table: everything the parser, the help and
/// the dispatcher know about a command.
#[derive(Debug)]
pub struct Command {
    /// `fig2`, or `trace gen` for a subcommand.
    pub name: &'static str,
    pub arg: Arg,
    /// Every flag the handler reads, and no other.
    pub flags: &'static [Flag],
    /// Help text; its first line is the summary in `btfluid --help`.
    pub help: &'static str,
    pub run: fn(&Options) -> Result<(), CliError>,
}

impl Command {
    /// The last word of the name: what selects a subcommand.
    pub fn leaf(&self) -> &'static str {
        self.name.rsplit(' ').next().unwrap_or(self.name)
    }

    /// The first line of the help text.
    pub fn summary(&self) -> &'static str {
        self.help.lines().next().unwrap_or("")
    }

    /// `btfluid <name> --help`: the synopsis rendered from the entry,
    /// wrapped at 78 columns, then the help text.
    pub fn usage(&self) -> String {
        let mut words = Vec::new();
        match self.arg {
            Arg::None => {}
            Arg::Named(what) => words.push(format!("<{what}>")),
            Arg::Sub(_) => words.push("<subcommand> [options]".into()),
        }
        words.extend(self.flags.iter().map(Flag::synopsis));
        let mut out = format!("USAGE: btfluid {}", self.name);
        let mut width = out.chars().count();
        for word in words {
            let len = word.chars().count();
            if width + 1 + len > 78 {
                out.push_str("\n      ");
                width = 6;
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + len;
        }
        out = format!("{out}\n\n{}\n", self.help);
        if let Arg::Sub(subs) = self.arg {
            out.push_str("\nSUBCOMMANDS (each takes --help)\n");
            for sub in subs {
                out.push_str(&format!("  {:<14} {}\n", sub.name, sub.summary()));
            }
        }
        out
    }
}

/// A parsed command line: the positional argument plus `--key [value]`
/// options, all declared by the command.
#[derive(Debug)]
pub struct Options {
    arg: String,
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

impl Options {
    /// Parses `argv` after the command name against `cmd`'s entry.
    pub fn parse(cmd: &Command, argv: &[String]) -> Result<Self, ArgError> {
        let mut it = argv.iter();
        let arg = match cmd.arg {
            Arg::Named(what) => match it.next() {
                Some(a) if !a.starts_with("--") => a.clone(),
                _ => return Err(ArgError(format!("{}: missing <{what}>", cmd.name))),
            },
            Arg::None | Arg::Sub(_) => String::new(),
        };
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "{}: unexpected positional argument '{tok}' (options start with --)",
                    cmd.name
                )));
            };
            if name.is_empty() {
                return Err(ArgError("empty option name '--'".into()));
            }
            let Some(flag) = cmd.flags.iter().find(|f| f.name == name) else {
                return Err(ArgError(format!(
                    "unknown option --{name} for {0} (see 'btfluid {0} --help')",
                    cmd.name
                )));
            };
            let value = match flag.kind {
                Kind::Bare => None,
                _ => {
                    let Some(value) = it.next() else {
                        return Err(ArgError(format!("option --{name} requires a value")));
                    };
                    flag.check(value)?;
                    Some(value.clone())
                }
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self { arg, flags })
    }

    /// The positional argument (empty for commands without one).
    pub fn arg(&self) -> &str {
        &self.arg
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
        self.parsed(name, default, "a number")
    }

    /// Typed integer with a default.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, ArgError> {
        self.parsed(name, default, "an integer")
    }

    /// Typed u64 with a default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        self.parsed(name, default, "an integer")
    }

    fn parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        what: &str,
    ) -> Result<T, ArgError> {
        self.get(name).map_or(Ok(default), |s| {
            s.parse()
                .map_err(|_| ArgError(format!("--{name}: '{s}' is not {what}")))
        })
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
    use Kind::*;

    const FLAGS: &[Flag] = &[
        Flag::new("csv", Bare),
        Flag::new("force", Bare),
        Flag::new("checked", Bare),
        Flag::new("resume", Bare),
        Flag::new("points", Int),
        Flag::new("origin-seeds", Int),
        Flag::new("seed", Int),
        Flag::new("p", Num),
        Flag::new("horizon", Num),
        Flag::new("crowd", Num),
        Flag::new("scale", Num),
        Flag::new("cheaters", NumList),
        Flag::new("classes", Str("MU:C:LAMBDA,...")),
    ];

    const TEST: Command = Command {
        name: "test",
        arg: Arg::None,
        flags: FLAGS,
        help: "a test command\nwith a second line",
        run: |_| Ok(()),
    };

    fn parse(s: &[&str]) -> Result<Options, ArgError> {
        let argv: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        Options::parse(&TEST, &argv)
    }

    #[test]
    fn parses_flags_and_values() {
        let o = parse(&["--csv", "--points", "25", "--p", "0.5"]).unwrap();
        assert!(o.has("csv"));
        assert_eq!(o.get("points"), Some("25"));
        assert_eq!(o.get_usize("points", 10).unwrap(), 25);
        assert_eq!(o.get_f64("p", 0.1).unwrap(), 0.5);
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.get_usize("points", 50).unwrap(), 50);
        assert_eq!(o.get_f64("p", 0.9).unwrap(), 0.9);
        assert_eq!(o.get_u64("seed", 7).unwrap(), 7);
        assert!(!o.has("csv"));
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--points"]).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(parse(&["oops"]).is_err());
    }

    #[test]
    fn named_positional_comes_first() {
        let cmd = Command {
            arg: Arg::Named("FILE"),
            ..TEST
        };
        let argv = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let o = Options::parse(&cmd, &argv(&["t.jsonl", "--csv"])).unwrap();
        assert_eq!(o.arg(), "t.jsonl");
        assert!(o.has("csv"));
        // A missing positional is named, not mistaken for an option.
        let err = Options::parse(&cmd, &argv(&["--csv"])).unwrap_err();
        assert!(err.0.contains("missing <FILE>"), "{err}");
    }

    #[test]
    fn bad_number_rejected_at_parse_time() {
        // Regression: `--p abc` used to parse fine and only fail (or be
        // silently ignored) when some command happened to read `p`.
        let err = parse(&["--p", "abc"]).unwrap_err();
        assert!(err.0.contains("not a number"), "{err}");
        assert!(parse(&["--seed", "12x"]).is_err());
        assert!(parse(&["--seed", "1.5"]).is_err());
        assert!(parse(&["--cheaters", "0.1,oops,0.5"]).is_err());
        // A single number takes no list.
        assert!(parse(&["--p", "0.1,0.5"]).is_err());
        // Scientific notation and negatives are still fine.
        assert!(parse(&["--horizon", "1e6"]).is_ok());
        assert!(parse(&["--crowd", "-2.5"]).is_ok());
    }

    #[test]
    fn unknown_flag_rejected() {
        // Regression: any unrecognized `--whatever` used to become an
        // accepted bare flag, so typos like `--forcee` were silent no-ops.
        let err = parse(&["--forcee"]).unwrap_err();
        assert!(err.0.contains("unknown option --forcee for test"), "{err}");
        assert!(parse(&["--no-such-thing", "1"]).is_err());
        // A flag is known only to the commands that declare it.
        assert!(parse(&["--aggregate"]).is_err());
        // Declared bare flags still parse.
        let o = parse(&["--force", "--checked", "--resume"]).unwrap();
        assert!(o.has("force") && o.has("checked") && o.has("resume"));
    }

    #[test]
    fn lists_parse() {
        let o = parse(&["--cheaters", "0,0.25, 0.5"]).unwrap();
        assert_eq!(
            o.get_f64_list("cheaters", &[]).unwrap(),
            vec![0.0, 0.25, 0.5]
        );
        let o = parse(&[]).unwrap();
        assert_eq!(o.get_f64_list("cheaters", &[0.1]).unwrap(), vec![0.1]);
    }

    #[test]
    fn empty_option_rejected() {
        assert!(parse(&["--"]).is_err());
    }

    #[test]
    fn valued_options_consume_their_argument() {
        // Regression: `--origin-seeds 0` and `--classes ...` must be
        // treated as key/value pairs, not a flag followed by a positional.
        let o = parse(&["--origin-seeds", "0", "--classes", "0.02:0.2:0.3"]).unwrap();
        assert_eq!(o.get_usize("origin-seeds", 1).unwrap(), 0);
        assert_eq!(o.get("classes"), Some("0.02:0.2:0.3"));
        let o = parse(&["--scale", "0.25"]).unwrap();
        assert_eq!(o.get_f64("scale", 1.0).unwrap(), 0.25);
    }

    #[test]
    fn usage_renders_every_flag_and_wraps() {
        let text = TEST.usage();
        assert!(text.starts_with("USAGE: btfluid test [--csv]"), "{text}");
        for flag in FLAGS {
            assert!(text.contains(&format!("[--{}", flag.name)), "{text}");
        }
        assert!(text.contains("[--classes MU:C:LAMBDA,...]"), "{text}");
        assert!(text.contains("[--points N]") && text.contains("[--p X]"));
        assert!(text.lines().all(|l| l.chars().count() <= 78), "{text}");
        assert!(text.ends_with("a test command\nwith a second line\n"));
    }
}
