//! The command table: every `btfluid` command with its positional
//! argument, the flags its handler reads, its help text and its handler.
//! The parser, `--help` and dispatch all read it, so it is the one place
//! that knows which flags exist and what each command accepts.

use crate::args::{Arg, Command, Flag, Kind::*, Options};
use crate::commands::*;
use crate::errors::CliError;
use btfluid_telemetry::{set_level, Level};

const fn bare(name: &'static str) -> Flag {
    Flag::new(name, Bare)
}

const fn num(name: &'static str) -> Flag {
    Flag::new(name, Num)
}

const fn list(name: &'static str) -> Flag {
    Flag::new(name, NumList)
}

const fn int(name: &'static str) -> Flag {
    Flag::new(name, Int)
}

const fn text(name: &'static str, what: &'static str) -> Flag {
    Flag::new(name, Str(what))
}

/// The result flags of every command that prints a table.
const CSV: Flag = bare("csv");
const OUT: Flag = text("out", "FILE");
const FORCE: Flag = bare("force");

/// Every command, in `btfluid --help` order.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command {
        name: "fig2", arg: Arg::None, run: cmd_fig2,
        flags: &[int("points"), int("k"), CSV, OUT, FORCE],
        help: "Figure 2: MTCD vs MTSD avg online time per file vs correlation\n\
               --points p-grid size (default 50); --k files (default 10)",
    },
    Command {
        name: "fig3", arg: Arg::None, run: cmd_fig3,
        flags: &[int("k"), list("p"), CSV, OUT, FORCE],
        help: "Figure 3: per-class times at p = 0.1 and p = 1.0 (--p LIST)",
    },
    Command {
        name: "fig4a", arg: Arg::None, run: cmd_fig4a,
        flags: &[CSV, OUT, FORCE],
        help: "Figure 4(a): CMFSD avg online time per file over the (p, ρ) grid",
    },
    Command {
        name: "fig4b", arg: Arg::None, run: |opts| cmd_fig4bc(opts, 0.9),
        flags: &[CSV, OUT, FORCE],
        help: "Figure 4(b): per-class CMFSD vs MFCD at p = 0.9",
    },
    Command {
        name: "fig4c", arg: Arg::None, run: |opts| cmd_fig4bc(opts, 0.1),
        flags: &[CSV, OUT, FORCE],
        help: "Figure 4(c): per-class CMFSD vs MFCD at p = 0.1",
    },
    Command {
        name: "validate", arg: Arg::None, run: cmd_validate,
        flags: &[num("p"), int("reps"), num("horizon"), num("warmup"), int("seed"),
                 CSV, OUT, FORCE],
        help: "X3: fluid model vs peer-level simulator",
    },
    Command {
        name: "adapt", arg: Arg::None, run: cmd_adapt,
        flags: &[list("cheaters"), num("p"), int("reps"), num("epoch"), num("horizon"),
                 num("warmup"), int("seed"), CSV, OUT, FORCE],
        help: "X4: Adapt under cheaters (--cheaters: the cheating fractions)",
    },
    Command {
        name: "transient", arg: Arg::None, run: cmd_transient,
        flags: &[num("p"), num("crowd"), CSV, OUT, FORCE],
        help: "X5: flash-crowd settling (--crowd peers join at t = 0)",
    },
    Command {
        name: "ablation", arg: Arg::None, run: cmd_ablation,
        flags: &[num("p"), CSV, OUT, FORCE],
        help: "X6: parameter elasticities per scheme",
    },
    Command {
        name: "skew", arg: Arg::None, run: cmd_skew,
        flags: &[int("k"), CSV, OUT, FORCE],
        help: "X8: Zipf popularity skew, MTCD vs MTSD",
    },
    Command {
        name: "multiclass", arg: Arg::None, run: cmd_multiclass,
        flags: &[text("classes", "MU:C:LAMBDA,..."), int("seed"), CSV, OUT, FORCE],
        help: "X7: heterogeneous bandwidth classes, fluid vs simulation",
    },
    Command {
        name: "eta", arg: Arg::None, run: cmd_eta,
        flags: &[int("seed"), CSV, OUT, FORCE],
        help: "X9: measure the sharing efficiency η at chunk level",
    },
    Command {
        name: "sim", arg: Arg::None, run: cmd_sim,
        flags: &[text("scheme", "SCHEME"), num("p"), num("horizon"), num("warmup"),
                 int("seed"), int("origin-seeds"), bare("aggregate"), bare("checked"),
                 CSV, OUT, FORCE],
        help: "one raw simulation of the paper's workload (K = 10)\n\
               --scheme mtsd|mtcd|mfcd|cmfsd[:RHO] (default mtsd); --aggregate picks\n\
               the class-aggregated engine; --checked audits every event",
    },
    Command {
        name: "scenario", arg: Arg::Named("NAME|list"), run: cmd_scenario,
        flags: &[text("scheme", "SCHEME"), int("seed"), bare("smoke"), num("scale"),
                 bare("aggregate"), bare("fluid"), bare("checked"), text("trace", "FILE"),
                 num("sample-every"), text("checkpoint", "FILE"), int("checkpoint-every"),
                 bare("resume"), text("records", "FILE"), bare("hybrid"), num("hybrid-tol"),
                 text("flightrec", "FILE"), int("flightrec-cap"), CSV, OUT, FORCE],
        help: "non-stationary scenario runs (flash crowds, churn, faults)\n\
               NAME list prints the registry. Without --scheme every scheme runs;\n\
               --smoke is --scale 0.25; --checkpoint/--resume/--records/--checked need\n\
               one --scheme. --hybrid (mtcd|mtsd) runs the fluid/DES driver with error\n\
               budget --hybrid-tol (default 0.1). --checkpoint-every counts events\n\
               (default 5000), or decision boundaries with --hybrid (default 8); a\n\
               failing checkpoint write is retried, then checkpointing stops and the\n\
               run goes on. --trace streams a btfluid-trace v1 JSONL sampled\n\
               every --sample-every (default 5) for 'btfluid inspect'; --flightrec\n\
               dumps the last --flightrec-cap (default 256) engine happenings as a\n\
               btfluid-trace v1 run of flight records, also read by 'btfluid inspect'.",
    },
    Command {
        name: "inspect", arg: Arg::Named("TRACE"), run: cmd_inspect,
        flags: &[text("csv-out", "FILE"), CSV, OUT, FORCE],
        help: "summarize a telemetry trace or a flight-recorder dump\n\
               (both btfluid-trace v1): counters, anomaly flags, profile tables,\n\
               per-class trajectories (--csv-out); for a flight dump, its record and\n\
               event mix and staleness against the failure time",
    },
    Command {
        name: "profile", arg: Arg::None, run: cmd_profile,
        flags: &[text("scheme", "SCHEME"), num("p"), num("horizon"), num("warmup"),
                 int("seed"), int("origin-seeds"), bare("aggregate"), bare("checked"),
                 text("trace", "FILE"), num("sample-every"), CSV, OUT, FORCE],
        help: "hot-path self-profiler: per-phase wall and per-event cost tables\n\
               of one engine run, calibrated timer overhead subtracted",
    },
    Command {
        name: "sweep", arg: Arg::None, run: cmd_sweep,
        flags: &[text("manifest", "FILE"), text("bundles", "DIR"), text("schemes", "LIST"),
                 int("reps"), int("seed"), num("p"), int("k"), num("horizon"), num("warmup"),
                 bare("resume"), int("retries"), int("workers"), int("event-budget"),
                 int("wall-budget-ms"), int("checkpoint-every"), bare("checked"),
                 bare("aggregate"), text("inject-panic", "CELL@EVENT"),
                 text("workload", "FILE"), int("bins"), CSV, OUT, FORCE],
        help: "supervised replicate sweep with failure quarantine\n\
               --manifest (required) journals finished cells for --resume; failed\n\
               cells go to repro bundles under --bundles. --workload replays a\n\
               recorded trace into every cell, which then fixes p, K and the\n\
               horizon (--p/--k/--horizon are errors); --bins (default 8) needs it.",
    },
    Command {
        name: "trace", arg: Arg::Sub(TRACE_COMMANDS), flags: &[],
        run: |_| unreachable!("dispatch resolves trace to a subcommand"),
        help: "measurement-calibrated workload traces\n\
               codec btfluid-trace-arrivals v1, CSV or JSONL by extension",
    },
    Command {
        name: "repro", arg: Arg::Named("BUNDLE-DIR"), flags: &[], run: cmd_repro,
        help: "replay a quarantined sweep cell or chaos plan from its bundle\n\
               exits 6 when the recorded failure reproduces",
    },
    Command {
        name: "chaos", arg: Arg::None, run: cmd_chaos,
        flags: &[int("seed"), int("cells"), text("bundles", "DIR"), bare("expect-fail")],
        help: "deterministic chaos sweep of seeded fault plans\n\
               Violations of the invariant catalog are shrunk into repro bundles and\n\
               exit 4; --expect-fail runs a corrupted-checkpoint canary that must\n\
               be caught (exit 4)",
    },
    Command {
        name: "selfcheck", arg: Arg::None, run: cmd_selfcheck,
        flags: &[bare("full"), int("seed"), bare("expect-fail"), CSV, OUT, FORCE],
        help: "differential self-check oracle over paper-derived invariants\n\
               --full adds the simulation-heavy checks; --expect-fail seeds a\n\
               rate-cache corruption and exits 4 iff the audit detects it",
    },
    Command {
        name: "all", arg: Arg::None, run: cmd_all,
        flags: &[int("points"), int("k"), num("p"), num("crowd"), CSV, OUT, FORCE],
        help: "every fluid-model figure in sequence, then transient and ablation",
    },
];

/// The `btfluid trace` subcommands.
#[rustfmt::skip]
static TRACE_COMMANDS: &[Command] = &[
    Command {
        name: "trace gen", arg: Arg::None, run: trace_gen,
        flags: &[OUT, text("shape", "flat|diurnal"), int("k"), num("p"), num("lambda0"),
                 num("horizon"), int("seed"), num("alpha"), num("leecher-frac"),
                 text("format", "csv|jsonl"), FORCE],
        help: "synthesize a measurement-shaped trace\n\
               --shape diurnal fixes λ₀(t) and p to the measured preset (--alpha and\n\
               --leecher-frac stay tunable); without --out the trace goes to stdout",
    },
    Command {
        name: "trace fit", arg: Arg::None, run: trace_fit,
        flags: &[text("in", "FILE"), CSV, OUT, FORCE],
        help: "recover (λ₀, p) by moment matching\nprints fitted vs empirical moments",
    },
    Command {
        name: "trace replay", arg: Arg::None, run: trace_replay,
        flags: &[text("in", "FILE"), text("scheme", "SCHEME"), int("seed"), bare("aggregate"),
                 int("bins"), num("warmup"), bare("fluid"), CSV, OUT, FORCE],
        help: "drive the DES with the recorded arrivals\n\
               --fluid adds the check against the binned-rate MTCD ODE",
    },
    Command {
        name: "trace info", arg: Arg::None, run: trace_info,
        flags: &[text("in", "FILE"), CSV, OUT, FORCE],
        help: "codec header, rate, and class histogram",
    },
];

const HEADER: &str = "\
btfluid — multiple-file BitTorrent downloading, reproduced (ICPP 2006)

USAGE: btfluid <command> [options]
       btfluid <command> --help     the options that command reads; any
                                    other option is a usage error (exit 1)

COMMANDS
";

const PROSE: &str = "
COMMON OPTIONS
  --csv            print CSV instead of an aligned table
  --out FILE       also write the (CSV) output to FILE
  --force          overwrite existing --out/--records/--trace files
  --verbose        debug-level stderr diagnostics (any command)
  --quiet          errors only on stderr; result output is unaffected

SEEDS
  Every DES-running command is deterministic under --seed; reruns with the
  same seed are bit-identical. Defaults: validate 2006, adapt 43, sim 1,
  eta 11, multiclass 7, scenario 2006, sweep 2006. Fluid-only commands
  (fig*, transient, ablation, skew) take no seed.

CRASH SAFETY
  --checkpoint FILE writes an atomic engine snapshot every
  --checkpoint-every events (default 5000); with --resume a run killed at
  any instant picks up from the checkpoint and finishes **bit-identical**
  to an uninterrupted run. A finished run deletes its checkpoint. The
  sweep command journals finished cells to --manifest (JSONL, append-only)
  and --resume skips them; a cell that panics or blows its budget is
  quarantined into a repro bundle under --bundles, replayable with
  'btfluid repro'. --checked enables per-event engine invariant audits.

EXIT CODES
  0 success          1 usage or I/O     2 invalid configuration
  3 solver diverged  4 invariant violated (--checked, chaos)
  5 snapshot/checkpoint rejected        6 sweep had failures / repro
  7 refused to overwrite (use --force)    reproduced the recorded failure
";

/// `btfluid --help`: the command list, one summary line each, then the
/// global prose.
fn usage() -> String {
    let mut out = String::from(HEADER);
    for cmd in COMMANDS {
        out.push_str(&format!("  {:<11} {}\n", cmd.name, cmd.summary()));
    }
    out + PROSE
}

/// Runs the command line; `Ok(())` on success.
pub fn dispatch(argv: &[String]) -> Result<(), CliError> {
    // The global verbosity flags may appear anywhere on the line; peel
    // them before any positional/option handling so every command (and
    // every diag! call below it) shares one threshold.
    let mut filtered = Vec::with_capacity(argv.len());
    for arg in argv {
        match arg.as_str() {
            "--verbose" => set_level(Level::Debug),
            "--quiet" => set_level(Level::Error),
            _ => filtered.push(arg.clone()),
        }
    }
    let argv = filtered;
    let Some(name) = argv
        .first()
        .filter(|name| !matches!(name.as_str(), "--help" | "help" | "-h"))
    else {
        print!("{}", usage());
        return Ok(());
    };
    let Some(mut cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        return Err(format!("unknown command '{name}' (try --help)").into());
    };
    let mut rest = &argv[1..];
    // `--help` wins before any positional argument is interpreted.
    let help = rest.iter().any(|a| a == "--help");
    if let Arg::Sub(subs) = cmd.arg {
        match rest
            .first()
            .and_then(|w| subs.iter().find(|s| s.leaf() == w))
        {
            Some(sub) => (cmd, rest) = (sub, &rest[1..]),
            None if help => {}
            None => {
                let leaves: Vec<&str> = subs.iter().map(Command::leaf).collect();
                let got = rest
                    .first()
                    .map_or(String::new(), |w| format!(", not '{w}'"));
                return Err(format!("{}: expected {}{got}", cmd.name, leaves.join(" | ")).into());
            }
        }
    }
    if help {
        print!("{}", cmd.usage());
        return Ok(());
    }
    (cmd.run)(&Options::parse(cmd, rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// Every command and every trace subcommand answers `--help`.
    #[test]
    fn help_works_on_every_command() {
        let subs = TRACE_COMMANDS.iter().map(|c| c.name);
        for name in COMMANDS.iter().map(|c| c.name).chain(subs) {
            let mut line: Vec<&str> = name.split(' ').collect();
            line.push("--help");
            dispatch(&argv(&line)).unwrap_or_else(|e| panic!("{line:?}: {e}"));
        }
    }

    /// Names are unique, every help has a summary line, and every
    /// command's flags are declared once.
    #[test]
    fn table_is_well_formed() {
        let all: Vec<&Command> = COMMANDS.iter().chain(TRACE_COMMANDS).collect();
        for (i, cmd) in all.iter().enumerate() {
            assert!(!cmd.summary().is_empty(), "{} has no summary", cmd.name);
            assert!(
                all[..i].iter().all(|c| c.name != cmd.name),
                "{} listed twice",
                cmd.name
            );
            for (j, flag) in cmd.flags.iter().enumerate() {
                assert!(
                    cmd.flags[..j].iter().all(|f| f.name != flag.name),
                    "{} declares --{} twice",
                    cmd.name,
                    flag.name
                );
            }
        }
        assert!(usage().contains("  trace       measurement-calibrated"));
    }

    #[test]
    fn trace_needs_a_known_subcommand() {
        let err = dispatch(&argv(&["trace"])).unwrap_err();
        assert!(
            err.message.contains("expected gen | fit"),
            "{}",
            err.message
        );
        let err = dispatch(&argv(&["trace", "bogus"])).unwrap_err();
        assert!(err.message.contains("'bogus'"), "{}", err.message);
    }
}
