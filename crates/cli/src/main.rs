//! `btfluid` — regenerate any figure of "Analyzing Multiple File
//! Downloading in BitTorrent" (Tian/Wu/Ng, ICPP 2006) or drive the
//! peer-level simulator.
//!
//! `btfluid --help` lists the commands of [`table::COMMANDS`];
//! `btfluid <command> --help` shows the options one command reads.

mod args;
mod commands;
mod errors;
mod perf;
mod table;

use btfluid_telemetry::{diag, Level};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match table::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            diag!(Level::Error, "btfluid: {e}");
            ExitCode::from(e.code)
        }
    }
}
