//! Byte pin for the paper's fluid results: `btfluid all --csv` must print
//! exactly the benchmark's `figures` golden, so a drift in any figure or
//! in the X5 transient fails here, not only in a measured benchmark run.
//! The golden is only read, never written.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../benchmark/golden/figures.csv"
);

#[test]
fn all_csv_matches_the_figures_golden_byte_for_byte() {
    let out = Command::new(BIN)
        .args(["all", "--csv"])
        .output()
        .expect("spawn btfluid");
    assert!(
        out.status.success(),
        "btfluid all --csv failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = std::fs::read(GOLDEN).expect("read the figures golden");
    if out.stdout != golden {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&golden);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || "(one output is a prefix of the other)".into(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "btfluid all --csv differs from benchmark/golden/figures.csv at {line} \
             ({} vs {} bytes)",
            out.stdout.len(),
            golden.len()
        );
    }
}
