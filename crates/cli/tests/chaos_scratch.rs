//! `btfluid chaos` keeps each plan's checkpoints and traces in a scratch
//! directory under the temp dir; the command must remove it when it ends.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_btfluid");

#[test]
fn chaos_removes_its_scratch_directory() {
    let tmp = btfluid_telemetry::ScratchDir::new("chaos-scratch-test").unwrap();
    let bundles = tmp.join("bundles");
    let out = Command::new(BIN)
        .args(["chaos", "--cells", "2", "--seed", "2006", "--bundles"])
        .arg(&bundles)
        .env("TMPDIR", &*tmp)
        .output()
        .expect("spawn btfluid");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let left: Vec<String> = std::fs::read_dir(&*tmp)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("btfluid-chaos-"))
        .collect();
    assert!(left.is_empty(), "left behind in TMPDIR: {left:?}");
}
