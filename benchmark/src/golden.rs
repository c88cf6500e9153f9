//! Golden references: the figure tables as `btfluid all --csv` prints
//! them, and per-workload digests at the default seed. They change only
//! through `--bless`.

use std::path::{Path, PathBuf};

/// The seed the golden digests were recorded at.
pub const DEFAULT_SEED: u64 = 7;

/// Largest relative deviation of any number from its golden value.
pub const CEILING: f64 = 1e-9;

/// The golden file of `workload`.
pub fn path(workload: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    if workload == "figures" {
        dir.join("figures.csv")
    } else {
        dir.join(format!("{workload}.txt"))
    }
}

/// Whether a golden file pins `workload` at `seed`: the figures take no
/// seed, the simulations are pinned at [`DEFAULT_SEED`] only.
pub fn applies(workload: &str, seed: u64) -> bool {
    workload == "figures" || seed == DEFAULT_SEED
}

/// Largest relative deviation between the numeric tokens of `actual`
/// and `golden` (split on whitespace and commas); infinite when the two
/// differ in shape or in any non-numeric token.
pub fn deviation(actual: &str, golden: &str) -> f64 {
    let tokens = |s: &str| -> Vec<String> {
        s.split(|c: char| c == ',' || c.is_whitespace())
            .filter(|t| !t.is_empty())
            .map(str::to_string)
            .collect()
    };
    let (a, g) = (tokens(actual), tokens(golden));
    if a.len() != g.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(&g) {
        if x == y {
            continue;
        }
        match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(x), Ok(y)) if y != 0.0 => worst = worst.max((x - y).abs() / y.abs()),
            _ => return f64::INFINITY,
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_is_relative_and_shape_strict() {
        assert_eq!(deviation("a 1,2\n", "a 1,2\n"), 0.0);
        assert!((deviation("a 1,2.2", "a 1,2") - 0.1).abs() < 1e-12);
        assert_eq!(deviation("a 1", "b 1"), f64::INFINITY);
        assert_eq!(deviation("a 1 2", "a 1"), f64::INFINITY);
        assert_eq!(deviation("x 1", "x 0"), f64::INFINITY);
    }
}
