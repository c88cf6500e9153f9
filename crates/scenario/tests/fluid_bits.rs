//! Bit-identity of the scheduled fluid models.
//!
//! The entry rates `λ₀·pmf·p` are pinned against a reference right-hand
//! side kept here, which evaluates one `binomial_pmf` per class exactly
//! as the per-class formula of §4.1 reads; the flash-crowd transient's
//! last row is pinned to its recorded bits.

use btfluid_numkit::ode::OdeSystem;
use btfluid_numkit::special::binomial_pmf;
use btfluid_scenario::fluid::transient;
use btfluid_scenario::{registry, ScenarioProgram, Schedule, ScheduledMtcd, ScheduledMtsd};

/// `λⱼⁱ(t)` of MTCD class `i` (1-based), one pmf per call.
fn reference_lambda(program: &ScenarioProgram, t: f64, i: usize) -> f64 {
    let p = program.correlation.value(t).clamp(0.0, 1.0);
    if p == 0.0 {
        return 0.0;
    }
    let others = binomial_pmf(program.k - 1, i as u32 - 1, p).unwrap_or(0.0);
    program.lambda0.value(t) * others * p
}

/// `λᵢ(t)` of MTSD class `i` (1-based), one pmf per call.
fn reference_class_rate(program: &ScenarioProgram, t: f64, i: usize) -> f64 {
    let p = program.correlation.value(t).clamp(0.0, 1.0);
    if p == 0.0 {
        return 0.0;
    }
    program.lambda0.value(t) * binomial_pmf(program.k, i as u32, p).unwrap_or(0.0)
}

fn reference_mtcd_rhs(program: &ScenarioProgram, t: f64, state: &[f64], d: &mut [f64]) {
    let k = program.k as usize;
    let params = program.params;
    let (mu, eta, gamma) = (params.mu(), params.eta(), params.gamma());
    let (xs, ys) = state.split_at(k);
    let mut seed_pool = 0.0;
    let mut weight_total = 0.0;
    for i in 0..k {
        let class = (i + 1) as f64;
        seed_pool += mu / class * ys[i].max(0.0);
        weight_total += xs[i].max(0.0) / class;
    }
    for i in 0..k {
        let class = (i + 1) as f64;
        let x = xs[i].max(0.0);
        let tft = eta * mu / class * x;
        let from_seeds = if weight_total > 0.0 {
            (x / class) / weight_total * seed_pool
        } else {
            0.0
        };
        let served = tft + from_seeds;
        d[i] = reference_lambda(program, t, i + 1) - served;
        d[k + i] = served - gamma * ys[i].max(0.0);
    }
}

fn reference_mtsd_rhs(program: &ScenarioProgram, t: f64, state: &[f64], d: &mut [f64]) {
    let k = program.k as usize;
    let half = k * (k + 1) / 2;
    let params = program.params;
    let (mu, eta, gamma) = (params.mu(), params.eta(), params.gamma());
    let (xs, ss) = state.split_at(half);
    let x_tot: f64 = xs.iter().map(|x| x.max(0.0)).sum();
    let s_tot: f64 = ss.iter().map(|s| s.max(0.0)).sum();
    let r = if x_tot > 0.0 {
        mu * eta + mu * s_tot / x_tot
    } else {
        mu * eta
    };
    for i in 1..=k {
        for j in 1..=i {
            let idx = i * (i - 1) / 2 + (j - 1);
            let inflow = if j == 1 {
                reference_class_rate(program, t, i)
            } else {
                gamma * ss[idx - 1].max(0.0)
            };
            let served = r * xs[idx].max(0.0);
            d[idx] = inflow - served;
            d[half + idx] = served - gamma * ss[idx].max(0.0);
        }
    }
}

/// Correlation schedules of every shape, with times inside every level
/// (and on the edges) of each.
fn schedules() -> Vec<(Schedule, Vec<f64>)> {
    vec![
        (Schedule::Constant(0.4), vec![0.0, 1234.5, 3999.0]),
        (
            Schedule::Piecewise {
                initial: 0.0,
                steps: vec![(1000.0, 0.4), (2000.0, 1.0)],
            },
            vec![0.0, 999.9, 1000.0, 1500.0, 1999.9, 2000.0, 3500.0],
        ),
        (
            Schedule::Spike {
                base: 0.4,
                peak: 0.9,
                t0: 1500.0,
                t1: 2500.0,
            },
            vec![100.0, 1499.9, 1500.0, 2000.0, 2499.9, 2500.0, 3900.0],
        ),
        (
            Schedule::Ramp {
                from: 0.05,
                to: 0.95,
                t0: 1000.0,
                t1: 3000.0,
            },
            vec![0.0, 1000.0, 1000.25, 1700.3, 2999.0, 3000.0, 3600.0],
        ),
        (
            Schedule::Periodic {
                mean: 0.5,
                amplitude: 0.45,
                period: 1600.0,
                phase: 100.0,
            },
            vec![0.0, 100.0, 433.3, 900.0, 1250.7, 2222.2, 3999.5],
        ),
    ]
}

fn program_with(correlation: Schedule) -> ScenarioProgram {
    let mut program = registry::flash_crowd();
    program.correlation = correlation;
    program
}

/// A deterministic state with zeros, small and large masses.
fn state(dim: usize, salt: f64) -> Vec<f64> {
    (0..dim)
        .map(|c| {
            let v = ((c as f64 + salt) * 0.618_033_988_749_895).fract() * 40.0;
            if c % 7 == 3 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

fn assert_bits(got: &[f64], want: &[f64], what: &str) {
    for (c, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: component {c}: {g} vs {w}"
        );
    }
}

#[test]
fn mtcd_rhs_matches_the_per_class_formula_bit_for_bit() {
    for (correlation, times) in schedules() {
        let program = program_with(correlation.clone());
        let sys = ScheduledMtcd::from_program(&program).unwrap();
        for (n, &t) in times.iter().enumerate() {
            let x = state(sys.dim(), n as f64);
            let mut got = vec![f64::NAN; sys.dim()];
            let mut want = vec![0.0; sys.dim()];
            sys.rhs(t, &x, &mut got);
            reference_mtcd_rhs(&program, t, &x, &mut want);
            assert_bits(&got, &want, &format!("MTCD rhs {correlation:?} at t = {t}"));
            for i in 1..=sys.k() {
                let (g, w) = (sys.lambda_at(t, i), reference_lambda(&program, t, i));
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "λ[{i}] {correlation:?} at t = {t}"
                );
            }
        }
    }
}

#[test]
fn mtsd_rhs_matches_the_per_class_formula_bit_for_bit() {
    for (correlation, times) in schedules() {
        let program = program_with(correlation.clone());
        let sys = ScheduledMtsd::from_program(&program).unwrap();
        for (n, &t) in times.iter().enumerate() {
            let x = state(sys.dim(), n as f64);
            let mut got = vec![f64::NAN; sys.dim()];
            let mut want = vec![0.0; sys.dim()];
            sys.rhs(t, &x, &mut got);
            reference_mtsd_rhs(&program, t, &x, &mut want);
            assert_bits(&got, &want, &format!("MTSD rhs {correlation:?} at t = {t}"));
            for i in 1..=sys.k() {
                let (g, w) = (
                    sys.class_rate_at(t, i),
                    reference_class_rate(&program, t, i),
                );
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "λ[{i}] {correlation:?} at t = {t}"
                );
            }
        }
    }
}

#[test]
fn rhs_is_the_same_when_evaluated_again() {
    // A second read (the cached row of a constant correlation, or the
    // per-call row of a stepped one), with another level read in between,
    // and a cloned system give the same bits as the first read.
    let spike = Schedule::Spike {
        base: 0.4,
        peak: 0.9,
        t0: 1500.0,
        t1: 2500.0,
    };
    for correlation in [Schedule::Constant(0.4), spike] {
        let sys = ScheduledMtcd::from_program(&program_with(correlation.clone())).unwrap();
        let x = state(sys.dim(), 0.5);
        let mut first = vec![0.0; sys.dim()];
        let mut again = vec![0.0; sys.dim()];
        sys.rhs(1000.0, &x, &mut first);
        sys.rhs(2000.0, &x, &mut again);
        sys.rhs(1000.0, &x, &mut again);
        assert_bits(&again, &first, &format!("{correlation:?} read again"));
        let copy = sys.clone();
        copy.rhs(1000.0, &x, &mut again);
        assert_bits(&again, &first, &format!("{correlation:?} cloned system"));
    }
}

/// Last row of the flash-crowd MTCD transient at `h = 0.5`
/// (`x1..x10, y1..y10` at `t = 4000`).
const FLASH_CROWD_LAST_ROW: [u64; 20] = [
    0x3fb7_4320_fb9d_848b,
    0x3ff1_73d5_b219_fb1c,
    0x4011_8370_5806_eb64,
    0x4022_668f_2a21_4822,
    0x4027_8baf_1028_c6ab,
    0x4023_6565_57ba_b01f,
    0x4014_bb41_1c94_2bfa,
    0x3ffb_d7e0_1d76_e74f,
    0x3fd5_6331_1192_465d,
    0x3f9c_b71d_8113_7888,
    0x3f94_a482_47f0_b81e,
    0x3fbe_f991_097f_bc52,
    0x3fd4_ba34_0f59_1f56,
    0x3fe0_5812_aee7_a684,
    0x3fe0_bed2_79f2_5967,
    0x3fd7_01ef_f171_5e01,
    0x3fc5_16ef_bab6_859f,
    0x3fa8_ca96_ff3e_7238,
    0x3f80_edf7_ed7a_ae58,
    0x3f44_750c_4dc4_d0ef,
];

#[test]
fn flash_crowd_transient_last_row_is_pinned() {
    let series = transient(&registry::flash_crowd(), 0.5).unwrap();
    assert_eq!(series.times().len(), 81);
    let last = series.times().len() - 1;
    assert_eq!(series.times()[last], 4000.0);
    for (c, &want) in FLASH_CROWD_LAST_ROW.iter().enumerate() {
        let got = series.channel(c)[last];
        assert_eq!(
            got.to_bits(),
            want,
            "channel {c}: {got} vs {}",
            f64::from_bits(want)
        );
    }
}
