//! Peer-level Adapt in action: a CMFSD swarm where a configurable fraction
//! of peers cheat (never donate through their virtual seeds). Obedient
//! peers start at ρ = 0 and adjust from the observed give/take imbalance —
//! the paper's Section 4.3 mechanism, evaluated in the simulator.
//!
//! ```text
//! cargo run --release --example adapt_swarm [cheater_fraction]
//! ```

use btfluid::core::adapt::AdaptConfig;
use btfluid::core::FluidParams;
use btfluid::des::{AdaptSetup, DesConfig, OrderPolicy, SchemeKind, Simulation};
use btfluid::workload::CorrelationModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cheater_fraction: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0.5);

    let cfg = DesConfig {
        params: FluidParams::paper(),
        model: CorrelationModel::new(10, 0.9, 0.25)?,
        scheme: SchemeKind::Cmfsd { rho: 0.0 },
        horizon: 4000.0,
        warmup: 1000.0,
        drain: 4000.0,
        seed: 7,
        adapt: Some(AdaptSetup {
            controller: AdaptConfig::default_for_mu(0.02),
            epoch: 20.0,
            cheater_fraction,
        }),
        origin_seeds: 1,
        warm_start: false,
        order_policy: OrderPolicy::default(),
        record_every: None,
        aggregate: false,
        checked: false,
    };
    println!(
        "CMFSD swarm with Adapt: p = 0.9, {}% cheaters, obedient peers start at ρ = 0\n",
        (cheater_fraction * 100.0).round()
    );
    let outcome = Simulation::new(cfg)?.run();

    println!(
        "{:>6} {:>9} {:>12} {:>12} {:>10}",
        "class", "obedient", "online/file", "final ρ", "cheaters"
    );
    println!("{}", "-".repeat(54));
    for i in 0..outcome.k() {
        let ob = &outcome.obedient[i];
        let ch = &outcome.cheaters[i];
        if ob.count() + ch.count() == 0 {
            continue;
        }
        let class = (i + 1) as f64;
        println!(
            "{:>6} {:>9} {:>12.2} {:>12.3} {:>10}",
            i + 1,
            ob.count(),
            if ob.count() > 0 {
                ob.online.mean() / class
            } else {
                f64::NAN
            },
            if ob.count() > 0 {
                ob.rho.mean()
            } else {
                f64::NAN
            },
            ch.count(),
        );
    }

    println!(
        "\npopulation online/file: {:.2}  (arrivals {}, counted {}, censored {})",
        outcome.avg_online_per_file()?,
        outcome.arrivals,
        outcome.records.len(),
        outcome.censored
    );
    println!(
        "Reading: with few cheaters the obedient ρ stays near 0 (full \
         collaboration);\nas cheating spreads, Δ turns consistently positive and \
         the swarm self-protects\nby drifting toward ρ = 1, i.e. plain MFCD — the \
         degeneration the paper predicts."
    );
    Ok(())
}
