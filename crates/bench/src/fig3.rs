//! Figure 3: per-class online and download time *per file* under MTCD and
//! MTSD, at `p = 0.1` and `p = 1.0`.
//!
//! Expected shape: MTSD is flat (80 online / 60 download per file for every
//! class). MTCD's download per file is the fair constant `G` and its online
//! per file is `G + 1/(iγ)` — decreasing in the class `i`, so peers
//! requesting more files do better per file.

use crate::table::Table;
use btfluid_core::mtcd::Mtcd;
use btfluid_core::mtsd::Mtsd;
use btfluid_core::FluidParams;
use btfluid_numkit::NumError;
use btfluid_workload::CorrelationModel;

/// Configuration of the Figure 3 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
    /// Fluid parameters.
    pub params: FluidParams,
    /// Number of files `K`.
    pub k: u32,
    /// The correlations to evaluate (paper: 0.1 and 1.0).
    pub correlations: Vec<f64>,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            params: FluidParams::paper(),
            k: 10,
            correlations: vec![0.1, 1.0],
        }
    }
}

/// Per-class numbers at one correlation value.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Panel {
    /// File correlation of this panel.
    pub p: f64,
    /// Per-class MTCD online time per file (index 0 ↔ class 1).
    pub mtcd_online: Vec<f64>,
    /// Per-class MTCD download time per file.
    pub mtcd_download: Vec<f64>,
    /// Per-class MTSD online time per file.
    pub mtsd_online: Vec<f64>,
    /// Per-class MTSD download time per file.
    pub mtsd_download: Vec<f64>,
}

/// The full Figure 3 result (one panel per correlation).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// The panels, in the order of [`Fig3Config::correlations`].
    pub panels: Vec<Fig3Panel>,
}

impl Fig3Result {
    /// Renders one aligned table per panel.
    pub fn tables(&self) -> Vec<Table> {
        self.panels
            .iter()
            .map(|panel| {
                let mut t = Table::new(
                    format!(
                        "Figure 3 — per-class times per file at p = {} (online / download)",
                        panel.p
                    ),
                    vec!["class", "MTCD online", "MTCD dl", "MTSD online", "MTSD dl"],
                );
                for i in 0..panel.mtcd_online.len() {
                    t.push_row(vec![
                        format!("{}", i + 1),
                        format!("{:.3}", panel.mtcd_online[i]),
                        format!("{:.3}", panel.mtcd_download[i]),
                        format!("{:.3}", panel.mtsd_online[i]),
                        format!("{:.3}", panel.mtsd_download[i]),
                    ]);
                }
                t
            })
            .collect()
    }
}

/// Evaluates the panels.
///
/// # Errors
/// Propagates model validity errors.
pub fn run(cfg: &Fig3Config) -> Result<Fig3Result, NumError> {
    // Panels are independent; evaluate them in order.
    let panels = cfg
        .correlations
        .iter()
        .map(|&p| -> Result<Fig3Panel, NumError> {
            let model = CorrelationModel::new(cfg.k, p, 1.0)?;
            let mtcd = Mtcd::new(cfg.params, model.per_torrent_rates())?.class_times()?;
            let mtsd = Mtsd::new(cfg.params).class_times(cfg.k as usize)?;
            Ok(Fig3Panel {
                p,
                mtcd_online: mtcd.online_per_file_vec(),
                mtcd_download: mtcd.download_per_file_vec(),
                mtsd_online: mtsd.online_per_file_vec(),
                mtsd_download: mtsd.download_per_file_vec(),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fig3Result { panels })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_reproduced() {
        let r = run(&Fig3Config::default()).unwrap();
        assert_eq!(r.panels.len(), 2);
        for panel in &r.panels {
            // MTSD: flat 80 / 60.
            for i in 0..10 {
                assert!((panel.mtsd_online[i] - 80.0).abs() < 1e-9);
                assert!((panel.mtsd_download[i] - 60.0).abs() < 1e-9);
            }
            // MTCD online per file decreases with class.
            for w in panel.mtcd_online.windows(2) {
                assert!(w[1] < w[0]);
            }
            // MTCD download per file is the same G for every class.
            let g = panel.mtcd_download[0];
            for &d in &panel.mtcd_download {
                assert!((d - g).abs() < 1e-9);
            }
        }
        // At p = 1.0, G = 96; at p = 0.1, G ≈ 73.9.
        assert!((r.panels[1].mtcd_download[0] - 96.0).abs() < 1e-9);
        assert!((r.panels[0].mtcd_download[0] - 73.947).abs() < 0.01);
    }

    #[test]
    fn low_correlation_multi_file_peers_beat_mtsd() {
        // The paper's observation: at p = 0.1, high classes have a lower
        // online time per file under MTCD than MTSD, but class 1 is worse.
        let r = run(&Fig3Config::default()).unwrap();
        let panel = &r.panels[0];
        assert!(panel.mtcd_online[9] < panel.mtsd_online[9]);
        assert!(panel.mtcd_online[0] > panel.mtsd_online[0]);
    }

    #[test]
    fn high_correlation_mtcd_loses_everywhere() {
        // At p = 1.0 both metrics are worse under MTCD for every class.
        let r = run(&Fig3Config::default()).unwrap();
        let panel = &r.panels[1];
        for i in 0..10 {
            assert!(panel.mtcd_download[i] > panel.mtsd_download[i]);
        }
        // Online: all classes ≥ 96 + 2 = 98 ≥ ... > 80? The per-file online
        // is G + 1/(iγ) ≥ 96 + 2 = 98 > 80 for every class.
        for i in 0..10 {
            assert!(panel.mtcd_online[i] > panel.mtsd_online[i]);
        }
    }

    #[test]
    fn tables_render() {
        let r = run(&Fig3Config::default()).unwrap();
        let tables = r.tables();
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 10);
        assert!(tables[0].render().contains("MTCD online"));
    }
}
