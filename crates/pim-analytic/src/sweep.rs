//! Sensitivity of the break-even parameter `NB` to the machine constants.
//!
//! The paper's conclusion hinges on `NB` being small (≈ 3 for the Table 1 parameters):
//! only a handful of PIM nodes are needed before offloading low-locality work can never
//! hurt. This module sweeps the constants that compose `NB` — host cache miss rate,
//! LWP/HWP clock ratio, and the two memory access times — to show how robust that
//! conclusion is (the `ablation_nb` scenario; see ARCHITECTURE.md).

use crate::hwp_lwp::AnalyticModel;
use pim_core::config::SystemConfig;
use serde::{Deserialize, Serialize};

/// Which constant a sensitivity sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SweepParameter {
    /// Host cache miss rate `Pmiss`.
    CacheMissRate,
    /// Lightweight cycle time `TLcycle` (ns), i.e. the LWP/HWP clock ratio.
    LwpCycleTime,
    /// Lightweight memory access time `TML` (HWP cycles).
    LwpMemoryCycles,
    /// Heavyweight memory access time `TMH` (HWP cycles).
    HwpMemoryCycles,
    /// Load/store fraction of the instruction mix.
    MemoryMix,
}

/// One row of a sensitivity sweep.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SensitivityRow {
    /// The value the swept parameter took.
    pub value: f64,
    /// The resulting break-even parameter `NB`.
    pub nb: f64,
    /// Gain at 32 nodes with 100% lightweight work, for scale.
    pub gain_32_full: f64,
}

/// Sweep one parameter over `values`, holding the rest at the Table 1 constants.
pub fn nb_sensitivity(parameter: SweepParameter, values: &[f64]) -> Vec<SensitivityRow> {
    values
        .iter()
        .map(|&v| {
            let mut config = SystemConfig::table1();
            match parameter {
                SweepParameter::CacheMissRate => config.p_miss = v,
                SweepParameter::LwpCycleTime => config.lwp_cycle_ns = v,
                SweepParameter::LwpMemoryCycles => config.lwp_memory_cycles = v,
                SweepParameter::HwpMemoryCycles => config.hwp_memory_cycles = v,
                SweepParameter::MemoryMix => {
                    config.mix = pim_workload::InstructionMix::with_memory_fraction(v)
                }
            }
            let model = AnalyticModel::new(config);
            SensitivityRow {
                value: v,
                nb: model.nb(),
                gain_32_full: model.gain(32.0, 1.0),
            }
        })
        .collect()
}

/// Render a sensitivity sweep as CSV.
pub fn sensitivity_csv(parameter: SweepParameter, rows: &[SensitivityRow]) -> String {
    use std::fmt::Write as _;
    let name = match parameter {
        SweepParameter::CacheMissRate => "p_miss",
        SweepParameter::LwpCycleTime => "lwp_cycle_ns",
        SweepParameter::LwpMemoryCycles => "lwp_memory_cycles",
        SweepParameter::HwpMemoryCycles => "hwp_memory_cycles",
        SweepParameter::MemoryMix => "memory_mix",
    };
    let mut out = format!("{name},nb,gain_n32_wl100\n");
    for r in rows {
        let _ = writeln!(out, "{:.4},{:.4},{:.4}", r.value, r.nb, r.gain_32_full);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_host_cache_lowers_nb() {
        let rows = nb_sensitivity(SweepParameter::CacheMissRate, &[0.01, 0.05, 0.1, 0.2, 0.5]);
        assert_eq!(rows.len(), 5);
        assert!(rows.windows(2).all(|w| w[1].nb < w[0].nb), "{rows:?}");
        // At 50% miss rate the host is so slow that a single PIM node breaks even.
        assert!(rows.last().unwrap().nb < 1.5);
    }

    #[test]
    fn slower_lwp_clock_raises_nb() {
        let rows = nb_sensitivity(SweepParameter::LwpCycleTime, &[1.0, 2.0, 5.0, 10.0, 20.0]);
        assert!(rows.windows(2).all(|w| w[1].nb > w[0].nb));
        // An LWP clocked like the host (1 ns) nearly matches it one-for-one on this mix.
        assert!(rows[0].nb < 2.5);
    }

    #[test]
    fn faster_pim_memory_lowers_nb() {
        let rows = nb_sensitivity(SweepParameter::LwpMemoryCycles, &[10.0, 20.0, 30.0, 60.0]);
        assert!(rows.windows(2).all(|w| w[1].nb > w[0].nb));
    }

    #[test]
    fn slower_host_memory_lowers_nb() {
        let rows = nb_sensitivity(SweepParameter::HwpMemoryCycles, &[30.0, 90.0, 200.0, 500.0]);
        assert!(rows.windows(2).all(|w| w[1].nb < w[0].nb));
    }

    #[test]
    fn memory_mix_moves_nb_toward_the_latency_ratio() {
        // With no memory operations NB is the pure clock ratio (5); as the mix becomes
        // memory-dominated NB falls toward TML / (TCH + Pmiss*TMH) = 30/11 ≈ 2.7.
        let rows = nb_sensitivity(SweepParameter::MemoryMix, &[0.0, 0.3, 0.6, 1.0]);
        assert!((rows[0].nb - 5.0).abs() < 1e-12);
        assert!((rows.last().unwrap().nb - 30.0 / 11.0).abs() < 1e-9);
        assert!(rows.windows(2).all(|w| w[1].nb < w[0].nb));
    }

    #[test]
    fn gain_column_is_consistent_with_nb() {
        for row in nb_sensitivity(SweepParameter::CacheMissRate, &[0.05, 0.1, 0.2]) {
            assert!((row.gain_32_full - 32.0 / row.nb).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_contains_header_and_rows() {
        let rows = nb_sensitivity(SweepParameter::CacheMissRate, &[0.1, 0.2]);
        let csv = sensitivity_csv(SweepParameter::CacheMissRate, &rows);
        assert!(csv.starts_with("p_miss,nb,gain_n32_wl100"));
        assert_eq!(csv.lines().count(), 3);
    }
}
