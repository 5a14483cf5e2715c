//! System configuration: the parametric assumptions of Table 1.
//!
//! All times are normalized to heavyweight-processor (HWP) cycles, exactly as in the
//! paper: "The units of cycles refers to HWP cycles to normalize all times to the same
//! base level." With `THcycle = 1 ns`, one HWP cycle is one nanosecond, so cycle counts
//! and nanoseconds are interchangeable throughout the study.

use pim_workload::InstructionMix;
use serde::{Deserialize, Serialize};

/// The paper's Table 1: parametric assumptions and metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// `W`: total work in operations (Table 1: 100,000,000).
    pub total_ops: u64,
    /// `THcycle`: heavyweight cycle time in nanoseconds (Table 1: 1 ns).
    pub hwp_cycle_ns: f64,
    /// `TLcycle`: lightweight cycle time in nanoseconds (Table 1: 5 ns).
    pub lwp_cycle_ns: f64,
    /// `TMH`: heavyweight memory access time in HWP cycles (Table 1: 90).
    pub hwp_memory_cycles: f64,
    /// `TCH`: heavyweight cache access time in HWP cycles (Table 1: 2).
    pub hwp_cache_cycles: f64,
    /// `TML`: lightweight memory access time in HWP cycles (Table 1: 30).
    pub lwp_memory_cycles: f64,
    /// `Pmiss`: heavyweight cache miss rate (Table 1: 0.1).
    pub p_miss: f64,
    /// `mix_l/s`: fraction of operations that are loads or stores (Table 1: 0.30).
    pub mix: InstructionMix,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::table1()
    }
}

impl SystemConfig {
    /// The exact Table 1 parameter set.
    pub fn table1() -> Self {
        SystemConfig {
            total_ops: 100_000_000,
            hwp_cycle_ns: 1.0,
            lwp_cycle_ns: 5.0,
            hwp_memory_cycles: 90.0,
            hwp_cache_cycles: 2.0,
            lwp_memory_cycles: 30.0,
            p_miss: 0.1,
            mix: InstructionMix::table1(),
        }
    }

    /// Validate parameter ranges; returns an error string describing the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_ops == 0 {
            return Err("total_ops must be positive".into());
        }
        for (name, value) in [
            ("hwp_cycle_ns", self.hwp_cycle_ns),
            ("lwp_cycle_ns", self.lwp_cycle_ns),
            ("hwp_memory_cycles", self.hwp_memory_cycles),
            ("hwp_cache_cycles", self.hwp_cache_cycles),
            ("lwp_memory_cycles", self.lwp_memory_cycles),
            ("p_miss", self.p_miss),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite, got {value}"));
            }
        }
        if self.hwp_cycle_ns <= 0.0 || self.lwp_cycle_ns <= 0.0 {
            return Err("cycle times must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.p_miss) {
            return Err(format!("p_miss out of range: {}", self.p_miss));
        }
        if self.hwp_cache_cycles < 1.0 {
            return Err("cache access must take at least one cycle".into());
        }
        if self.hwp_memory_cycles < self.hwp_cache_cycles {
            return Err("memory access must be slower than cache access".into());
        }
        if self.lwp_memory_cycles <= 0.0 {
            return Err("LWP memory access time must be positive".into());
        }
        Ok(())
    }

    /// Validate, panicking on an invalid configuration: the constructor contract of
    /// every study-1 model (an invalid config is a caller bug and fails loudly).
    pub fn assert_valid(&self) {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract — an invalid config is a caller bug and fails loudly"
        )]
        self.validate().expect("invalid system configuration");
    }

    /// Expected time for one operation on the heavyweight processor, in nanoseconds:
    /// `[1 + mix · (TCH − 1 + Pmiss · TMH)] · THcycle` — the denominator of the paper's
    /// `NB` expression.
    pub fn hwp_op_time_ns(&self) -> f64 {
        let mix = self.mix.memory_fraction();
        (1.0 + mix * (self.hwp_cache_cycles - 1.0 + self.p_miss * self.hwp_memory_cycles))
            * self.hwp_cycle_ns
    }

    /// Expected time for one operation on a lightweight PIM node, in nanoseconds:
    /// `[TLcycle + mix · (TML − TLcycle)] · THcycle` — the numerator of the paper's
    /// `NB` expression (all terms already expressed in HWP cycles).
    pub fn lwp_op_time_ns(&self) -> f64 {
        let mix = self.mix.memory_fraction();
        let tl = self.lwp_cycle_ns / self.hwp_cycle_ns; // TLcycle in HWP cycles
        (tl + mix * (self.lwp_memory_cycles - tl)) * self.hwp_cycle_ns
    }

    /// The paper's third, orthogonal parameter `NB`: the LWP/HWP per-operation time
    /// ratio, which is also the break-even node count. For `N > NB` the PIM-augmented
    /// system is never slower than the host alone.
    pub fn nb(&self) -> f64 {
        self.lwp_op_time_ns() / self.hwp_op_time_ns()
    }

    /// Render the configuration as the rows of Table 1 (name, description, value).
    pub fn table1_rows(&self) -> Vec<(String, String, String)> {
        vec![
            (
                "W".into(),
                "total work = WH + WL".into(),
                format!("{} operations", self.total_ops),
            ),
            (
                "%WH".into(),
                "percent heavyweight work".into(),
                "varied 0% to 100%".into(),
            ),
            (
                "%WL".into(),
                "percent lightweight work".into(),
                "varied 0% to 100%".into(),
            ),
            (
                "THcycle".into(),
                "heavyweight cycle time".into(),
                format!("{} nsec", self.hwp_cycle_ns),
            ),
            (
                "TLcycle".into(),
                "lightweight cycle time".into(),
                format!("{} nsec", self.lwp_cycle_ns),
            ),
            (
                "TMH".into(),
                "heavyweight memory access time".into(),
                format!("{} cycles", self.hwp_memory_cycles),
            ),
            (
                "TCH".into(),
                "heavyweight cache access time".into(),
                format!("{} cycles", self.hwp_cache_cycles),
            ),
            (
                "TML".into(),
                "lightweight memory access time".into(),
                format!("{} cycles", self.lwp_memory_cycles),
            ),
            (
                "Pmiss".into(),
                "heavyweight cache miss rate".into(),
                format!("{}", self.p_miss),
            ),
            (
                "mix_l/s".into(),
                "instruction mix for load and store ops".into(),
                format!("{:.2}", self.mix.memory_fraction()),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults_are_valid() {
        let c = SystemConfig::table1();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_ops, 100_000_000);
        assert!((c.mix.memory_fraction() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn expected_per_op_times_match_hand_calculation() {
        let c = SystemConfig::table1();
        // HWP: 1 + 0.3*(2 - 1 + 0.1*90) = 1 + 0.3*10 = 4 ns.
        assert!(
            (c.hwp_op_time_ns() - 4.0).abs() < 1e-12,
            "hwp {}",
            c.hwp_op_time_ns()
        );
        // LWP: 5 + 0.3*(30 - 5) = 12.5 ns.
        assert!(
            (c.lwp_op_time_ns() - 12.5).abs() < 1e-12,
            "lwp {}",
            c.lwp_op_time_ns()
        );
    }

    #[test]
    fn nb_matches_paper_formula() {
        let c = SystemConfig::table1();
        // NB = 12.5 / 4 = 3.125 for the Table 1 parameters.
        assert!((c.nb() - 3.125).abs() < 1e-12, "NB {}", c.nb());
    }

    #[test]
    fn nb_moves_with_cache_quality() {
        // A worse host cache (higher miss rate) lowers NB: PIM breaks even sooner.
        let mut worse = SystemConfig::table1();
        worse.p_miss = 0.3;
        assert!(worse.nb() < SystemConfig::table1().nb());
        // A better host cache raises NB.
        let mut better = SystemConfig::table1();
        better.p_miss = 0.01;
        assert!(better.nb() > SystemConfig::table1().nb());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut c = SystemConfig::table1();
        c.p_miss = 1.5;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table1();
        c.total_ops = 0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table1();
        c.hwp_memory_cycles = 1.0;
        assert!(c.validate().is_err());
        let mut c = SystemConfig::table1();
        c.hwp_cache_cycles = 0.5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_parameters() {
        // NaN compares false against every range bound, so without explicit finiteness
        // checks these would sail through and corrupt a whole sweep downstream.
        for f in [
            |c: &mut SystemConfig| c.hwp_memory_cycles = f64::NAN,
            |c: &mut SystemConfig| c.lwp_memory_cycles = f64::NAN,
            |c: &mut SystemConfig| c.hwp_cycle_ns = f64::INFINITY,
            |c: &mut SystemConfig| c.p_miss = f64::NAN,
        ] {
            let mut c = SystemConfig::table1();
            f(&mut c);
            assert!(c.validate().is_err(), "non-finite parameter accepted");
        }
    }

    #[test]
    fn table1_rows_cover_all_parameters() {
        let rows = SystemConfig::table1().table1_rows();
        assert_eq!(rows.len(), 10);
        assert!(rows
            .iter()
            .any(|(p, _, v)| p == "W" && v.contains("100000000")));
        assert!(rows.iter().any(|(p, _, v)| p == "Pmiss" && v == "0.1"));
    }

    #[test]
    fn serde_round_trip() {
        let c = SystemConfig::table1();
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
