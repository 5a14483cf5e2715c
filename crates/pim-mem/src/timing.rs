//! Timing parameters of one on-chip DRAM macro.
//!
//! The values mirror Section 2.1 of the paper: 2048-bit rows, 256-bit pages out of
//! the row buffer, a conservative 20 ns row access and 2 ns page access. A chip's
//! peak bandwidth is the macro's peak times its node count, which is how the
//! `bandwidth_claims` scenario computes it. The processors' Table 1 timing lives in
//! `pim_core::config::SystemConfig::table1`.

use serde::{Deserialize, Serialize};

/// Timing and geometry of a single on-chip DRAM macro.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Time to activate a row into the row buffer (ns). Paper: "a very conservative 20 ns".
    pub row_access_ns: f64,
    /// Time to page one wide word out of an open row buffer (ns). Paper: 2 ns.
    pub page_access_ns: f64,
    /// Bits latched per row activation. Paper: 2048.
    pub row_bits: u64,
    /// Bits transferred per page access out of the row buffer. Paper: 256.
    pub page_bits: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            row_access_ns: 20.0,
            page_access_ns: 2.0,
            row_bits: 2048,
            page_bits: 256,
        }
    }
}

impl DramTiming {
    /// Number of page accesses that drain one full row buffer.
    pub(crate) fn pages_per_row(&self) -> u64 {
        (self.row_bits / self.page_bits).max(1)
    }

    /// Peak streaming bandwidth of one macro in bits per second, assuming every row is
    /// fully drained (one row activation amortized over `pages_per_row` page accesses).
    ///
    /// With the default (paper) parameters this exceeds 50 Gbit/s, reproducing the
    /// Section 2.1 claim.
    pub(crate) fn peak_bandwidth_bits_per_s(&self) -> f64 {
        let pages = self.pages_per_row() as f64;
        let time_per_row_ns = self.row_access_ns + pages * self.page_access_ns;
        let bits_per_row = self.row_bits as f64;
        bits_per_row / (time_per_row_ns * 1e-9)
    }

    /// Peak streaming bandwidth of one macro in Gbit/s.
    pub fn peak_bandwidth_gbit_per_s(&self) -> f64 {
        self.peak_bandwidth_bits_per_s() / 1e9
    }

    /// Bandwidth if every page access required a fresh row activation (no locality).
    pub fn worst_case_bandwidth_gbit_per_s(&self) -> f64 {
        let time_ns = self.row_access_ns + self.page_access_ns;
        (self.page_bits as f64 / (time_ns * 1e-9)) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let t = DramTiming::default();
        assert_eq!(t.row_bits, 2048);
        assert_eq!(t.page_bits, 256);
        assert_eq!(t.pages_per_row(), 8);
        assert!((t.row_access_ns - 20.0).abs() < 1e-12);
        assert!((t.page_access_ns - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_macro_exceeds_50_gbit_claim() {
        // Paper §2.1: "a single on-chip DRAM macro could sustain a bandwidth of over 50 Gbit/s".
        let bw = DramTiming::default().peak_bandwidth_gbit_per_s();
        assert!(
            bw > 50.0,
            "peak macro bandwidth {bw} Gbit/s should exceed 50 Gbit/s"
        );
        assert!(
            bw < 100.0,
            "peak macro bandwidth {bw} Gbit/s implausibly high"
        );
    }

    #[test]
    fn worst_case_bandwidth_is_much_lower() {
        let t = DramTiming::default();
        assert!(t.worst_case_bandwidth_gbit_per_s() < t.peak_bandwidth_gbit_per_s() / 3.0);
    }

    #[test]
    fn pages_per_row_guard_against_zero() {
        let t = DramTiming {
            page_bits: 4096,
            ..Default::default()
        };
        assert_eq!(t.pages_per_row(), 1);
    }
}
