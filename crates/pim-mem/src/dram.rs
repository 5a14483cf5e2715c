//! A DRAM macro: a set of banks addressable as one flat byte space.
//!
//! The PIM chip model ([`crate::pim_chip`]) aggregates several macros, one per PIM
//! node. The macro keeps the bank-interleaved address map and aggregate statistics.

use crate::bank::Bank;
use crate::timing::DramTiming;
use serde::{Deserialize, Serialize};

/// How consecutive addresses map onto banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interleave {
    /// Consecutive rows rotate across banks (good for streaming across banks).
    RowInterleaved,
    /// Each bank owns one contiguous slab of the address space.
    Blocked,
}

/// A DRAM macro consisting of one or more banks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DramMacro {
    timing: DramTiming,
    banks: Vec<Bank>,
    interleave: Interleave,
}

impl DramMacro {
    /// Create a macro with `banks` banks of `rows_per_bank` rows each.
    pub fn new(
        timing: DramTiming,
        banks: usize,
        rows_per_bank: u64,
        interleave: Interleave,
    ) -> Self {
        assert!(banks > 0, "a macro needs at least one bank");
        DramMacro {
            timing,
            banks: (0..banks)
                .map(|_| Bank::new(timing, rows_per_bank))
                .collect(),
            interleave,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.banks.iter().map(|b| b.capacity_bits() / 8).sum()
    }

    /// Which bank serves byte address `addr`.
    pub(crate) fn bank_of(&self, addr: u64) -> usize {
        let row_bytes = self.timing.row_bits / 8;
        match self.interleave {
            Interleave::RowInterleaved => ((addr / row_bytes) % self.banks.len() as u64) as usize,
            Interleave::Blocked => {
                let per_bank = self.capacity_bytes() / self.banks.len() as u64;
                ((addr / per_bank.max(1)) as usize).min(self.banks.len() - 1)
            }
        }
    }

    /// Perform one page access; returns `(bank index, latency ns)`.
    pub fn access(&mut self, addr: u64) -> (usize, f64) {
        let bank = self.bank_of(addr);
        let latency = self.banks[bank].access(addr);
        (bank, latency)
    }

    /// Total accesses across banks.
    pub fn accesses(&self) -> u64 {
        self.banks.iter().map(|b| b.accesses()).sum()
    }

    /// Mean access latency across banks (weighted by access count).
    pub fn mean_latency_ns(&self) -> f64 {
        let total: u64 = self.accesses();
        if total == 0 {
            return 0.0;
        }
        self.banks
            .iter()
            .map(|b| b.mean_latency_ns() * b.accesses() as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Aggregate row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        let hits: u64 = self.banks.iter().map(|b| b.row_buffer().hits()).sum();
        let total: u64 = self
            .banks
            .iter()
            .map(|b| b.row_buffer().hits() + b.row_buffer().misses())
            .sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Peak streaming bandwidth of the whole macro (all banks active concurrently),
    /// in Gbit/s.
    pub fn peak_bandwidth_gbit_per_s(&self) -> f64 {
        self.timing.peak_bandwidth_gbit_per_s() * self.banks.len() as f64
    }

    /// Access a reference to bank `i`.
    pub fn bank(&self, i: usize) -> &Bank {
        &self.banks[i]
    }

    /// Timing parameters in use.
    pub fn timing(&self) -> DramTiming {
        self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        // One bank of 8192 2048-bit rows: 16 Mbit, a typical embedded-DRAM macro
        // of the era.
        let m = DramMacro::new(DramTiming::default(), 1, 8192, Interleave::Blocked);
        assert_eq!(m.capacity_bytes(), 8192 * 2048 / 8);
        assert_eq!(
            m.peak_bandwidth_gbit_per_s(),
            DramTiming::default().peak_bandwidth_gbit_per_s()
        );
        assert!(m.peak_bandwidth_gbit_per_s() > 50.0);
    }

    #[test]
    fn row_interleaving_spreads_rows_across_banks() {
        let m = DramMacro::new(DramTiming::default(), 4, 128, Interleave::RowInterleaved);
        let row_bytes = 2048 / 8;
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(row_bytes), 1);
        assert_eq!(m.bank_of(2 * row_bytes), 2);
        assert_eq!(m.bank_of(4 * row_bytes), 0);
    }

    #[test]
    fn blocked_interleaving_gives_contiguous_slabs() {
        let m = DramMacro::new(DramTiming::default(), 4, 128, Interleave::Blocked);
        let per_bank = m.capacity_bytes() / 4;
        assert_eq!(m.bank_of(0), 0);
        assert_eq!(m.bank_of(per_bank - 1), 0);
        assert_eq!(m.bank_of(per_bank), 1);
        assert_eq!(m.bank_of(m.capacity_bytes() - 1), 3);
    }

    #[test]
    fn access_routes_to_correct_bank_and_accumulates() {
        let mut m = DramMacro::new(DramTiming::default(), 2, 64, Interleave::RowInterleaved);
        let row_bytes = 2048 / 8;
        let (b0, l0) = m.access(0);
        let (b1, _l1) = m.access(row_bytes);
        assert_eq!(b0, 0);
        assert_eq!(b1, 1);
        assert!((l0 - 22.0).abs() < 1e-12);
        assert_eq!(m.accesses(), 2);
        assert!(m.mean_latency_ns() > 0.0);
    }

    #[test]
    fn hit_rate_aggregates_over_banks() {
        let mut m = DramMacro::new(DramTiming::default(), 2, 64, Interleave::RowInterleaved);
        // Two accesses to the same row in bank 0: miss then hit.
        m.access(0);
        m.access(32);
        // One access to bank 1: miss.
        m.access(2048 / 8);
        assert!((m.row_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn more_banks_more_peak_bandwidth() {
        let one = DramMacro::new(DramTiming::default(), 1, 64, Interleave::RowInterleaved);
        let four = DramMacro::new(DramTiming::default(), 4, 64, Interleave::RowInterleaved);
        assert!(
            (four.peak_bandwidth_gbit_per_s() - 4.0 * one.peak_bandwidth_gbit_per_s()).abs() < 1e-9
        );
    }
}
