//! A DRAM bank: rows behind a single row buffer, with access-latency accounting.

use crate::row_buffer::{RowBuffer, RowOutcome};
use crate::timing::DramTiming;

/// One independently addressable DRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    timing: DramTiming,
    rows: u64,
    row_buffer: RowBuffer,
    total_latency_ns: f64,
    accesses: u64,
    bits_transferred: u64,
}

impl Bank {
    /// Create a bank with `rows` rows using the given timing.
    pub fn new(timing: DramTiming, rows: u64) -> Self {
        assert!(rows > 0, "a bank needs at least one row");
        Bank {
            timing,
            rows,
            row_buffer: RowBuffer::new(),
            total_latency_ns: 0.0,
            accesses: 0,
            bits_transferred: 0,
        }
    }

    /// Row index that holds byte address `addr` (row-major, page-interleaved within row).
    pub(crate) fn row_of(&self, addr: u64) -> u64 {
        let row_bytes = self.timing.row_bits / 8;
        (addr / row_bytes) % self.rows
    }

    /// Perform one page access at byte address `addr`; returns the latency in ns.
    pub fn access(&mut self, addr: u64) -> f64 {
        let row = self.row_of(addr);
        let latency = match self.row_buffer.access(row) {
            RowOutcome::Hit => self.timing.page_access_ns,
            RowOutcome::Miss => self.timing.row_access_ns + self.timing.page_access_ns,
        };
        self.accesses += 1;
        self.total_latency_ns += latency;
        self.bits_transferred += self.timing.page_bits;
        latency
    }

    /// Mean access latency in ns (0 when unused).
    pub fn mean_latency_ns(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency_ns / self.accesses as f64
        }
    }

    /// Row-buffer hit rate so far.
    pub fn row_hit_rate(&self) -> f64 {
        self.row_buffer.hit_rate()
    }

    /// Achieved bandwidth in Gbit/s given the busy time accumulated so far.
    pub fn achieved_bandwidth_gbit_per_s(&self) -> f64 {
        if self.total_latency_ns <= 0.0 {
            0.0
        } else {
            (self.bits_transferred as f64 / (self.total_latency_ns * 1e-9)) / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> Bank {
        Bank::new(DramTiming::default(), 1024)
    }

    #[test]
    fn sequential_access_latency() {
        let mut b = bank();
        // Row is 2048 bits = 256 bytes; page is 256 bits = 32 bytes => 8 pages/row.
        let first = b.access(0);
        assert!(
            (first - 22.0).abs() < 1e-12,
            "cold access = row + page = 22 ns, got {first}"
        );
        let second = b.access(32);
        assert!(
            (second - 2.0).abs() < 1e-12,
            "open-row access = 2 ns, got {second}"
        );
        assert!((b.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn row_mapping_wraps_at_capacity() {
        let b = bank();
        let row_bytes = 2048 / 8;
        assert_eq!(b.row_of(0), 0);
        assert_eq!(b.row_of(row_bytes - 1), 0);
        assert_eq!(b.row_of(row_bytes), 1);
        assert_eq!(b.row_of(row_bytes * b.rows), 0);
    }

    #[test]
    fn streaming_achieves_near_peak_bandwidth() {
        let mut b = bank();
        let row_bytes = 2048 / 8;
        let page_bytes = 256 / 8;
        for addr in (0..row_bytes * 512).step_by(page_bytes as usize) {
            b.access(addr);
        }
        let achieved = b.achieved_bandwidth_gbit_per_s();
        let peak = DramTiming::default().peak_bandwidth_gbit_per_s();
        assert!(
            (achieved - peak).abs() / peak < 0.01,
            "streaming bandwidth {achieved} should match peak {peak}"
        );
        assert!(achieved > 50.0, "paper claim: > 50 Gbit/s per macro");
    }

    #[test]
    fn random_access_bandwidth_is_far_below_peak() {
        let mut b = bank();
        // Stride of exactly one row so every access opens a new row.
        let row_bytes = 2048 / 8;
        for i in 0..512u64 {
            b.access(i * row_bytes);
        }
        let achieved = b.achieved_bandwidth_gbit_per_s();
        let peak = DramTiming::default().peak_bandwidth_gbit_per_s();
        assert!(
            achieved < peak / 3.0,
            "random-row bandwidth {achieved} vs peak {peak}"
        );
        assert_eq!(b.row_hit_rate(), 0.0);
    }

    #[test]
    fn statistics_accumulate() {
        let mut b = bank();
        b.access(0);
        b.access(32);
        b.access(64);
        assert_eq!(b.accesses, 3);
        let mean = b.mean_latency_ns();
        assert!((mean - (22.0 + 2.0 + 2.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn unused_bank_reports_zeroes() {
        let b = bank();
        assert_eq!(b.mean_latency_ns(), 0.0);
        assert_eq!(b.achieved_bandwidth_gbit_per_s(), 0.0);
    }
}
