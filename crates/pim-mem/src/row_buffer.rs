//! Row-buffer state tracking.
//!
//! A DRAM bank latches one full row in its digital row buffer after activation; wide
//! words (pages) are then streamed out of the buffer at page-access latency. PIM logic
//! sits directly on this buffer, which is where the architecture's bandwidth advantage
//! comes from. This module tracks which row is open and classifies each access as a
//! row-buffer hit or miss (open-page policy).

/// Outcome of presenting an access to a row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOutcome {
    /// The addressed row was already open: page access only.
    Hit,
    /// A different (or no) row was open: the row must be activated first.
    Miss,
}

/// Open-page row buffer for a single bank.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowBuffer {
    open_row: Option<u64>,
    hits: u64,
    misses: u64,
}

impl RowBuffer {
    /// A row buffer with no open row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Present an access to `row`; updates the open row under an open-page policy.
    pub fn access(&mut self, row: u64) -> RowOutcome {
        if self.open_row == Some(row) {
            self.hits += 1;
            RowOutcome::Hit
        } else {
            self.open_row = Some(row);
            self.misses += 1;
            RowOutcome::Miss
        }
    }

    /// Hit fraction over all accesses (0 when no accesses were made).
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut rb = RowBuffer::new();
        assert_eq!(rb.access(7), RowOutcome::Miss);
        assert_eq!(rb.access(7), RowOutcome::Hit);
        assert_eq!(rb.access(7), RowOutcome::Hit);
        assert_eq!(rb.hits, 2);
        assert_eq!(rb.misses, 1);
    }

    #[test]
    fn switching_rows_misses() {
        let mut rb = RowBuffer::new();
        rb.access(1);
        assert_eq!(rb.access(2), RowOutcome::Miss);
        assert_eq!(rb.access(1), RowOutcome::Miss);
        assert!((rb.hit_rate() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_of_streaming_pattern() {
        let mut rb = RowBuffer::new();
        // 8 pages per row: 1 miss + 7 hits per row.
        for row in 0..10u64 {
            for _page in 0..8 {
                rb.access(row);
            }
        }
        assert!((rb.hit_rate() - 7.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hit_rate_is_zero() {
        assert_eq!(RowBuffer::new().hit_rate(), 0.0);
    }
}
