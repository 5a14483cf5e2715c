//! The pim-workload → pim-mem "measured" bridge.
//!
//! The paper characterizes workloads statistically ("assumed or measured"), and the
//! structural models in `pim-mem` exist so the statistical parameters can be
//! *measured* from concrete address streams instead of assumed. This module is that
//! measurement path: it drives a synthetic [`OperationStream`] (instruction mix ×
//! address pattern, from `pim-workload`) through a host-side set-associative cache
//! and a DRAM bank with a row buffer (from `pim-mem`), and reports the statistics the
//! tradeoff models consume — cache miss rate, row-buffer hit rate, mean memory
//! latency and achieved bandwidth.
//!
//! Determinism contract: [`measure_stream`] is a pure function of
//! `(MeasureConfig, seed)`. Two calls with the same inputs produce identical
//! [`MeasuredStats`], bit for bit, which is what lets spec-defined "measured"
//! scenarios ([`crate::spec`]) ride the work-stealing batch runner and still emit
//! byte-identical artifacts at any `--jobs` setting.

use desim::random::RandomStream;
use pim_mem::{Bank, DramTiming, SetAssociativeCache};
use pim_workload::{AddressPattern, InstructionMix, OperationStream};
use serde::{Deserialize, Serialize};

/// The most lines a Zipf table or the host cache may span: 2^24, twice the
/// builtin SpMV profile's Zipf support. Both are allocated per line up front
/// (8 B per Zipf rank, 16 B per cache way), so a larger geometry from an
/// untrusted spec could ask for terabytes and abort the process.
const MAX_LINES: u64 = 1 << 24;

/// Configuration of one measured run: the synthetic stream plus the memory-system
/// geometry it is driven through.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasureConfig {
    /// Number of operations to draw from the stream.
    pub ops: u64,
    /// Instruction mix of the stream (memory fraction decides how many operations
    /// reference memory at all).
    pub mix: InstructionMix,
    /// Address pattern of the stream's memory references.
    pub pattern: AddressPattern,
    /// Host cache capacity in bytes.
    pub cache_bytes: u64,
    /// Host cache line size in bytes (must be a power of two).
    pub cache_line_bytes: u64,
    /// Host cache associativity.
    pub cache_ways: usize,
    /// Rows in the DRAM bank behind the cache.
    pub bank_rows: u64,
}

impl MeasureConfig {
    /// A 64 KiB / 64 B-line / 4-way host cache over a 1024-row bank — the same
    /// geometry the `bandwidth_claims` builtin calibrates against.
    pub fn with_pattern(ops: u64, mix: InstructionMix, pattern: AddressPattern) -> Self {
        MeasureConfig {
            ops,
            mix,
            pattern,
            cache_bytes: 64 * 1024,
            cache_line_bytes: 64,
            cache_ways: 4,
            bank_rows: 1024,
        }
    }

    /// Validate the geometry; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.ops == 0 {
            return Err("measured runs need at least one operation".into());
        }
        if self.cache_line_bytes == 0 || !self.cache_line_bytes.is_power_of_two() {
            return Err(format!(
                "cache_line_bytes must be a power of two, got {}",
                self.cache_line_bytes
            ));
        }
        if self.cache_bytes < self.cache_line_bytes {
            return Err("cache must hold at least one line".into());
        }
        if self.cache_ways == 0 {
            return Err("cache associativity must be at least 1".into());
        }
        let lines = self.cache_bytes / self.cache_line_bytes;
        if lines > MAX_LINES {
            return Err(format!(
                "cache_bytes ({}) holds {lines} lines of {} B; at most {MAX_LINES} are allowed",
                self.cache_bytes, self.cache_line_bytes
            ));
        }
        if self.cache_ways as u64 > lines {
            return Err(format!(
                "cache_ways ({}) exceeds the cache's {lines} lines",
                self.cache_ways
            ));
        }
        if self.bank_rows == 0 {
            return Err("the bank needs at least one row".into());
        }
        validate_pattern(&self.pattern)
    }
}

/// Range-check an [`AddressPattern`] (the workload crate itself accepts anything).
pub(crate) fn validate_pattern(pattern: &AddressPattern) -> Result<(), String> {
    match pattern {
        AddressPattern::Sequential { stride } => {
            if *stride == 0 {
                return Err("sequential stride must be positive".into());
            }
        }
        AddressPattern::UniformRandom { footprint, line } => {
            if *line == 0 {
                return Err("uniform line size must be positive".into());
            }
            if footprint < line {
                return Err(format!(
                    "uniform footprint ({footprint}) must be at least one line ({line})"
                ));
            }
        }
        AddressPattern::Zipf {
            footprint,
            line,
            exponent,
        } => {
            if *line == 0 {
                return Err("zipf line size must be positive".into());
            }
            if footprint < line {
                return Err(format!(
                    "zipf footprint ({footprint}) must be at least one line ({line})"
                ));
            }
            if footprint / line > MAX_LINES {
                return Err(format!(
                    "zipf footprint ({footprint}) spans {} lines of {line} B; \
                     at most {MAX_LINES} are allowed",
                    footprint / line
                ));
            }
            if !exponent.is_finite() || *exponent < 0.0 {
                return Err(format!(
                    "zipf exponent must be finite and non-negative, got {exponent}"
                ));
            }
        }
    }
    Ok(())
}

/// A compact, stable label for an address pattern (used as a table cell).
pub(crate) fn pattern_label(pattern: &AddressPattern) -> String {
    match pattern {
        AddressPattern::Sequential { stride } => format!("seq_s{stride}"),
        AddressPattern::UniformRandom { footprint, line } => {
            format!("uniform_f{footprint}_l{line}")
        }
        AddressPattern::Zipf {
            footprint,
            line,
            exponent,
        } => format!("zipf_f{footprint}_l{line}_e{exponent}"),
    }
}

/// Statistics measured from one stream run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredStats {
    /// Operations drawn from the stream.
    pub ops: u64,
    /// Operations that referenced memory (loads + stores).
    pub memory_accesses: u64,
    /// Host cache miss fraction over the memory accesses (the measured `Pmiss`).
    pub host_miss_rate: f64,
    /// Row-buffer hit fraction over the accesses that reached the bank.
    pub row_hit_rate: f64,
    /// Mean DRAM latency in ns over the accesses that reached the bank
    /// (0 when everything hit in the host cache).
    pub mean_dram_latency_ns: f64,
    /// Bandwidth the bank achieved over its busy time, in Gbit/s.
    pub achieved_gbit_per_s: f64,
}

/// Drive `config.ops` synthetic operations through the host cache and DRAM bank.
///
/// Memory references first probe the host cache; misses go to the bank (whose
/// row-buffer behaviour sets the latency and bandwidth). Pure function of
/// `(config, seed)` — see the module docs for why that matters.
pub fn measure_stream(config: &MeasureConfig, seed: u64) -> MeasuredStats {
    let mut stream = OperationStream::new(
        config.mix,
        config.pattern.clone(),
        RandomStream::new(seed, 1),
    );
    let mut cache = SetAssociativeCache::new(
        config.cache_bytes,
        config.cache_line_bytes,
        config.cache_ways,
    );
    let mut bank = Bank::new(DramTiming::default(), config.bank_rows);
    let mut memory_accesses = 0u64;
    for _ in 0..config.ops {
        let op = stream.next_op();
        if op.kind == pim_workload::OpKind::Compute {
            continue;
        }
        memory_accesses += 1;
        if cache.access(op.address) == pim_mem::CacheOutcome::Miss {
            bank.access(op.address);
        }
    }
    MeasuredStats {
        ops: config.ops,
        memory_accesses,
        host_miss_rate: cache.miss_rate(),
        row_hit_rate: bank.row_hit_rate(),
        mean_dram_latency_ns: bank.mean_latency_ns(),
        achieved_gbit_per_s: bank.achieved_bandwidth_gbit_per_s(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(footprint: u64) -> MeasureConfig {
        MeasureConfig::with_pattern(
            50_000,
            InstructionMix::table1(),
            AddressPattern::UniformRandom {
                footprint,
                line: 64,
            },
        )
    }

    #[test]
    fn default_geometry_is_valid() {
        assert!(uniform(1 << 20).validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        for f in [
            |c: &mut MeasureConfig| c.ops = 0,
            |c: &mut MeasureConfig| c.cache_line_bytes = 48,
            |c: &mut MeasureConfig| c.cache_line_bytes = 0,
            |c: &mut MeasureConfig| c.cache_ways = 0,
            |c: &mut MeasureConfig| c.bank_rows = 0,
            |c: &mut MeasureConfig| c.cache_bytes = 32,
            |c: &mut MeasureConfig| c.pattern = AddressPattern::Sequential { stride: 0 },
            |c: &mut MeasureConfig| {
                c.pattern = AddressPattern::UniformRandom {
                    footprint: 32,
                    line: 64,
                }
            },
            |c: &mut MeasureConfig| {
                c.pattern = AddressPattern::Zipf {
                    footprint: 1 << 20,
                    line: 64,
                    exponent: f64::NAN,
                }
            },
            // Too large to allocate: a 2^34-line Zipf table, 2^34 cache
            // lines, 2^40 ways.
            |c: &mut MeasureConfig| {
                c.pattern = AddressPattern::Zipf {
                    footprint: 1 << 34,
                    line: 1,
                    exponent: 1.0,
                }
            },
            |c: &mut MeasureConfig| c.cache_bytes = 1 << 40,
            |c: &mut MeasureConfig| c.cache_ways = 1 << 40,
        ] {
            let mut c = uniform(1 << 20);
            f(&mut c);
            assert!(c.validate().is_err(), "degenerate config accepted: {c:?}");
        }
    }

    #[test]
    fn line_caps_are_inclusive() {
        let mut c = uniform(1 << 20);
        c.pattern = AddressPattern::Zipf {
            footprint: 64 * MAX_LINES,
            line: 64,
            exponent: 1.0,
        };
        c.cache_bytes = 64 * MAX_LINES;
        c.cache_ways = MAX_LINES as usize;
        assert_eq!(c.validate(), Ok(()));
        c.cache_bytes += 64;
        assert!(c.validate().is_err());
    }

    #[test]
    fn builtin_kernel_profiles_validate() {
        for kernel in pim_workload::Kernel::all() {
            let profile = kernel.profile();
            let c = MeasureConfig::with_pattern(1_000, profile.mix, profile.pattern);
            assert_eq!(c.validate(), Ok(()), "{}", profile.name);
        }
    }

    #[test]
    fn same_seed_reproduces_bit_identical_stats() {
        let c = uniform(1 << 20);
        assert_eq!(measure_stream(&c, 7), measure_stream(&c, 7));
        assert_ne!(
            measure_stream(&c, 7).host_miss_rate,
            measure_stream(&c, 8).host_miss_rate
        );
    }

    #[test]
    fn sequential_stream_mostly_hits_cache_and_row_buffer() {
        let c = MeasureConfig::with_pattern(
            50_000,
            InstructionMix::table1(),
            AddressPattern::Sequential { stride: 8 },
        );
        let s = measure_stream(&c, 1);
        // 8 consecutive byte-strided references share each 64 B line.
        assert!(s.host_miss_rate < 0.2, "miss rate {}", s.host_miss_rate);
        // The cache filters the stream down to one bank access per 64 B line, and a
        // 256 B DRAM row holds four lines: 3 of 4 bank accesses hit the open row.
        assert!(s.row_hit_rate > 0.7, "row hit rate {}", s.row_hit_rate);
    }

    #[test]
    fn pattern_labels_are_stable() {
        assert_eq!(
            pattern_label(&AddressPattern::Sequential { stride: 64 }),
            "seq_s64"
        );
        assert_eq!(
            pattern_label(&AddressPattern::UniformRandom {
                footprint: 1024,
                line: 64
            }),
            "uniform_f1024_l64"
        );
        assert_eq!(
            pattern_label(&AddressPattern::Zipf {
                footprint: 1024,
                line: 64,
                exponent: 1.2
            }),
            "zipf_f1024_l64_e1.2"
        );
    }
}
