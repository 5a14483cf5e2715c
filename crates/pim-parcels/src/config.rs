//! Configuration of the parcel latency-hiding study (Section 4.2).
//!
//! Both the test system (split-transaction parcels) and the control system (blocking
//! message passing) are driven by the same parameters: clock rate, instruction mix,
//! local memory access time, the fraction of memory accesses that are remote, the flat
//! system-wide latency, and — for the test system only — the degree of parallelism
//! (average number of active parcels per processor) and the per-parcel handling
//! overhead.

use desim::time::TICKS_PER_NS;
use pim_workload::InstructionMix;
use serde::{Deserialize, Serialize};

/// Parameters shared by the control and test systems of the parcel study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParcelConfig {
    /// Number of PIM nodes in the system.
    pub nodes: usize,
    /// Processor cycle time in nanoseconds (both systems use the same clock).
    pub cycle_ns: f64,
    /// Instruction mix (fraction of operations that access memory).
    pub mix: InstructionMix,
    /// Local memory access time in cycles.
    pub local_memory_cycles: f64,
    /// Fraction of memory accesses that target a remote node, in `[0, 1]`.
    pub remote_fraction: f64,
    /// One-way system-wide latency in cycles (the paper treats it as flat).
    pub latency_cycles: f64,
    /// Degree of parallelism: average number of active parcels per processor
    /// (test system only; the control system always has exactly one thread).
    pub parallelism: usize,
    /// Overhead, in cycles, paid by the test system for creating/assimilating each
    /// remote parcel (context switch + parcel handling). The control system does not
    /// pay it: its blocking semantics need no parcel machinery. This is what produces
    /// the paper's "performance advantage … in fact reversed" region at low
    /// parallelism and short latencies.
    pub parcel_overhead_cycles: f64,
    /// Simulated horizon in cycles: both systems run for this long and the work they
    /// complete is compared.
    pub horizon_cycles: f64,
}

impl Default for ParcelConfig {
    fn default() -> Self {
        ParcelConfig {
            nodes: 32,
            cycle_ns: 1.0,
            mix: InstructionMix::table1(),
            local_memory_cycles: 30.0,
            remote_fraction: 0.2,
            latency_cycles: 1000.0,
            parallelism: 8,
            parcel_overhead_cycles: 4.0,
            horizon_cycles: 2_000_000.0,
        }
    }
}

impl ParcelConfig {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("node count must be positive".into());
        }
        // Both counts stay within `u32`; the test system's events carry node
        // indices as `u32`.
        for (name, count) in [("nodes", self.nodes), ("parallelism", self.parallelism)] {
            if u32::try_from(count).is_err() {
                return Err(format!("{name} must be at most {}, got {count}", u32::MAX));
            }
        }
        for (name, value) in [
            ("cycle_ns", self.cycle_ns),
            ("local_memory_cycles", self.local_memory_cycles),
            ("remote_fraction", self.remote_fraction),
            ("latency_cycles", self.latency_cycles),
            ("parcel_overhead_cycles", self.parcel_overhead_cycles),
            ("horizon_cycles", self.horizon_cycles),
        ] {
            if !value.is_finite() {
                return Err(format!("{name} must be finite, got {value}"));
            }
        }
        if self.cycle_ns <= 0.0 {
            return Err("cycle time must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.remote_fraction) {
            return Err(format!(
                "remote fraction out of range: {}",
                self.remote_fraction
            ));
        }
        if self.latency_cycles < 0.0 {
            return Err("latency cannot be negative".into());
        }
        if self.parallelism == 0 {
            return Err("parallelism must be at least 1".into());
        }
        if self.parcel_overhead_cycles < 0.0 {
            return Err("parcel overhead cannot be negative".into());
        }
        if self.horizon_cycles <= 0.0 {
            return Err("horizon must be positive".into());
        }
        // The simulated clock counts `u64` ticks and saturates at the last one.
        // A horizon that converts to that tick would pin the clock while cycles
        // remain, and the control system's loop would never reach its exit.
        if self.horizon_ns() * TICKS_PER_NS as f64 >= u64::MAX as f64 {
            return Err(format!(
                "horizon_cycles × cycle_ns must stay below {:e} ns, the simulated \
                 clock's range; got {:e} ns",
                u64::MAX as f64 / TICKS_PER_NS as f64,
                self.horizon_ns()
            ));
        }
        if self.local_memory_cycles < 1.0 {
            return Err("local memory access must take at least one cycle".into());
        }
        Ok(())
    }

    /// Validate, panicking on an invalid configuration: the constructor contract of
    /// every parcel model (an invalid config is a caller bug and fails loudly).
    pub fn assert_valid(&self) {
        #[expect(
            clippy::expect_used,
            reason = "constructor contract — an invalid config is a caller bug and fails loudly"
        )]
        self.validate().expect("invalid parcel-study configuration");
    }

    /// Probability that one operation triggers a remote access.
    pub fn remote_prob_per_op(&self) -> f64 {
        self.mix.memory_fraction() * self.remote_fraction
    }

    /// Expected time of one *local* operation in cycles (compute or local memory,
    /// conditioned on it not being remote).
    pub(crate) fn expected_local_op_cycles(&self) -> f64 {
        let mix = self.mix.memory_fraction();
        let p_local_mem = mix * (1.0 - self.remote_fraction);
        let p_compute = 1.0 - mix;
        let denom = p_compute + p_local_mem;
        if denom <= 0.0 {
            // Every operation is a remote access; no local work exists between remotes.
            return 0.0;
        }
        (p_compute * 1.0 + p_local_mem * self.local_memory_cycles) / denom
    }

    /// Expected length of a "run" — local work between two consecutive remote accesses —
    /// in cycles. This is the `R` of the Saavedra-Barrera multithreading model.
    pub fn expected_run_cycles(&self) -> f64 {
        let p_remote = self.remote_prob_per_op();
        if p_remote <= 0.0 {
            return f64::INFINITY;
        }
        // Expected number of local ops before a remote one: (1 - p) / p.
        let local_ops = (1.0 - p_remote) / p_remote;
        local_ops * self.expected_local_op_cycles()
    }

    /// Round-trip remote latency in cycles.
    pub fn round_trip_cycles(&self) -> f64 {
        2.0 * self.latency_cycles
    }

    /// Simulated horizon in nanoseconds.
    pub fn horizon_ns(&self) -> f64 {
        self.horizon_cycles * self.cycle_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ParcelConfig::default().validate().is_ok());
    }

    #[test]
    fn remote_probability_composes_mix_and_fraction() {
        let c = ParcelConfig {
            remote_fraction: 0.5,
            ..Default::default()
        };
        assert!((c.remote_prob_per_op() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn expected_run_shrinks_with_remote_fraction() {
        let near = ParcelConfig {
            remote_fraction: 0.1,
            ..Default::default()
        };
        let far = ParcelConfig {
            remote_fraction: 0.9,
            ..Default::default()
        };
        assert!(near.expected_run_cycles() > far.expected_run_cycles());
    }

    #[test]
    fn zero_remote_fraction_means_infinite_run() {
        let c = ParcelConfig {
            remote_fraction: 0.0,
            ..Default::default()
        };
        assert!(c.expected_run_cycles().is_infinite());
    }

    #[test]
    fn all_remote_ops_leave_no_local_work() {
        let c = ParcelConfig {
            remote_fraction: 1.0,
            mix: InstructionMix::with_memory_fraction(1.0),
            ..Default::default()
        };
        assert_eq!(c.expected_local_op_cycles(), 0.0);
        assert!((c.expected_run_cycles() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        for f in [
            |c: &mut ParcelConfig| c.nodes = 0,
            |c: &mut ParcelConfig| c.remote_fraction = 1.5,
            |c: &mut ParcelConfig| c.parallelism = 0,
            |c: &mut ParcelConfig| c.latency_cycles = -1.0,
            |c: &mut ParcelConfig| c.horizon_cycles = 0.0,
            |c: &mut ParcelConfig| c.parcel_overhead_cycles = -2.0,
            |c: &mut ParcelConfig| c.local_memory_cycles = 0.0,
            // NaN/∞ compare false against the range bounds, so they need explicit
            // finiteness checks to be caught before a simulation spins forever.
            |c: &mut ParcelConfig| c.latency_cycles = f64::NAN,
            |c: &mut ParcelConfig| c.horizon_cycles = f64::NAN,
            |c: &mut ParcelConfig| c.local_memory_cycles = f64::NAN,
            |c: &mut ParcelConfig| c.parcel_overhead_cycles = f64::INFINITY,
            |c: &mut ParcelConfig| c.cycle_ns = f64::NAN,
        ] {
            let mut c = ParcelConfig::default();
            f(&mut c);
            assert!(c.validate().is_err());
        }
        // Counts past the `u32` bound.
        let too_many = u32::MAX as usize + 1;
        for (field, c) in [
            (
                "nodes",
                ParcelConfig {
                    nodes: too_many,
                    ..Default::default()
                },
            ),
            (
                "parallelism",
                ParcelConfig {
                    parallelism: too_many,
                    ..Default::default()
                },
            ),
        ] {
            let err = c.validate().unwrap_err();
            assert!(err.starts_with(field), "{err}");
        }
        // The horizon must end inside the simulated clock's 2^64 ticks of 1 ps,
        // about 1.8447e16 ns, whatever the cycle time.
        for (horizon_cycles, cycle_ns, fits) in [
            (1.8e16, 1.0, true),
            (1.9e16, 1.0, false),
            (9.0e15, 2.0, true),
            (9.5e15, 2.0, false),
        ] {
            let c = ParcelConfig {
                horizon_cycles,
                cycle_ns,
                ..Default::default()
            };
            match c.validate() {
                Ok(()) => assert!(fits, "{horizon_cycles} cycles of {cycle_ns} ns passed"),
                Err(err) => {
                    assert!(!fits, "{horizon_cycles} cycles of {cycle_ns} ns: {err}");
                    assert!(err.starts_with("horizon_cycles"), "{err}");
                }
            }
        }
    }

    #[test]
    fn round_trip_and_horizon_conversions() {
        let c = ParcelConfig {
            latency_cycles: 500.0,
            cycle_ns: 2.0,
            ..Default::default()
        };
        assert!((c.round_trip_cycles() - 1000.0).abs() < 1e-12);
        assert!((c.horizon_ns() - c.horizon_cycles * 2.0).abs() < 1e-9);
    }
}
