//! Property-based tests of the workload-model invariants.

use desim::random::RandomStream;
use pim_workload::*;
use proptest::prelude::*;

proptest! {
    /// Work partitions conserve the total operation count and keep both shares
    /// non-negative, for any fraction.
    #[test]
    fn work_partition_conserves_ops(total in 0u64..10_000_000_000, pct in 0u32..=1000) {
        let wl = pct as f64 / 1000.0;
        let p = WorkPartition::new(total, wl);
        prop_assert_eq!(p.hwp_ops() + p.lwp_ops(), total);
        prop_assert!(p.lwp_ops() <= total);
        prop_assert!((p.hwp_fraction() + p.lwp_fraction - 1.0).abs() < 1e-12);
    }

    /// Thread partitions conserve the total and, for the uniform policy, differ by at
    /// most one operation between the most and least loaded node.
    #[test]
    fn thread_partition_conserves_and_balances(total in 0u64..5_000_000, nodes in 1usize..512) {
        let p = ThreadPartition::new(total, nodes, ThreadBalance::Uniform);
        prop_assert_eq!(p.total_ops(), total);
        prop_assert_eq!(p.nodes(), nodes);
        let max = p.max_ops();
        let min = p.ops_per_node().iter().copied().min().unwrap();
        prop_assert!(max - min <= 1);
    }

    /// Skewed thread partitions still conserve the total and never exceed the stated
    /// imbalance by more than rounding (the bound is only meaningful when each node
    /// holds enough operations for rounding and the conservation fix-up to be noise).
    #[test]
    fn skewed_partition_conserves(total in 1u64..5_000_000, nodes in 1usize..256, skew_pct in 0u32..100) {
        let skew = skew_pct as f64 / 100.0;
        let p = ThreadPartition::new(total, nodes, ThreadBalance::Skewed { skew });
        prop_assert_eq!(p.total_ops(), total);
        if nodes > 1 && total > 1_000 * nodes as u64 {
            prop_assert!(p.imbalance() <= 1.0 + skew + 0.02,
                "imbalance {} with skew {}", p.imbalance(), skew);
        }
    }

    /// The instruction mix's expected memory+compute operation counts always add up to
    /// the total.
    #[test]
    fn instruction_mix_partitions_ops(mem_frac in 0.0f64..1.0, ops in 0u64..1_000_000_000) {
        let mix = InstructionMix::with_memory_fraction(mem_frac);
        let total = mix.expected_memory_ops(ops) + mix.expected_compute_ops(ops);
        prop_assert!((total - ops as f64).abs() < 1e-3);
        prop_assert!((mix.memory_fraction() - mem_frac).abs() < 1e-12);
    }

    /// The synthetic operation stream respects its mix for any pattern, and memory
    /// operations always carry in-range addresses.
    #[test]
    fn operation_stream_respects_mix(mem_pct in 0u32..=100, seed in any::<u64>()) {
        let mix = InstructionMix::with_memory_fraction(mem_pct as f64 / 100.0);
        let pattern = AddressPattern::UniformRandom { footprint: 1 << 20, line: 64 };
        let mut stream = OperationStream::new(mix, pattern, RandomStream::new(seed, 3));
        let n = 20_000;
        let ops = stream.take_ops(n);
        let mem = ops.iter().filter(|o| o.kind != OpKind::Compute).count() as f64 / n as f64;
        prop_assert!((mem - mem_pct as f64 / 100.0).abs() < 0.02);
        for op in &ops {
            if op.kind != OpKind::Compute {
                prop_assert!(op.address < 1 << 20);
            }
        }
    }
}
