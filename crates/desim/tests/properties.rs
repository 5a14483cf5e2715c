//! Property-based tests of the simulation engine's core data structures.

use desim::prelude::*;
use desim::random::{low_bits, BernoulliThreshold, Geometric};
use proptest::prelude::*;
use rand::Standard;
use std::collections::BTreeSet;

/// Delays are whole multiples of `GRAIN` ticks, so simultaneous events (ties
/// broken by `seq`) are common.
const GRAIN: u64 = 100;

/// The constant delay of a parcel round trip: pushes at `now + ROUND_TRIP` arrive
/// in key order.
const ROUND_TRIP: u64 = 20 * GRAIN;

/// A model that schedules from a script and checks every dispatch against its
/// oracle, a sorted set of `(time, seq)` keys: the oracle's first key is the
/// event the engine has to dispatch next. An event's payload is its `seq`, the
/// count of schedule calls before it, which is how the engine breaks ties.
struct Scripted {
    /// `(op, short)`: op 0 is a pop (the engine's next dispatch); op 1 pushes at
    /// `now + ROUND_TRIP`, op 2 at `now + short * GRAIN`.
    script: std::vec::IntoIter<(u32, u64)>,
    oracle: BTreeSet<(u64, u64)>,
    next_seq: u64,
}

impl Scripted {
    fn new(script: Vec<(u32, u64)>) -> Self {
        Scripted {
            script: script.into_iter(),
            oracle: BTreeSet::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: u64, sched: &mut Scheduler<u64>) {
        sched.schedule_at(SimTime::from_ticks(time), self.next_seq);
        self.oracle.insert((time, self.next_seq));
        self.next_seq += 1;
    }

    /// Make the script's pushes up to its next pop, at the clock `now`.
    fn follow_script(&mut self, now: u64, sched: &mut Scheduler<u64>) {
        while let Some((op, short)) = self.script.next() {
            if op == 0 {
                return;
            }
            let delay = if op == 1 { ROUND_TRIP } else { short * GRAIN };
            self.push(now + delay, sched);
        }
    }
}

impl Model for Scripted {
    type Event = u64;
    fn handle(&mut self, now: SimTime, seq: u64, sched: &mut Scheduler<u64>) {
        assert_eq!(Some((now.ticks(), seq)), self.oracle.pop_first());
        self.follow_script(now.ticks(), sched);
    }
}

proptest! {
    // Pin the case count and RNG seed so every run (local or CI) generates exactly
    // the same inputs: a failure here always reproduces. The vendored proptest is
    // seed-deterministic by default; this makes the choice explicit and survives a
    // future swap to real proptest's `ProptestConfig` env-based seeding.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xDE51_0001))]

    /// The engine dispatches in the order of a sorted-set oracle, `(time, seq)`,
    /// under two workloads:
    ///
    /// * the engine's shape: any interleaving of pops and pushes, where a push
    ///   lands at `now + d`, `now` is the engine's clock and `d` is either the
    ///   constant round trip or a short random delay. The handler of each
    ///   dispatch makes the pushes up to the script's next pop; a pop with
    ///   nothing pending ends a run, and the script resumes from outside at the
    ///   clock;
    /// * no monotone structure: pushes at random absolute times, then a drain.
    #[test]
    fn event_queues_agree(
        ops in proptest::collection::vec((0u32..3, 0u64..ROUND_TRIP / GRAIN), 1..400),
        times in proptest::collection::vec(0u64..100_000, 1..2000),
    ) {
        let mut sim = Simulation::new(Scripted::new(ops));
        while !sim.model().script.as_slice().is_empty() {
            let now = sim.now().ticks();
            sim.init(|m, sched| m.follow_script(now, sched));
            sim.run();
        }
        prop_assert!(sim.model().oracle.is_empty(), "{} keys left", sim.model().oracle.len());
        prop_assert_eq!(sim.events_processed(), sim.model().next_seq);

        let mut sim = Simulation::new(Scripted::new(Vec::new()));
        sim.init(|m, sched| {
            for &time in &times {
                m.push(time, sched);
            }
        });
        prop_assert_eq!(sim.run(), times.len() as u64);
        prop_assert!(sim.model().oracle.is_empty(), "{} keys left", sim.model().oracle.len());
    }

    /// The engine dispatches every scheduled event exactly once and in time order,
    /// regardless of insertion order.
    #[test]
    fn engine_dispatches_all_events_in_order(times in proptest::collection::vec(0u64..100_000, 1..200)) {
        struct Collect {
            seen: Vec<u64>,
        }
        impl Model for Collect {
            type Event = u64;
            fn handle(&mut self, now: SimTime, _ev: u64, _s: &mut Scheduler<u64>) {
                self.seen.push(now.ticks());
            }
        }
        let mut sim = Simulation::new(Collect { seen: vec![] });
        for (i, &t) in times.iter().enumerate() {
            sim.scheduler().schedule_at(SimTime::from_ticks(t), i as u64);
        }
        prop_assert_eq!(sim.run() as usize, times.len());
        let seen = &sim.model().seen;
        prop_assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seen.clone(), sorted);
    }

    /// The raw-word path replays the sequential float draws exactly:
    ///
    /// * uniform draws taken in bulk through raw-word windows and Bernoulli
    ///   decisions handed out as hit masks, mixed with single draws and
    ///   `below`, consume exactly the sequential stream's words (the same
    ///   values, the same draw count);
    /// * the integer Bernoulli threshold `T = ⌈p·2⁵³⌉` decides as
    ///   `f64::from_raw(raw) < p` — on those words, and on both sides of its
    ///   boundary whatever the 11 low bits the conversion drops, for `p` on the
    ///   2⁻⁵³ lattice, one ulp either side of it, far below it and just under 1.
    #[test]
    fn fill_uniform01_matches_sequential_draws(
        seed in any::<u64>(),
        steps in proptest::collection::vec((0usize..4, 0usize..100), 1..16),
        warmup in 0usize..40,
        k in 1u64..(1 << 53),
        low in 0u64..(1 << 11),
    ) {
        let lattice = k as f64 / (1u64 << 53) as f64;
        let tiny = 1.0 / (1u64 << 60) as f64;
        let top = 1.0 - 1.0 / (1u64 << 53) as f64;
        let ps = [lattice, lattice.next_up(), lattice.next_down(), tiny, top];
        for p in ps {
            let threshold = BernoulliThreshold::new(p);
            // `p` reaches 1 only as the ulp above the top lattice point, where
            // the decision is made without a draw, as in `bernoulli`.
            prop_assert_eq!(threshold.fixed(), (p >= 1.0).then_some(true));
            let t = (p * (1u64 << 53) as f64).ceil() as u64;
            for word in [t - 1, t] {
                if word < 1 << 53 {
                    let raw = word << 11 | low;
                    prop_assert_eq!(threshold.mask(&[raw]) == 1, f64::from_raw(raw) < p, "p={} raw={:#x}", p, raw);
                }
            }
        }

        let mut bulk = RandomStream::new(seed, 7);
        let mut seq = RandomStream::new(seed, 7);
        for _ in 0..warmup {
            prop_assert_eq!(bulk.uniform01().to_bits(), seq.uniform01().to_bits());
        }
        for (kind, len) in steps {
            match kind {
                // `len` words through as many windows as it takes; the last one
                // is consumed only in part, and one consumes nothing.
                0 => {
                    bulk.raw_window(|_| 0);
                    let mut taken = Vec::new();
                    while taken.len() < len {
                        bulk.raw_window(|words| {
                            prop_assert!(words.len() >= 2);
                            prop_assert!(words.len() <= 64);
                            let n = words.len().min(len - taken.len());
                            taken.extend_from_slice(&words[..n]);
                            n
                        });
                    }
                    for raw in taken {
                        let u = seq.uniform01();
                        prop_assert_eq!(f64::from_raw(raw).to_bits(), u.to_bits());
                        for p in ps {
                            prop_assert_eq!(BernoulliThreshold::new(p).mask(&[raw]) == 1, u < p);
                        }
                    }
                }
                // `len` Bernoulli decisions as hit masks, including the drawless
                // p = 0 and 1; the last mask may end mid-buffer.
                1 => {
                    let p = [0.0, 1.0, lattice, tiny, top][len % 5];
                    let mut windows = Vec::new();
                    bulk.hit_masks(BernoulliThreshold::new(p), len as u64, |mask, n| windows.push((mask, n)));
                    prop_assert_eq!(windows.iter().map(|&(_, n)| n).sum::<usize>(), len);
                    for (mask, n) in windows {
                        prop_assert!((1..=64).contains(&n) && mask & !low_bits(n) == 0, "mask {:#x} of {}", mask, n);
                        for i in 0..n {
                            prop_assert_eq!(mask >> i & 1 == 1, seq.bernoulli(p), "p={}", p);
                        }
                    }
                }
                2 => {
                    for _ in 0..len {
                        prop_assert_eq!(bulk.uniform01().to_bits(), seq.uniform01().to_bits());
                    }
                }
                // `below` draws one or more words (its rejection loop).
                _ => {
                    let n = (len as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                    prop_assert_eq!(bulk.below(n), seq.below(n));
                }
            }
            prop_assert_eq!(bulk.draws(), seq.draws());
        }
        prop_assert_eq!(bulk.uniform01().to_bits(), seq.uniform01().to_bits());
    }

    /// A geometric draw through the table is the logarithm's draw, bit for bit:
    /// over many draws from any buffer offset, the values and the draw count
    /// equal `⌊ln u / ln(1 − p)⌋` taken on a twin stream, and so does the uniform
    /// draw after them. `p` is uniform, log-uniform down to 2⁻⁶⁰ (where the table
    /// decides nothing), or `1 − 2⁻ᵏ` (where `k` = 54 rounds to 1, which draws
    /// nothing).
    #[test]
    fn geometric_table_matches_the_logarithm(
        seed in any::<u64>(),
        kind in 0u32..3,
        x in 0.0f64..1.0,
        k in 1u32..55,
        offset in 0usize..64,
    ) {
        let p = match kind {
            0 => 1.0 - x,
            1 => (-60.0 * x).exp2(),
            _ => 1.0 - (-f64::from(k)).exp2(),
        };
        // The logarithm's draw, from the definition: `ln(1 − p)` takes `ln_1p`
        // only where `1.0 - p` rounds to 1.
        let ln_q = if 1.0 - p == 1.0 { (-p).ln_1p() } else { (1.0 - p).ln() };
        let logarithm = |s: &mut RandomStream| {
            if p >= 1.0 {
                return 0;
            }
            let u = loop {
                let u = s.uniform01();
                if u > 0.0 {
                    break u;
                }
            };
            (u.ln() / ln_q).floor() as u64
        };
        let dist = Geometric::new(p);
        let mut table = RandomStream::new(seed, 5);
        let mut twin = RandomStream::new(seed, 5);
        for _ in 0..offset {
            prop_assert_eq!(table.uniform01().to_bits(), twin.uniform01().to_bits());
        }
        for i in 0..3000 {
            prop_assert_eq!(table.geometric(&dist), logarithm(&mut twin), "p={} draw {}", p, i);
            prop_assert_eq!(table.draws(), twin.draws());
        }
        prop_assert_eq!(table.uniform01().to_bits(), twin.uniform01().to_bits());
    }

    /// Exponential samples are non-negative and their mean converges to the parameter.
    #[test]
    fn exponential_samples_have_the_right_mean(seed in any::<u64>(), mean in 0.5f64..100.0) {
        let mut s = RandomStream::new(seed, 1);
        let n = 20_000;
        let mut total = 0.0;
        for _ in 0..n {
            let x = s.exponential(mean);
            prop_assert!(x >= 0.0);
            total += x;
        }
        let sample_mean = total / n as f64;
        prop_assert!((sample_mean - mean).abs() / mean < 0.1,
            "sample mean {} vs {}", sample_mean, mean);
    }
}
