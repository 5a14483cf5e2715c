//! Random variate generation for statistical simulation models.
//!
//! SES/Workbench models draw service times, branch decisions and workload attributes
//! from named distributions attached to independent random streams. This module
//! provides the same facility: a [`RandomStream`] is a seeded generator (so every
//! experiment is reproducible), and a [`Dist`] is a serializable description of a
//! distribution that can be sampled against any stream.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng, Standard};
use serde::{Deserialize, Serialize};

/// Number of raw 64-bit words prefetched per buffer refill.
///
/// Small enough that cloning a stream stays cheap, large enough that the
/// xoshiro state is touched once per 32 draws instead of once per draw in the
/// simulation inner loops.
const RAW_BUF_LEN: usize = 32;

/// Fewest words [`RandomStream::raw_window`] ever lends: enough for one
/// decision that needs two draws.
const MIN_WINDOW: usize = 2;

/// A seeded, reproducible random stream.
///
/// Streams created with different identifiers from the same experiment seed are
/// statistically independent (the identifier is mixed into the seed with
/// SplitMix64), which lets a model dedicate one stream to service times, another
/// to routing, etc., without cross-coupling — the standard variance-reduction
/// discipline for queuing studies.
///
/// Draws are served from a small prefetched buffer of raw generator words. The
/// buffer is an internal detail: every consumer (single draws, [`Self::below`]'s
/// rejection loop, the [`Self::raw_window`] bulk path) takes words from it
/// front-to-back, so the value sequence is bit-identical to drawing from the
/// underlying generator one word at a time.
#[derive(Debug, Clone)]
pub struct RandomStream {
    rng: StdRng,
    seed: u64,
    stream_id: u64,
    draws: u64,
    /// Invariant: `buf[buf_pos..]` are exactly the next outputs of `rng`'s
    /// pre-buffering word sequence, in order.
    buf: [u64; RAW_BUF_LEN],
    buf_pos: usize,
}

/// A Bernoulli(`p`) decision in integer form, for sampling loops that read raw
/// generator words through [`RandomStream::raw_window`].
///
/// A uniform draw is `u = (raw >> 11) · 2⁻⁵³`, so `u < p` holds exactly when
/// `raw >> 11 < ⌈p · 2⁵³⌉` (both sides are exact: scaling by a power of two
/// loses nothing). [`Self::hit`] is therefore bit-for-bit the decision
/// `uniform01() < p`, without the float conversion. As in
/// [`RandomStream::bernoulli`], `p ≤ 0` and `p ≥ 1` are decided without a
/// draw: [`Self::words`] is 0 and [`Self::hit`] ignores its word.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliThreshold {
    bound: u64,
    words: usize,
}

impl BernoulliThreshold {
    /// The threshold of success probability `p` (must lie in `[0, 1]`).
    #[inline]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        let (bound, words) = if p <= 0.0 {
            (0, 0)
        } else if p >= 1.0 {
            (1 << 53, 0)
        } else {
            // ⌈p · 2⁵³⌉ in integer steps (`f64::ceil` is a libm call on the
            // baseline x86-64 target); every conversion here is exact.
            let scaled = p * (1u64 << 53) as f64;
            let floor = scaled as u64;
            (floor + u64::from(floor as f64 != scaled), 1)
        };
        BernoulliThreshold { bound, words }
    }

    /// Words one decision consumes: 1, or 0 when `p` is 0 or 1.
    #[inline]
    pub fn words(self) -> usize {
        self.words
    }

    /// The decision on raw word `raw`: exactly `f64::from_raw(raw) < p`.
    #[inline]
    pub fn hit(self, raw: u64) -> bool {
        raw >> 11 < self.bound
    }
}

/// Mix a (seed, stream) pair into a single 64-bit seed using SplitMix64 steps.
///
/// Public because it is *the* seed-derivation primitive of the workspace: every
/// layer that needs decorrelated streams from one base seed (per-stream RNGs here,
/// scenario seeds in `pim-harness`, per-unit spec seeds) must use this exact
/// function — hand-copied variants would have to be kept bit-identical forever or
/// the byte-identity golden files break.
pub fn mix_seed(seed: u64, stream_id: u64) -> u64 {
    let mut z = seed ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RandomStream {
    /// Create stream `stream_id` of the experiment identified by `seed`.
    pub fn new(seed: u64, stream_id: u64) -> Self {
        RandomStream {
            rng: StdRng::seed_from_u64(mix_seed(seed, stream_id)),
            seed,
            stream_id,
            draws: 0,
            buf: [0; RAW_BUF_LEN],
            buf_pos: RAW_BUF_LEN,
        }
    }

    /// Refill the prefetch buffer from the underlying generator, keeping the
    /// unconsumed words at its front.
    fn refill(&mut self) {
        let kept = RAW_BUF_LEN - self.buf_pos;
        self.buf.copy_within(self.buf_pos.., 0);
        // A local copy of the generator state stays in registers across the
        // loop instead of being reloaded and stored for every word.
        let mut rng = self.rng.clone();
        for slot in &mut self.buf[kept..] {
            *slot = rng.next_u64();
        }
        self.rng = rng;
        self.buf_pos = 0;
    }

    /// The next raw 64-bit generator word, via the prefetch buffer.
    #[inline]
    fn next_raw(&mut self) -> u64 {
        if self.buf_pos == RAW_BUF_LEN {
            self.refill();
        }
        let x = self.buf[self.buf_pos];
        self.buf_pos += 1;
        x
    }

    /// Lend `f` the buffered raw generator words — always at least two — and
    /// consume the first `n` of them, where `n` is what `f` returns.
    ///
    /// This is the bulk path for tight sampling loops: each consumed word is one
    /// draw, taken in the same order as [`Self::uniform01`] would take it
    /// (`f64::from_raw(word)` is that draw's value), so a loop that decides with
    /// [`BernoulliThreshold::hit`] replays the sequential draws bit for bit.
    #[inline]
    pub fn raw_window(&mut self, f: impl FnOnce(&[u64]) -> usize) {
        if RAW_BUF_LEN - self.buf_pos < MIN_WINDOW {
            self.refill();
        }
        let window = &self.buf[self.buf_pos..];
        let used = f(window);
        assert!(used <= window.len(), "consumed more words than lent");
        self.buf_pos += used;
        self.draws += used as u64;
    }

    /// Fill `out` with Bernoulli decisions of `threshold` (1 = success), taking
    /// the words from [`Self::raw_window`]: bit-identical to calling
    /// [`Self::bernoulli`] once per slot, draw count included.
    #[inline]
    pub fn fill_bernoulli(&mut self, threshold: BernoulliThreshold, out: &mut [u8]) {
        let mut n = 0;
        while n < out.len() {
            self.raw_window(|words| {
                let mut i = 0;
                while n < out.len() && i < words.len() {
                    out[n] = threshold.hit(words[i]) as u8;
                    i += threshold.words();
                    n += 1;
                }
                i
            });
        }
    }

    /// The experiment seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The stream identifier.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Number of primitive draws made so far (diagnostic).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// A uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        self.draws += 1;
        f64::from_raw(self.next_raw())
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "uniform bounds reversed: [{lo}, {hi})");
        lo + (hi - lo) * self.uniform01()
    }

    /// A uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        self.draws += 1;
        // Debiased multiply-shift (Lemire), consuming raw words through the
        // prefetch buffer with exactly the draw pattern of the generator's
        // `gen_range(0..n)` — same word count, same result, bit-identical.
        let mut m = (self.next_raw() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                m = (self.next_raw() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.uniform01() < p
    }

    /// Exponential variate with the given mean (inverse-transform method).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = loop {
            let u = self.uniform01();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Standard-normal variate (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let x = 2.0 * self.uniform01() - 1.0;
            let y = 2.0 * self.uniform01() - 1.0;
            let s = x * x + y * y;
            if s > 0.0 && s < 1.0 {
                return x * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Normal variate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        mean + std_dev * self.standard_normal()
    }

    /// Geometric variate: number of Bernoulli(p) failures before the first success.
    pub fn geometric(&mut self, p: f64) -> u64 {
        self.geometric_with_ln(p, (1.0 - p).ln())
    }

    /// [`Self::geometric`] with `(1.0 - p).ln()` precomputed by the caller, so
    /// hot loops drawing many geometrics with a fixed `p` hoist the `ln`. The
    /// quotient is evaluated exactly as in the recomputing form, so results are
    /// bit-identical.
    #[inline]
    pub fn geometric_with_ln(&mut self, p: f64, ln_one_minus_p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric parameter out of range: {p}");
        if p >= 1.0 {
            return 0;
        }
        let u = loop {
            let u = self.uniform01();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / ln_one_minus_p).floor() as u64
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` (rejection-free inverse CDF
    /// over a precomputed table is provided by [`ZipfTable`]; this method is the slow
    /// path that recomputes the normalizer each call).
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        ZipfTable::new(n, s).sample(self)
    }

    /// Sample a described distribution.
    pub fn sample(&mut self, dist: &Dist) -> f64 {
        match *dist {
            Dist::Constant(c) => c,
            Dist::Uniform { lo, hi } => self.uniform(lo, hi),
            Dist::Exponential { mean } => self.exponential(mean),
            Dist::Normal { mean, std_dev } => self.normal(mean, std_dev),
            Dist::Erlang { k, mean } => {
                let k = k.max(1);
                let stage_mean = mean / k as f64;
                (0..k).map(|_| self.exponential(stage_mean)).sum()
            }
            Dist::Empirical { ref points } => {
                let u = self.uniform01();
                let mut acc = 0.0;
                for &(value, weight) in points {
                    acc += weight;
                    if u < acc {
                        return value;
                    }
                }
                points.last().map(|&(v, _)| v).unwrap_or(0.0)
            }
        }
    }

    /// Sample a described distribution, clamped to be non-negative (service times).
    pub fn sample_nonneg(&mut self, dist: &Dist) -> f64 {
        self.sample(dist).max(0.0)
    }
}

/// A serializable distribution description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// Always the same value (deterministic service).
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Normal with mean and standard deviation.
    Normal {
        /// Mean of the distribution.
        mean: f64,
        /// Standard deviation.
        std_dev: f64,
    },
    /// Erlang-k with the given overall mean (sum of k exponential stages).
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Overall mean (the sum across stages).
        mean: f64,
    },
    /// Discrete empirical distribution: `(value, probability)` pairs.
    /// Probabilities should sum to 1; the last value absorbs any remainder.
    Empirical {
        /// `(value, probability)` pairs.
        points: Vec<(f64, f64)>,
    },
}

impl Dist {
    /// The theoretical mean of the distribution.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(c) => c,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Exponential { mean } => mean,
            Dist::Normal { mean, .. } => mean,
            Dist::Erlang { mean, .. } => mean,
            Dist::Empirical { ref points } => points.iter().map(|&(v, w)| v * w).sum(),
        }
    }
}

/// Precomputed inverse-CDF table for Zipf(n, s) sampling.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Build the table for ranks `0..n` with exponent `s` (s = 0 is uniform).
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in weights.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        ZipfTable { cdf: weights }
    }

    /// Sample a rank in `[0, n)`.
    pub fn sample(&self, stream: &mut RandomStream) -> u64 {
        let u = stream.uniform01();
        match self
            .cdf
            // audit:allow(unwrap-in-library): CDF entries and the probe are finite by construction, so partial_cmp is total
            .binary_search_by(|probe| probe.partial_cmp(&u).unwrap())
        {
            Ok(i) => i as u64 + 1,
            Err(i) => i as u64,
        }
        .min(self.cdf.len() as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> RandomStream {
        RandomStream::new(0xC0FFEE, 1)
    }

    #[test]
    fn buffered_stream_matches_raw_generator_words() {
        // The prefetch buffer must consume the generator's word sequence in
        // order: uniform01 over the stream == f64::from_raw over the bare rng.
        let mut s = RandomStream::new(0xABCD, 9);
        let mut raw = StdRng::seed_from_u64(mix_seed(0xABCD, 9));
        for _ in 0..(3 * RAW_BUF_LEN + 5) {
            let expect = f64::from_raw(raw.next_u64());
            assert_eq!(s.uniform01().to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn fill_uniform01_is_bit_identical_to_sequential_draws() {
        // Uniform draws filled in bulk through raw-word windows replay the
        // sequential draws, whatever the window boundaries.
        let mut bulk = RandomStream::new(0x5EED, 4);
        let mut seq = RandomStream::new(0x5EED, 4);
        // Warm the buffers unevenly so window boundaries differ between the two.
        assert_eq!(bulk.uniform01().to_bits(), seq.uniform01().to_bits());
        for len in [
            0usize,
            1,
            7,
            RAW_BUF_LEN - 1,
            RAW_BUF_LEN,
            RAW_BUF_LEN + 3,
            100,
        ] {
            let mut taken = Vec::new();
            while taken.len() < len {
                bulk.raw_window(|words| {
                    assert!(words.len() >= MIN_WINDOW);
                    let n = words.len().min(len - taken.len());
                    taken.extend_from_slice(&words[..n]);
                    n
                });
            }
            for raw in taken {
                assert_eq!(f64::from_raw(raw).to_bits(), seq.uniform01().to_bits());
            }
            assert_eq!(bulk.draws(), seq.draws());
        }
    }

    #[test]
    fn below_matches_generator_gen_range() {
        use rand::Rng;
        let mut s = RandomStream::new(0xB0B, 2);
        let mut raw = StdRng::seed_from_u64(mix_seed(0xB0B, 2));
        // Mix of spans, including non-powers of two that exercise the
        // rejection loop's variable word consumption.
        for n in [1u64, 2, 3, 7, 17, 1000, u64::MAX - 1] {
            for _ in 0..200 {
                assert_eq!(s.below(n), raw.gen_range(0..n));
            }
        }
    }

    #[test]
    fn geometric_with_ln_matches_geometric() {
        let mut a = RandomStream::new(0x9E0, 1);
        let mut b = RandomStream::new(0x9E0, 1);
        let p = 0.37_f64;
        let ln_q = (1.0 - p).ln();
        for _ in 0..500 {
            assert_eq!(a.geometric(p), b.geometric_with_ln(p, ln_q));
        }
        assert_eq!(a.draws(), b.draws());
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = RandomStream::new(7, 3);
        let mut b = RandomStream::new(7, 3);
        for _ in 0..100 {
            assert_eq!(a.uniform01().to_bits(), b.uniform01().to_bits());
        }
    }

    #[test]
    fn different_stream_ids_decorrelate() {
        let mut a = RandomStream::new(7, 1);
        let mut b = RandomStream::new(7, 2);
        let same = (0..64).filter(|_| a.uniform01() == b.uniform01()).count();
        assert!(
            same < 4,
            "streams with different ids should not track each other"
        );
    }

    #[test]
    fn uniform_bounds() {
        let mut s = stream();
        for _ in 0..10_000 {
            let x = s.uniform(3.0, 9.0);
            assert!((3.0..9.0).contains(&x));
        }
    }

    #[test]
    fn below_bounds() {
        let mut s = stream();
        for _ in 0..10_000 {
            assert!(s.below(17) < 17);
        }
    }

    #[test]
    fn bernoulli_extremes_and_mean() {
        let mut s = stream();
        assert!(!s.bernoulli(0.0));
        assert!(s.bernoulli(1.0));
        let hits = (0..20_000).filter(|_| s.bernoulli(0.3)).count() as f64 / 20_000.0;
        assert!(
            (hits - 0.3).abs() < 0.02,
            "empirical {hits} too far from 0.3"
        );
    }

    #[test]
    fn exponential_mean_converges() {
        let mut s = stream();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| s.exponential(42.0)).sum::<f64>() / n as f64;
        assert!((mean - 42.0).abs() / 42.0 < 0.03, "empirical mean {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut s = stream();
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| s.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var - 4.0).abs() < 0.2);
    }

    #[test]
    fn geometric_mean_converges() {
        let mut s = stream();
        let p = 0.25;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| s.geometric(p) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "empirical mean {mean} expect {expect}"
        );
        assert_eq!(s.geometric(1.0), 0);
    }

    #[test]
    fn erlang_mean_and_lower_variance_than_exponential() {
        let mut s = stream();
        let n = 30_000;
        let erl: Vec<f64> = (0..n)
            .map(|_| s.sample(&Dist::Erlang { k: 4, mean: 8.0 }))
            .collect();
        let exp: Vec<f64> = (0..n).map(|_| s.exponential(8.0)).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64]| {
            let m = mean(v);
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!((mean(&erl) - 8.0).abs() < 0.2);
        assert!(
            var(&erl) < var(&exp),
            "Erlang-4 must have lower variance than exponential"
        );
    }

    #[test]
    fn empirical_distribution_respects_weights() {
        let mut s = stream();
        let d = Dist::Empirical {
            points: vec![(1.0, 0.2), (2.0, 0.5), (3.0, 0.3)],
        };
        let n = 30_000;
        let mut counts = [0u32; 3];
        for _ in 0..n {
            let v = s.sample(&d);
            counts[v as usize - 1] += 1;
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(counts[0]) - 0.2).abs() < 0.02);
        assert!((f(counts[1]) - 0.5).abs() < 0.02);
        assert!((f(counts[2]) - 0.3).abs() < 0.02);
    }

    #[test]
    fn dist_means() {
        assert_eq!(Dist::Constant(4.0).mean(), 4.0);
        assert_eq!(Dist::Uniform { lo: 2.0, hi: 6.0 }.mean(), 4.0);
        assert_eq!(Dist::Exponential { mean: 5.0 }.mean(), 5.0);
        assert_eq!(Dist::Erlang { k: 3, mean: 9.0 }.mean(), 9.0);
        let emp = Dist::Empirical {
            points: vec![(1.0, 0.5), (3.0, 0.5)],
        };
        assert!((emp.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut s = stream();
        let table = ZipfTable::new(100, 1.2);
        let n = 40_000;
        let mut low = 0u32;
        for _ in 0..n {
            let r = table.sample(&mut s);
            assert!(r < 100);
            if r < 10 {
                low += 1;
            }
        }
        assert!(
            low as f64 / n as f64 > 0.5,
            "Zipf(1.2) should concentrate mass on low ranks"
        );
    }

    #[test]
    fn zipf_with_zero_exponent_is_roughly_uniform() {
        let mut s = stream();
        let table = ZipfTable::new(10, 0.0);
        let n = 50_000;
        let mut counts = vec![0u32; 10];
        for _ in 0..n {
            counts[table.sample(&mut s) as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!(
                (f - 0.1).abs() < 0.02,
                "bucket frequency {f} deviates from uniform"
            );
        }
    }

    #[test]
    fn sample_nonneg_clamps() {
        let mut s = stream();
        for _ in 0..1000 {
            assert!(
                s.sample_nonneg(&Dist::Normal {
                    mean: 0.0,
                    std_dev: 5.0
                }) >= 0.0
            );
        }
    }
}
