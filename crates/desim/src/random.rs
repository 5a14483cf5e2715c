//! Random variate generation for statistical simulation models.
//!
//! SES/Workbench models draw service times, branch decisions and workload attributes
//! from named distributions attached to independent random streams. This module
//! provides the same facility: a [`RandomStream`] is a seeded generator (so every
//! experiment is reproducible) with one method per distribution the models draw
//! from.
//!
//! Sampling loops that make one Bernoulli decision per simulated operation decide
//! a whole window of raw generator words at once. A [`BernoulliThreshold`] turns
//! `p` into an integer limit, so a word's decision is one compare and a window's
//! decisions are a `u64` hit mask ([`BernoulliThreshold::mask`]).
//! [`RandomStream::hit_masks`] hands out those masks for a run of decisions of one
//! threshold, computing each buffer's mask once however many calls share it. A
//! caller that only needs how many operations took each outcome counts the set
//! bits instead of visiting them; either way the words consumed, and so every
//! later draw, are those of the per-decision [`RandomStream::bernoulli`] path.
//!
//! A geometric draw is `⌊ln u / ln(1 − p)⌋` of a uniform `u`. A [`Geometric`]
//! precomputes, for each of 4096 buckets of `u` (a raw word's top 12 bits),
//! the value every `u` in the bucket gets when the bucket lies inside one step
//! of that floor with a margin. [`RandomStream::geometric`] looks the next
//! word's bucket up and takes the logarithm only where the table holds no
//! value, so the values drawn and the words consumed are the logarithm's.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng, Standard};

/// Number of raw 64-bit words prefetched per buffer refill: one per bit of a
/// hit mask, so a buffer's decisions fit one `u64`.
const RAW_BUF_LEN: usize = 64;

/// Fewest words [`RandomStream::raw_window`] ever lends: enough for one
/// decision that needs two draws.
const MIN_WINDOW: usize = 2;

/// A mask of the low `len` bits (`len` at most 64): the positions of a window
/// of `len` decisions.
#[inline]
pub fn low_bits(len: usize) -> u64 {
    u64::MAX.checked_shr(64 - len as u32).unwrap_or(0)
}

/// A seeded, reproducible random stream.
///
/// Streams created with different identifiers from the same experiment seed are
/// statistically independent (the identifier is mixed into the seed with
/// SplitMix64), which lets a model dedicate one stream to service times, another
/// to routing, etc., without cross-coupling — the standard variance-reduction
/// discipline for queuing studies.
///
/// Draws are served from a prefetched buffer of raw generator words. The buffer
/// is an internal detail: every consumer (single draws, [`Self::below`]'s
/// rejection loop, the [`Self::raw_window`] and [`Self::hit_masks`] bulk paths)
/// takes words from it front-to-back, so the value sequence is bit-identical to
/// drawing from the underlying generator one word at a time.
#[derive(Debug, Clone)]
pub struct RandomStream {
    rng: StdRng,
    draws: u64,
    /// Invariant: `buf[buf_pos..]` are exactly the next outputs of `rng`'s
    /// pre-buffering word sequence, in order.
    buf: [u64; RAW_BUF_LEN],
    buf_pos: usize,
    /// `(limit, mask)`: bit `i` of `mask` is the decision of `buf[i]` under the
    /// raw-word limit `limit`, for the last threshold [`Self::hit_masks`] used
    /// since the buffer was refilled. A limit of 0 (no drawing threshold has
    /// it) marks the mask stale.
    hits: (u64, u64),
}

/// A Bernoulli(`p`) decision in integer form, for sampling loops that decide
/// raw generator words a window at a time.
///
/// A uniform draw is `u = (raw >> 11) · 2⁻⁵³`, so `u < p` holds exactly when
/// `raw >> 11 < ⌈p · 2⁵³⌉`, that is when `raw < ⌈p · 2⁵³⌉ · 2¹¹` (both steps
/// are exact: scaling by a power of two loses nothing). For `0 < p < 1` that
/// limit is at most `2⁶⁴ − 2¹¹`, so one unsigned compare per word is bit for
/// bit the decision `uniform01() < p`, without the float conversion. As in
/// [`RandomStream::bernoulli`], `p ≤ 0` and `p ≥ 1` are decided without a draw
/// ([`Self::fixed`]).
#[derive(Debug, Clone, Copy)]
pub struct BernoulliThreshold {
    /// `⌈p · 2⁵³⌉ · 2¹¹` for `0 < p < 1` (never 0); 0 for a fixed decision.
    limit: u64,
    fixed: Option<bool>,
}

impl BernoulliThreshold {
    /// The threshold of success probability `p` (must lie in `[0, 1]`).
    #[inline]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p <= 0.0 || p >= 1.0 {
            return BernoulliThreshold {
                limit: 0,
                fixed: Some(p >= 1.0),
            };
        }
        // ⌈p · 2⁵³⌉ in integer steps (`f64::ceil` is a libm call on the
        // baseline x86-64 target); every conversion here is exact, and
        // `p < 1` keeps the result below 2⁵³.
        let scaled = p * (1u64 << 53) as f64;
        let floor = scaled as u64;
        BernoulliThreshold {
            limit: (floor + u64::from(floor as f64 != scaled)) << 11,
            fixed: None,
        }
    }

    /// The outcome of every decision when `p` is 0 or 1, which draw no word;
    /// `None` when each decision reads one word.
    #[inline]
    pub fn fixed(self) -> Option<bool> {
        self.fixed
    }

    /// The decisions on `words` (at most 64) as a hit mask: bit `i` is
    /// exactly `f64::from_raw(words[i]) < p`. A fixed threshold reads no word
    /// and gives its outcome at every position.
    #[inline]
    pub fn mask(self, words: &[u64]) -> u64 {
        assert!(words.len() <= 64, "a mask holds at most 64 decisions");
        match self.fixed {
            Some(true) => low_bits(words.len()),
            Some(false) => 0,
            // Within a chunk, last word first, so each compare shifts in below
            // the previous ones: a compare and an add-with-carry per word. The
            // chunks' chains are independent, so they overlap in the pipeline.
            None => words.chunks(8).rev().fold(0, |mask, chunk| {
                let bits = chunk
                    .iter()
                    .rev()
                    .fold(0, |m, &w| m << 1 | u64::from(w < self.limit));
                mask << chunk.len() | bits
            }),
        }
    }
}

/// Whether adding `n` terms, each one of `values`, onto `start` gives the same
/// `f64` in every order: true when `start` and every value are whole numbers
/// `≥ 0` and even `start + n · max(values)` stays below 2⁵³, so that every
/// partial sum is an integer `f64` holds exactly. Then `start +`
/// [`counted_sum`] of the terms' counts is their left-to-right sum, bit for
/// bit. A fractional value fails, although a dyadic one might still sum
/// exactly: the check asks only what it can show cheaply.
pub fn sums_exactly(start: f64, values: &[f64], n: u64) -> bool {
    const LIMIT: f64 = (1u64 << 53) as f64;
    let whole = |x: f64| (0.0..LIMIT).contains(&x) && x as u64 as f64 == x;
    let max = values.iter().copied().fold(0.0, f64::max);
    // Every rounding below is monotone and 2⁵³ is representable, so a true
    // bound at or past 2⁵³ never computes as below it.
    whole(start) && values.iter().all(|&v| whole(v)) && start + n as f64 * max < LIMIT
}

/// `Σ counts[i] · values[i]`, added from `0.0` in index order: where
/// [`sums_exactly`] holds for the terms, the sum of those terms in any order.
pub fn counted_sum(counts: &[u64], values: &[f64]) -> f64 {
    counts
        .iter()
        .zip(values)
        .fold(0.0, |sum, (&k, &v)| sum + k as f64 * v)
}

/// `ln(1 − p)`, the divisor of a geometric draw's logarithm. Where `1.0 - p`
/// rounds to 1 (`p` ≤ 2⁻⁵⁴) it is `ln_1p(−p)`, so a tiny but nonzero `p` keeps
/// a nonzero logarithm instead of collapsing every draw to 0; every other `p`
/// gets `(1.0 - p).ln()` bit for bit.
fn ln_one_minus(p: f64) -> f64 {
    let q = 1.0 - p;
    if q == 1.0 {
        (-p).ln_1p()
    } else {
        q.ln()
    }
}

/// Bits of a raw word that pick its [`Geometric`] table bucket: the top 12, so
/// bucket `b` holds the uniform draws `u ∈ [b·2⁻¹², (b+1)·2⁻¹²)`.
const TABLE_BITS: u32 = 12;

/// Buckets in a [`Geometric`] table.
const BUCKETS: usize = 1 << TABLE_BITS;

/// The table entry of a bucket whose draws take the logarithm.
const UNDECIDED: u8 = u8::MAX;

/// Relative margin between a decided bucket and the points where the
/// logarithm's floor steps. It is ~10⁵ times the few-ulp error of `ln`, `exp`
/// and the products `j·ln(1 − p)`, and no bucket reaches below `u = 2⁻¹²`, where
/// `|ln u|` (so the error relative to the margin) is largest.
const MARGIN: f64 = 1e-9;

/// A geometric distribution: the number of Bernoulli(`p`) failures before the
/// first success, drawn by [`RandomStream::geometric`].
///
/// The draw is `⌊ln u / L⌋` of a uniform `u ∈ (0, 1)`, with `L = ln(1 − p)`.
/// That floor is `j` where `e^{(j+1)L} < u ≤ e^{jL}`. A bucket of `u` whose
/// bounds satisfy `e^{(j+1)L}·(1 + δ) ≤ b·2⁻¹²` and
/// `(b+1)·2⁻¹² ≤ e^{jL}·(1 − δ)`, with `δ` = `MARGIN`, lies inside one such
/// step with room to spare for every rounding in `ln`, `exp` and the products
/// `j·L`, so its table entry is `j`, the floor the logarithm gives every word in
/// it. The check evaluates `exp` at the steps and never `ln` at the bucket
/// edges, so it does not rely on `ln` being monotone. Bucket 0 (it holds
/// `u = 0`, which the logarithm redraws), buckets that straddle a step and
/// buckets whose floor is 255 or more stay undecided and take the logarithm.
///
/// The table is inline (4 KiB, no allocation) and takes at most 255 `exp` calls
/// to build, so a sampler builds one per distribution, not per draw.
#[derive(Debug)]
pub struct Geometric {
    p: f64,
    /// `ln(1 − p)` ([`ln_one_minus`]).
    ln_q: f64,
    /// The floor every draw in a bucket gets, or `UNDECIDED`.
    table: [u8; BUCKETS],
}

impl Geometric {
    /// The geometric distribution of success probability `p` (must lie in
    /// `(0, 1]`).
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric parameter out of range: {p}");
        let ln_q = ln_one_minus(p);
        let mut table = [UNDECIDED; BUCKETS];
        if p < 1.0 {
            // Buckets from `u` near 1 down, so the candidate floor `j` only
            // grows: it is the least `j` whose lower step lies (with margin)
            // below the bucket, and the bucket is decided when it also lies
            // below `j`'s upper step.
            let mut j: u8 = 0;
            let (mut upper, mut lower) = (1.0, ln_q.exp());
            'buckets: for b in (1..BUCKETS).rev() {
                let bottom = b as f64 / BUCKETS as f64;
                while lower * (1.0 + MARGIN) > bottom {
                    j += 1;
                    if j == UNDECIDED {
                        break 'buckets;
                    }
                    upper = lower;
                    lower = (f64::from(j + 1) * ln_q).exp();
                }
                let top = (b + 1) as f64 / BUCKETS as f64;
                if top <= upper * (1.0 - MARGIN) {
                    table[b] = j;
                }
            }
        }
        Geometric { p, ln_q, table }
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the one place a generator is seeded: every stream derives from its experiment seed here"
    )]
    pub fn new(seed: u64, stream_id: u64) -> Self {
        RandomStream {
            rng: StdRng::seed_from_u64(mix_seed(seed, stream_id)),
            draws: 0,
            buf: [0; RAW_BUF_LEN],
            buf_pos: RAW_BUF_LEN,
            hits: (0, 0),
        }
    }

    /// Refill the prefetch buffer from the underlying generator, keeping the
    /// unconsumed words at its front.
    fn refill(&mut self) {
        let kept = RAW_BUF_LEN - self.buf_pos;
        self.buf.copy_within(self.buf_pos.., 0);
        self.hits.0 = 0;
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

    /// Lend `f` the buffered raw generator words — always at least two, at
    /// most 64 — and consume the first `n` of them, where `n` is what `f`
    /// returns.
    ///
    /// This is the bulk path for tight sampling loops: each consumed word is one
    /// draw, taken in the same order as [`Self::uniform01`] would take it
    /// (`f64::from_raw(word)` is that draw's value), so a loop that decides with
    /// [`BernoulliThreshold::mask`] replays the sequential draws bit for bit. A
    /// decision that spans two words may find them in two windows.
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

    /// Decide `n` Bernoulli trials of `threshold`, handing `f` the outcomes a
    /// window at a time: `f(mask, len)` gets the window's hit mask (bit `i` is
    /// its `i`-th trial, in draw order) and its length, 1 to 64.
    ///
    /// Bit-identical to calling [`Self::bernoulli`] `n` times, draw count
    /// included: a drawing threshold consumes one word per trial, a fixed one
    /// none. The mask of the whole buffer is computed once per refill and
    /// threshold, so many short calls between other draws (run lengths, say)
    /// share it instead of each deciding its own words.
    #[inline]
    pub fn hit_masks(
        &mut self,
        threshold: BernoulliThreshold,
        n: u64,
        mut f: impl FnMut(u64, usize),
    ) {
        let mut left = n;
        while left > 0 {
            let len = if let Some(hit) = threshold.fixed {
                let len = left.min(64) as usize;
                f(if hit { low_bits(len) } else { 0 }, len);
                len
            } else {
                if self.buf_pos == RAW_BUF_LEN {
                    self.refill();
                }
                if self.hits.0 != threshold.limit {
                    self.hits = (threshold.limit, threshold.mask(&self.buf));
                }
                let len = left.min((RAW_BUF_LEN - self.buf_pos) as u64) as usize;
                f(self.hits.1 >> self.buf_pos & low_bits(len), len);
                self.buf_pos += len;
                self.draws += len as u64;
                len
            };
            left -= len as u64;
        }
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
    pub(crate) fn standard_normal(&mut self) -> f64 {
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

    /// A geometric variate of `dist`: the number of Bernoulli(`p`) failures
    /// before the first success. `p = 1` gives 0 without a draw.
    ///
    /// Bit-identical to `⌊ln u / ln(1 − p)⌋` of the next nonzero uniform draw,
    /// words consumed included: a decided bucket consumes the one word it looked
    /// at, and an undecided one takes the logarithm from that same word.
    #[inline]
    pub fn geometric(&mut self, dist: &Geometric) -> u64 {
        if dist.p >= 1.0 {
            return 0;
        }
        if self.buf_pos == RAW_BUF_LEN {
            self.refill();
        }
        let decided = dist.table[(self.buf[self.buf_pos] >> (64 - TABLE_BITS)) as usize];
        if decided == UNDECIDED {
            return self.geometric_with_ln(dist.ln_q);
        }
        self.buf_pos += 1;
        self.draws += 1;
        u64::from(decided)
    }

    /// `⌊ln u / ln_one_minus_p⌋` of the next nonzero uniform draw `u`: the
    /// geometric draw wherever a [`Geometric`] table holds no value.
    fn geometric_with_ln(&mut self, ln_one_minus_p: f64) -> u64 {
        const TWO_POW_63: f64 = (1u64 << 63) as f64;
        let u = loop {
            let u = self.uniform01();
            if u > 0.0 {
                break u;
            }
        };
        let x = u.ln() / ln_one_minus_p;
        // On `[0, 2⁶³)` truncation through `i64` is `x.floor() as u64` without the
        // `floor` call (a libm call on the baseline x86-64 target) and the
        // saturating conversion. Larger, negative (a zero `ln_one_minus_p` gives
        // −∞) and NaN quotients go through `x.floor() as u64` itself.
        if (0.0..TWO_POW_63).contains(&x) {
            x as i64 as u64
        } else {
            x.floor() as u64
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
    #[expect(
        clippy::unwrap_used,
        reason = "CDF entries and the probe are finite by construction, so partial_cmp is total"
    )]
    pub fn sample(&self, stream: &mut RandomStream) -> u64 {
        let u = stream.uniform01();
        match self
            .cdf
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the reference generator, seeded as RandomStream::new seeds its own"
        )]
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
                    assert!(words.len() <= RAW_BUF_LEN);
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
        #[expect(
            clippy::disallowed_methods,
            reason = "the reference generator, seeded as RandomStream::new seeds its own"
        )]
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
        // The old expression, on a third stream, is the oracle for the integer
        // truncation: `floor() as u64` of the same quotient.
        let oracle = |s: &mut RandomStream, ln_q: f64| {
            let u = loop {
                let u = s.uniform01();
                if u > 0.0 {
                    break u;
                }
            };
            (u.ln() / ln_q).floor() as u64
        };
        let one_ulp_below_1 = 1.0 - f64::EPSILON / 2.0;
        // 2⁻⁶²: `1.0 - p` rounds to 1, and the quotient passes 2⁶³ whenever
        // `u < e⁻²`. A zero `ln` (what `(1.0 - p).ln()` gives there) makes the
        // quotient −∞.
        let tiny = 2f64.powi(-62);
        for (p, ln_q) in [
            (0.37, (1.0 - 0.37f64).ln()),
            (1e-12, (1.0 - 1e-12f64).ln()),
            (one_ulp_below_1, (1.0 - one_ulp_below_1).ln()),
            (tiny, (-tiny).ln_1p()),
            (1e-18, (-1e-18f64).ln_1p()),
            (tiny, 0.0),
        ] {
            let dist = Geometric::new(p);
            let mut a = RandomStream::new(0x9E0, 1);
            let mut b = RandomStream::new(0x9E0, 1);
            let mut c = RandomStream::new(0x9E0, 1);
            let mut passed_2_63 = 0;
            for _ in 0..500 {
                let want = oracle(&mut c, ln_q);
                passed_2_63 += usize::from(want >= 1 << 63);
                assert_eq!(b.geometric_with_ln(ln_q), want, "p = {p:e}");
                if ln_q == ln_one_minus(p) {
                    assert_eq!(a.geometric(&dist), want, "p = {p:e}");
                }
            }
            assert_eq!(b.draws(), c.draws());
            if ln_q == ln_one_minus(p) {
                assert_eq!(a.draws(), b.draws());
            }
            if p == tiny && ln_q != 0.0 {
                assert!(passed_2_63 > 0, "no quotient reached 2^63");
            }
        }
        // Below 2⁻⁵⁴ a draw is a failure run of about 1/p, not the 0 that
        // `(1.0 - p).ln() == 0` would force.
        let mut s = RandomStream::new(0x9E1, 1);
        let dist = Geometric::new(1e-18);
        let mean = (0..1000).map(|_| s.geometric(&dist) as f64).sum::<f64>() / 1000.0;
        assert!((0.8e18..1.2e18).contains(&mean), "mean {mean:e}");
        // Every other p keeps the bits of the old `(1.0 - p).ln()`.
        for p in [0.37, 1e-12, 2f64.powi(-53), one_ulp_below_1, 1.0] {
            assert_eq!(ln_one_minus(p).to_bits(), (1.0 - p).ln().to_bits());
        }
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
        let dist = Geometric::new(p);
        let mean: f64 = (0..n).map(|_| s.geometric(&dist) as f64).sum::<f64>() / n as f64;
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "empirical mean {mean} expect {expect}"
        );
        assert_eq!(s.geometric(&Geometric::new(1.0)), 0);
    }

    #[test]
    fn geometric_table_entries_are_the_logarithms_floors() {
        // Every decided bucket's entry, at the two extreme uniform draws of the
        // bucket and the draw next to each, against the logarithm's floor. The
        // `p`: the shipped parcel runs' (Table 1's mix of 0.2 loads and 0.1
        // stores times the remote fractions of the builtin scenarios and the
        // preset specs), the LRU-depth draw's 0.5, the corners, then uniform,
        // log-uniform and `1 − 2⁻ᵏ` ones.
        let builtin = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8].map(|r| (0.2 + 0.1) * r);
        let mut gen = RandomStream::new(0x7AB1E, 1);
        let generated = (0..3000).map(|i| match i % 3 {
            0 => 1.0 - gen.uniform01(),
            1 => 2f64.powf(-60.0 * gen.uniform01()),
            _ => 1.0 - 2f64.powi(-1 - gen.below(53) as i32),
        });
        let corners = [0.5, 2f64.powi(-60), 1e-6, 1.0 - 1e-12];
        let mut checked = 0u64;
        for p in builtin.into_iter().chain(corners).chain(generated) {
            let dist = Geometric::new(p);
            assert_eq!(dist.table[0], UNDECIDED, "p = {p:e}");
            for (b, &entry) in dist.table.iter().enumerate() {
                if entry == UNDECIDED {
                    continue;
                }
                // A draw is `(raw >> 11)·2⁻⁵³`; bucket `b` holds the 2⁴¹ draws
                // `m·2⁻⁵³` with `m >> 41 == b`.
                let first = (b as u64) << 41;
                let last = first + (1 << 41) - 1;
                for m in [first, first + 1, last - 1, last] {
                    let u = f64::from_raw(m << 11);
                    let want = (u.ln() / dist.ln_q).floor() as u64;
                    assert_eq!(u64::from(entry), want, "p = {p:e}, bucket {b}, u = {u:e}");
                }
                checked += 1;
            }
        }
        assert!(checked > 1_000_000, "only {checked} decided buckets");
        // The table decides almost every draw of the shipped run lengths (95.3%
        // at the smallest `p`, 0.03): a bucket holds 1/4096 of the draws.
        for p in builtin {
            let dist = Geometric::new(p);
            let decided = dist.table.iter().filter(|&&e| e != UNDECIDED).count();
            assert!(decided as f64 / BUCKETS as f64 > 0.95, "p = {p}: {decided}");
        }
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
}
