//! Random distributions used by the workload generators.

use crate::rng::SplitMix64;

/// A discrete Zipf(α) distribution over ranks `0..n`.
///
/// Rank `k` is drawn with probability proportional to `1/(k+1)^α`. Used to
/// model key popularity in Memcached-style workloads (Atikoglu et al.,
/// SIGMETRICS '12 report highly skewed key popularity).
///
/// Sampling uses Walker's alias method: O(n) memory, O(1) per sample.
/// One uniform draw covers both the slot pick and the coin flip (high
/// bits select the slot, the fractional remainder is the coin), so the
/// generator consumes exactly one `next_f64` per sample — the same RNG
/// budget as the CDF binary-search it replaced, keeping downstream
/// streams (arrival gaps, op mixes) aligned across that change. Each
/// slot keeps its threshold and redirect side by side, so a draw reads
/// one cache line.
///
/// The old CDF inverse survives in this module's tests as the
/// reference sampler; the two paths draw from the identical
/// distribution (pinned by a chi-squared test) but map a given uniform
/// to different ranks, so they are not sequence-interchangeable.
///
/// # Examples
///
/// ```
/// use densekv_sim::dist::Zipf;
/// use densekv_sim::SplitMix64;
///
/// let zipf = Zipf::new(1000, 0.99);
/// let mut rng = SplitMix64::new(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Normalized probability per rank.
    pmf: Vec<f64>,
    /// Alias table, one slot per rank.
    slots: Vec<AliasSlot>,
}

/// One alias-table slot: accept the slot's own rank when the coin falls
/// under `prob` (scaled to [0, 1]), else redirect to `alias`. Aligned
/// to its 16-byte size, so no slot straddles two cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(16))]
struct AliasSlot {
    prob: f64,
    alias: u32,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `alpha`.
    ///
    /// `alpha == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, exceeds `u32::MAX` slots, or `alpha` is
    /// negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "Zipf rank count exceeds u32");
        assert!(alpha.is_finite() && alpha >= 0.0, "alpha must be >= 0");
        let mut pmf: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(alpha)).collect();
        let total: f64 = pmf.iter().sum();
        for w in &mut pmf {
            *w /= total;
        }
        let slots = build_alias(&pmf);
        Zipf { pmf, slots }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.pmf.len()
    }

    /// Always false: a distribution has at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws a rank in `0..len()` via the alias table (O(1)).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let scaled = rng.next_f64() * self.slots.len() as f64;
        // `next_f64` is in [0, 1), so `scaled < n` and the cast is safe.
        let slot = scaled as usize;
        let coin = scaled - slot as f64;
        let AliasSlot { prob, alias } = self.slots[slot];
        if coin < prob {
            slot
        } else {
            alias as usize
        }
    }

    /// The probability of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        self.pmf.get(k).copied().unwrap_or(0.0)
    }
}

/// Builds Walker's alias table from a normalized pmf: every slot `i`
/// accepts with probability `prob` and redirects to `alias` otherwise.
/// Vose's stable two-worklist construction. The slots start out holding
/// each rank's mass scaled by `n`, which the pairing loop consumes in
/// place.
fn build_alias(pmf: &[f64]) -> Vec<AliasSlot> {
    let n = pmf.len();
    // Scale each probability by n: slots with scaled mass < 1 need a
    // donor; slots with > 1 donate their surplus.
    let mut slots: Vec<AliasSlot> = pmf
        .iter()
        .map(|&p| AliasSlot {
            prob: p * n as f64,
            alias: 0,
        })
        .collect();
    let mut small: Vec<u32> = Vec::new();
    let mut large: Vec<u32> = Vec::new();
    for (i, slot) in (0u32..).zip(&slots) {
        if slot.prob < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        let deficit = 1.0 - slots[s as usize].prob;
        slots[s as usize].alias = l;
        let donor = &mut slots[l as usize].prob;
        *donor -= deficit;
        if *donor < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Numerical leftovers on either list have scaled mass ~1.
    for &i in small.iter().chain(large.iter()) {
        slots[i as usize].prob = 1.0;
    }
    slots
}

/// An exponential distribution with the given rate (events per second).
///
/// Used for Poisson (open-loop) request arrival processes.
///
/// # Examples
///
/// ```
/// use densekv_sim::dist::Exponential;
/// use densekv_sim::SplitMix64;
///
/// let exp = Exponential::from_rate_per_sec(1_000_000.0); // 1 M req/s
/// let mut rng = SplitMix64::new(2);
/// let gap = exp.sample(&mut rng);
/// assert!(gap.as_ps() > 0 || gap.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean_secs: f64,
}

impl Exponential {
    /// Creates a distribution with mean inter-arrival `1/rate` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn from_rate_per_sec(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Exponential {
            mean_secs: 1.0 / rate,
        }
    }

    /// Draws an inter-arrival gap.
    pub fn sample(&self, rng: &mut SplitMix64) -> crate::time::Duration {
        // Inverse-CDF; guard the log against u == 0.
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        crate::time::Duration::from_secs_f64(-self.mean_secs * u.ln())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_uniform_when_alpha_zero() {
        let zipf = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((zipf.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn alias_is_exact_for_alpha_zero() {
        // Uniform weights leave every alias slot at full acceptance, so
        // the alias draw degenerates to `floor(u * n)` exactly — the
        // same rank a direct uniform draw over ranks would give.
        let n = 257;
        let zipf = Zipf::new(n, 0.0);
        let mut rng = SplitMix64::new(0xA11A5);
        let mut shadow = rng.clone();
        for _ in 0..10_000 {
            let rank = zipf.sample(&mut rng);
            let direct = (shadow.next_f64() * n as f64) as usize;
            assert_eq!(rank, direct);
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let zipf = Zipf::new(100, 1.0);
        assert!(zipf.pmf(0) > zipf.pmf(1));
        assert!(zipf.pmf(1) > zipf.pmf(50));
        // Harmonic series: P(rank 0) = 1/H_100 ~= 0.1928.
        assert!((zipf.pmf(0) - 0.1928).abs() < 0.001);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let zipf = Zipf::new(257, 0.8);
        let sum: f64 = (0..257).map(|k| zipf.pmf(k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(zipf.pmf(257), 0.0);
    }

    #[test]
    fn zipf_samples_match_pmf() {
        let zipf = Zipf::new(10, 1.0);
        let mut rng = SplitMix64::new(4);
        let n = 200_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let observed = count as f64 / n as f64;
            let expected = zipf.pmf(k);
            assert!(
                (observed - expected).abs() < 0.01,
                "rank {k}: observed {observed}, expected {expected}"
            );
        }
    }

    /// The CDF binary search (O(log n)) the alias table replaced: the
    /// reference sampler the distribution tests compare against.
    struct CdfSampler {
        cdf: Vec<f64>,
    }

    impl CdfSampler {
        fn new(zipf: &Zipf) -> Self {
            let mut acc = 0.0;
            let cdf = zipf
                .pmf
                .iter()
                .map(|p| {
                    acc += p;
                    acc
                })
                .collect();
            CdfSampler { cdf }
        }

        fn sample(&self, rng: &mut SplitMix64) -> usize {
            let u = rng.next_f64();
            match self
                .cdf
                .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
            {
                Ok(i) => (i + 1).min(self.cdf.len() - 1),
                Err(i) => i.min(self.cdf.len() - 1),
            }
        }
    }

    /// Pearson chi-squared statistic of `counts` against `expected`
    /// probabilities over `draws` samples.
    fn chi_squared(counts: &[usize], expected: impl Fn(usize) -> f64, draws: usize) -> f64 {
        counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let e = expected(k) * draws as f64;
                (c as f64 - e).powi(2) / e
            })
            .sum()
    }

    #[test]
    fn alias_and_cdf_draw_the_same_distribution() {
        // Both samplers against the analytic pmf: with 64 ranks (63
        // degrees of freedom) the 99.9th chi-squared percentile is
        // ~103.4. Each path must sit under it, and their head-rank
        // frequencies must agree closely — same distribution, different
        // uniform-to-rank mapping.
        let n = 64;
        let draws = 400_000;
        let zipf = Zipf::new(n, 0.99);
        let cdf = CdfSampler::new(&zipf);
        let mut alias_counts = vec![0usize; n];
        let mut cdf_counts = vec![0usize; n];
        let mut rng_a = SplitMix64::new(0xC41);
        let mut rng_c = SplitMix64::new(0xC41);
        for _ in 0..draws {
            alias_counts[zipf.sample(&mut rng_a)] += 1;
            cdf_counts[cdf.sample(&mut rng_c)] += 1;
        }
        let chi_alias = chi_squared(&alias_counts, |k| zipf.pmf(k), draws);
        let chi_cdf = chi_squared(&cdf_counts, |k| zipf.pmf(k), draws);
        assert!(chi_alias < 103.4, "alias chi-squared {chi_alias:.1}");
        assert!(chi_cdf < 103.4, "cdf chi-squared {chi_cdf:.1}");
        for k in 0..8 {
            let a = alias_counts[k] as f64 / draws as f64;
            let c = cdf_counts[k] as f64 / draws as f64;
            assert!(
                (a - c).abs() < 0.005,
                "rank {k}: alias {a:.4} vs cdf {c:.4}"
            );
        }
    }

    #[test]
    fn alias_consumes_one_draw_per_sample() {
        // Downstream generators interleave Zipf ranks with arrival gaps;
        // the alias path must consume exactly the one uniform the CDF
        // path did, or every interleaved stream shifts.
        let zipf = Zipf::new(1000, 0.99);
        let mut rng = SplitMix64::new(77);
        let mut counter = SplitMix64::new(77);
        for _ in 0..1000 {
            zipf.sample(&mut rng);
            counter.next_f64();
        }
        assert_eq!(rng, counter);
    }

    /// FNV-1a over every slot's threshold bits and redirect.
    fn table_digest(zipf: &Zipf) -> u64 {
        zipf.slots
            .iter()
            .flat_map(|s| [s.prob.to_bits(), u64::from(s.alias)])
            .fold(0xcbf2_9ce4_8422_2325, |h, w| {
                (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    #[test]
    fn alias_table_and_rank_stream_are_pinned() {
        // Recorded from the two-array table this layout replaced. Every
        // threshold and redirect, and so every seeded rank stream the
        // simulators draw, must survive a change to how the table is
        // laid out or built, bit for bit.
        let cases: [(usize, f64, u64, [usize; 64]); 2] = [
            (
                100_000,
                0.99,
                0x4a78_aa18_ef8f_96f3,
                [
                    3, 74388, 0, 948, 9412, 19135, 610, 27839, 2, 858, 8926, 7980, 4362, 3, 258,
                    66164, 5393, 19812, 0, 1429, 6, 183, 38121, 4, 0, 25197, 17, 64, 8010, 27386,
                    11708, 9, 900, 773, 55, 9, 2, 457, 2, 33660, 17, 461, 22, 788, 150, 112, 5,
                    367, 18978, 4880, 888, 36682, 541, 17, 764, 9166, 89, 6, 1609, 3, 201, 11,
                    16269, 655,
                ],
            ),
            (
                4096,
                0.6,
                0x980e_bd37_ca9d_03b8,
                [
                    1, 87, 847, 238, 384, 782, 180, 1140, 1337, 224, 365, 325, 178, 1527, 3133,
                    2710, 697, 811, 898, 3732, 1749, 3005, 1561, 1609, 721, 1032, 11, 36, 328,
                    1121, 479, 5, 231, 210, 2554, 1892, 1331, 3342, 0, 1378, 2115, 151, 2210, 3534,
                    70, 57, 1690, 130, 777, 199, 3575, 1502, 167, 2116, 208, 375, 48, 1745, 3769,
                    1, 3040, 1940, 666, 3470,
                ],
            ),
        ];
        for (n, alpha, digest, ranks) in cases {
            let zipf = Zipf::new(n, alpha);
            let mut rng = SplitMix64::new(0x601D);
            let drawn: Vec<usize> = (0..64).map(|_| zipf.sample(&mut rng)).collect();
            assert_eq!(drawn, ranks, "Zipf({n}, {alpha}) rank stream");
            assert_eq!(table_digest(&zipf), digest, "Zipf({n}, {alpha}) table");
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let rate = 2_000_000.0; // 2 M/s => mean 500 ns
        let exp = Exponential::from_rate_per_sec(rate);
        let mut rng = SplitMix64::new(8);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| exp.sample(&mut rng).as_nanos_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 500.0).abs() < 10.0, "mean {mean} ns");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}
