//! Workload generation: the request streams the experiments replay.
//!
//! The paper's sweeps use fixed-size GET/PUT requests from 64 B to 1 MB
//! (doubling, §5.2); its motivation leans on Facebook-style traffic
//! (Atikoglu et al.: GET-dominated, highly skewed key popularity, small
//! values). Both shapes are generated here, deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

use densekv_sim::dist::Zipf;
use densekv_sim::SplitMix64;

/// The two operations the paper measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A read (`get`).
    Get,
    /// A write (`set`); the paper calls these PUTs.
    Put,
}

/// One request to replay against a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Operation.
    pub op: Op,
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value size in bytes (the paper's "request size").
    pub value_bytes: u64,
}

/// A deterministic stream of requests.
pub trait RequestGenerator {
    /// Produces the next request.
    fn next_request(&mut self) -> Request;
    /// Human-readable description for reports.
    fn describe(&self) -> String;
}

/// The paper's sweep points: 64 B to 1 MB, doubling (15 sizes).
///
/// # Examples
///
/// ```
/// let sizes = densekv_workload::paper_size_sweep();
/// assert_eq!(sizes.len(), 15);
/// assert_eq!(sizes[0], 64);
/// assert_eq!(sizes[14], 1 << 20);
/// ```
pub fn paper_size_sweep() -> Vec<u64> {
    (0..15).map(|i| 64u64 << i).collect()
}

/// Fixed-size requests over a rotating key set — the §5.2 sweep at one
/// size point.
///
/// Keys rotate through a bounded population so a measurement pass can
/// pre-load them and GETs always hit (the paper measures hit latency).
///
/// # Examples
///
/// ```
/// use densekv_workload::{FixedSizeWorkload, Op, RequestGenerator};
///
/// let mut gen = FixedSizeWorkload::new(Op::Get, 4096, 100, 7);
/// let r = gen.next_request();
/// assert_eq!(r.op, Op::Get);
/// assert_eq!(r.value_bytes, 4096);
/// ```
#[derive(Debug, Clone)]
pub struct FixedSizeWorkload {
    op: Op,
    value_bytes: u64,
    population: u64,
    next_key: u64,
    rng: SplitMix64,
}

impl FixedSizeWorkload {
    /// Creates a generator for `op` at `value_bytes`, drawing keys
    /// uniformly from a population of `population` keys.
    ///
    /// # Panics
    ///
    /// Panics if `population` is zero.
    pub fn new(op: Op, value_bytes: u64, population: u64, seed: u64) -> Self {
        assert!(population > 0, "population must be positive");
        FixedSizeWorkload {
            op,
            value_bytes,
            population,
            next_key: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The keys this workload draws from, for pre-loading a store.
    pub fn all_keys(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.population).map(key_bytes)
    }

    /// Draws the next key id — the same stream [`RequestGenerator::
    /// next_request`] consumes, exposed so allocation-free paths can
    /// format the key into a reused buffer.
    pub fn next_key_id(&mut self) -> u64 {
        match self.op {
            // GETs sample uniformly; PUTs rotate so the store's footprint
            // stays bounded at `population` items.
            Op::Get => self.rng.next_below(self.population),
            Op::Put => {
                let id = self.next_key;
                self.next_key = (self.next_key + 1) % self.population;
                id
            }
        }
    }

    /// Writes the next request into `request` in place, reusing its key
    /// buffer. Byte-identical to [`RequestGenerator::next_request`]
    /// (same RNG draws, same key bytes) without the per-request
    /// allocation.
    pub fn fill_next(&mut self, request: &mut Request) {
        let id = self.next_key_id();
        request.op = self.op;
        request.value_bytes = self.value_bytes;
        key_bytes_into(id, &mut request.key);
    }
}

/// Length of a workload key for ids below 10^11 (`"key:"` + 11 digits).
pub const KEY_LEN: usize = 15;

/// Renders key `id` as the key bytes the workloads use ([`KEY_LEN`]
/// bytes for every id the generators draw).
pub fn key_bytes(id: u64) -> Vec<u8> {
    let mut out = Vec::new();
    key_bytes_into(id, &mut out);
    out
}

/// Renders key `id` into a reused buffer — the same bytes as
/// [`key_bytes`] (`key:` + zero-padded decimal, at least 11 digits)
/// without allocating once the buffer has capacity.
pub fn key_bytes_into(id: u64, out: &mut Vec<u8>) {
    out.clear();
    out.resize(key_bytes_len(id), 0);
    key_bytes_into_slice(id, out);
}

/// Upper bound on a rendered key's length for any `u64` id (`"key:"`
/// plus up to 20 decimal digits) — the capacity a reused key buffer
/// needs never to grow.
pub const MAX_KEY_LEN: usize = 24;

/// Exact length [`key_bytes`] renders for `id`.
pub(crate) fn key_bytes_len(id: u64) -> usize {
    let digits = if id == 0 { 1 } else { id.ilog10() as usize + 1 };
    4 + digits.max(11)
}

/// Renders key `id` into the first `key_bytes_len` bytes of `out`,
/// byte-identical to [`key_bytes`], and returns the rendered length.
///
/// # Panics
///
/// Panics if `out` is shorter than the rendered key ([`MAX_KEY_LEN`]
/// always suffices).
pub fn key_bytes_into_slice(id: u64, out: &mut [u8]) -> usize {
    let len = key_bytes_len(id);
    let out = &mut out[..len];
    out[..4].copy_from_slice(b"key:");
    out[4..].fill(b'0');
    let mut rest = id;
    for slot in out[4..].iter_mut().rev() {
        if rest == 0 {
            break;
        }
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    len
}

impl RequestGenerator for FixedSizeWorkload {
    fn next_request(&mut self) -> Request {
        let id = self.next_key_id();
        Request {
            op: self.op,
            key: key_bytes(id),
            value_bytes: self.value_bytes,
        }
    }

    fn describe(&self) -> String {
        format!(
            "{:?} @{}B over {} keys",
            self.op, self.value_bytes, self.population
        )
    }
}

/// An ETC-like mixed workload (Atikoglu et al., SIGMETRICS '12): GET-heavy
/// with Zipf-popular keys and a small-value-biased size distribution.
///
/// # Examples
///
/// ```
/// use densekv_workload::{MixedWorkload, Op, RequestGenerator};
///
/// let mut gen = MixedWorkload::etc_like(10_000, 42);
/// let gets = (0..1000)
///     .filter(|_| gen.next_request().op == Op::Get)
///     .count();
/// assert!(gets > 900, "ETC is ~95% GETs, saw {gets}");
/// ```
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    get_fraction: f64,
    popularity: Zipf,
    /// `(value_bytes, cumulative_probability)` size mixture.
    size_cdf: Vec<(u64, f64)>,
    rng: SplitMix64,
    label: String,
}

/// Key-popularity skew of Facebook's ETC pool (Atikoglu et al.,
/// SIGMETRICS '12 §4): Zipf-like with alpha near 1.
pub const ETC_ZIPF_ALPHA: f64 = 0.99;

/// GET fraction of the ETC pool (ETC is read-dominated; ~30:1 GET:SET
/// rounds to 95+ % GETs once DELETEs are folded out).
pub const ETC_GET_FRACTION: f64 = 0.95;

/// ETC value-size mixture, `(value_bytes, weight)`: mass concentrated
/// below 1 KB with a thin large-value tail, coarsened from the paper's
/// Fig. 2 value-size CDF to this crate's discrete sizes.
pub(crate) const ETC_VALUE_MIX: &[(u64, f64)] = &[
    (64, 0.3),
    (256, 0.35),
    (1024, 0.25),
    (4096, 0.08),
    (65_536, 0.02),
];

impl MixedWorkload {
    /// Builds a workload with explicit parameters.
    ///
    /// `size_mix` is a list of `(value_bytes, weight)`; weights are
    /// normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is zero, `size_mix` is empty, or weights are
    /// non-positive.
    pub fn new(
        keys: usize,
        zipf_alpha: f64,
        get_fraction: f64,
        size_mix: &[(u64, f64)],
        seed: u64,
        label: &str,
    ) -> Self {
        assert!(!size_mix.is_empty(), "need at least one size");
        let total: f64 = size_mix.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "weights must be positive");
        let mut acc = 0.0;
        let size_cdf = size_mix
            .iter()
            .map(|&(size, w)| {
                acc += w / total;
                (size, acc)
            })
            .collect();
        MixedWorkload {
            get_fraction: get_fraction.clamp(0.0, 1.0),
            popularity: Zipf::new(keys, zipf_alpha),
            size_cdf,
            rng: SplitMix64::new(seed),
            label: label.to_owned(),
        }
    }

    /// The ETC-like preset, assembled from the named constants
    /// [`ETC_GET_FRACTION`], [`ETC_ZIPF_ALPHA`], and `ETC_VALUE_MIX`:
    /// 95 % GETs, Zipf(0.99) popularity, values biased toward a few
    /// hundred bytes.
    pub fn etc_like(keys: usize, seed: u64) -> Self {
        MixedWorkload::new(
            keys,
            ETC_ZIPF_ALPHA,
            ETC_GET_FRACTION,
            ETC_VALUE_MIX,
            seed,
            "ETC-like",
        )
    }

    /// ETC key popularity and GET mix at one fixed value size — the
    /// shape tier-size sweeps want: the Zipf reference stream decides
    /// the DRAM-tier hit rate while the value size stays a controlled
    /// variable, and reports can still cite the named workload.
    pub fn etc_fixed_size(keys: usize, value_bytes: u64, seed: u64) -> Self {
        MixedWorkload::new(
            keys,
            ETC_ZIPF_ALPHA,
            ETC_GET_FRACTION,
            &[(value_bytes, 1.0)],
            seed,
            &format!("ETC-like @{value_bytes}B"),
        )
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.popularity.len()
    }

    /// The keys this workload draws from, for pre-loading a store (a
    /// real server wants every GET warm, like the simulator's preload).
    pub fn all_keys(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..self.key_count() as u64).map(key_bytes)
    }
}

impl RequestGenerator for MixedWorkload {
    fn next_request(&mut self) -> Request {
        let op = if self.rng.next_bool(self.get_fraction) {
            Op::Get
        } else {
            Op::Put
        };
        let key_id = self.popularity.sample(&mut self.rng) as u64;
        let u = self.rng.next_f64();
        let value_bytes = self
            .size_cdf
            .iter()
            .find(|(_, cum)| u <= *cum)
            .map(|(size, _)| *size)
            .unwrap_or(self.size_cdf.last().expect("nonempty").0);
        Request {
            op,
            key: key_bytes(key_id),
            value_bytes,
        }
    }

    fn describe(&self) -> String {
        format!("{} over {} keys", self.label, self.key_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper() {
        let sizes = paper_size_sweep();
        assert_eq!(sizes.first(), Some(&64));
        assert_eq!(sizes.last(), Some(&(1 << 20)));
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2, "sizes double");
        }
    }

    #[test]
    fn fixed_size_put_rotates_keys() {
        let mut gen = FixedSizeWorkload::new(Op::Put, 64, 3, 1);
        let keys: Vec<_> = (0..6).map(|_| gen.next_request().key).collect();
        assert_eq!(keys[0], keys[3]);
        assert_eq!(keys[1], keys[4]);
        assert_ne!(keys[0], keys[1]);
    }

    #[test]
    fn fixed_size_get_stays_in_population() {
        let mut gen = FixedSizeWorkload::new(Op::Get, 64, 10, 2);
        let keys: std::collections::HashSet<_> = gen.all_keys().collect();
        for _ in 0..100 {
            assert!(keys.contains(&gen.next_request().key));
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut a = MixedWorkload::etc_like(1000, 9);
        let mut b = MixedWorkload::etc_like(1000, 9);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn etc_mix_shape() {
        let mut gen = MixedWorkload::etc_like(10_000, 3);
        let mut gets = 0;
        let mut small = 0;
        let n = 5000;
        for _ in 0..n {
            let r = gen.next_request();
            if r.op == Op::Get {
                gets += 1;
            }
            if r.value_bytes <= 1024 {
                small += 1;
            }
        }
        assert!((gets as f64 / n as f64 - 0.95).abs() < 0.02);
        assert!(small as f64 / n as f64 > 0.85, "values skew small");
    }

    #[test]
    fn zipf_popularity_is_skewed() {
        let mut gen = MixedWorkload::etc_like(1000, 4);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts.entry(gen.next_request().key).or_insert(0usize) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(
            hottest > 20_000 / 50,
            "hot key should take >2% of traffic: {hottest}"
        );
    }

    #[test]
    fn etc_fixed_size_keeps_the_named_shape() {
        let mut gen = MixedWorkload::etc_fixed_size(10_000, 2048, 6);
        let n = 4000;
        let mut gets = 0;
        for _ in 0..n {
            let r = gen.next_request();
            assert_eq!(r.value_bytes, 2048, "single controlled size");
            if r.op == Op::Get {
                gets += 1;
            }
        }
        assert!((gets as f64 / n as f64 - ETC_GET_FRACTION).abs() < 0.02);
        assert!(gen.describe().contains("ETC"));
    }

    #[test]
    fn key_bytes_are_fixed_width() {
        assert_eq!(key_bytes(0).len(), key_bytes(u32::MAX as u64).len());
    }

    #[test]
    fn key_bytes_match_format_reference() {
        for id in [0u64, 1, 9, 10, 99_999_999_999, 100_000_000_000, u64::MAX] {
            assert_eq!(
                key_bytes(id),
                format!("key:{id:011}").into_bytes(),
                "id {id}"
            );
        }
        assert_eq!(key_bytes(7).len(), KEY_LEN);
    }

    #[test]
    fn fill_next_matches_next_request_stream() {
        for op in [Op::Get, Op::Put] {
            let mut by_value = FixedSizeWorkload::new(op, 256, 17, 42);
            let mut in_place = FixedSizeWorkload::new(op, 256, 17, 42);
            let mut req = Request {
                op: Op::Get,
                key: Vec::new(),
                value_bytes: 0,
            };
            for _ in 0..200 {
                in_place.fill_next(&mut req);
                assert_eq!(req, by_value.next_request());
            }
        }
    }

    #[test]
    fn mixed_workload_draws_only_preloadable_keys() {
        let mut gen = MixedWorkload::etc_fixed_size(50, 64, 8);
        let keys: std::collections::HashSet<_> = gen.all_keys().collect();
        assert_eq!(keys.len(), 50);
        for _ in 0..200 {
            assert!(keys.contains(&gen.next_request().key));
        }
    }

    #[test]
    fn describe_is_informative() {
        let gen = FixedSizeWorkload::new(Op::Get, 64, 10, 2);
        assert!(gen.describe().contains("64"));
        assert!(MixedWorkload::etc_like(10, 1).describe().contains("ETC"));
    }
}
