//! Power-of-two value tiers of fixed-size pages.
//!
//! Values up to 4 KB live in one of eight tiers (32 B doubling to
//! 4 KB); each tier is a contiguous byte arena carved into equal pages
//! whose allocation state is a [`MultiLevelBitmap`]. A value occupies
//! exactly one page of the smallest tier that fits it — internal
//! fragmentation is bounded at 2× and allocation is a bitmap scan, no
//! free lists. Larger values (rare in the Memcached traces the paper
//! targets) fall through to an overflow arena of individually-boxed
//! values so the tier path stays fixed-size.
//!
//! Tier arenas grow by doubling, and growth plus resident overflow
//! bytes are charged against a single memory budget; the engine layers
//! eviction on top when a charge would exceed it.

use crate::bitmap::MultiLevelBitmap;

/// Number of fixed-page tiers.
pub(crate) const TIER_COUNT: usize = 8;

/// Page size per tier: 32 B doubling to 4 KB.
pub(crate) const TIER_PAGE_BYTES: [u64; TIER_COUNT] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Class index of the overflow arena (one past the last tier); used by
/// the engine to key its eviction policy's classes.
pub(crate) const OVERFLOW_TIER: usize = TIER_COUNT;

/// Pages in a tier's first extent.
const INITIAL_PAGES: u64 = 8;

/// Where a stored value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueRef {
    /// One page of a fixed-size tier.
    Tier {
        /// Tier index into [`TIER_PAGE_BYTES`].
        tier: u8,
        /// Page number within the tier arena.
        page: u64,
    },
    /// A slot in the overflow arena (value larger than the top tier).
    Overflow {
        /// Slot index in the overflow table.
        slot: u32,
    },
}

/// One fixed-page tier: a contiguous arena plus its allocation bitmap.
#[derive(Debug)]
struct Tier {
    page_bytes: u64,
    data: Vec<u8>,
    bitmap: MultiLevelBitmap,
}

impl Tier {
    fn new(page_bytes: u64) -> Self {
        Tier {
            page_bytes,
            data: Vec::new(),
            bitmap: MultiLevelBitmap::new(0),
        }
    }

    fn pages(&self) -> u64 {
        self.bitmap.capacity()
    }
}

/// The eight tiers plus the overflow arena, under one memory budget.
#[derive(Debug)]
pub(crate) struct TierSet {
    tiers: Vec<Tier>,
    overflow: Vec<Option<Vec<u8>>>,
    overflow_free: Vec<u32>,
    overflow_items: u64,
    overflow_bytes: u64,
    /// Bytes charged against the budget: grown tier extents (grow-only,
    /// like slab pages assigned to a class) plus resident overflow
    /// values.
    charged_bytes: u64,
    budget_bytes: u64,
}

impl TierSet {
    /// An empty tier set with the given memory budget in bytes.
    #[must_use]
    pub fn new(budget_bytes: u64) -> Self {
        TierSet {
            tiers: TIER_PAGE_BYTES.iter().map(|&p| Tier::new(p)).collect(),
            overflow: Vec::new(),
            overflow_free: Vec::new(),
            overflow_items: 0,
            overflow_bytes: 0,
            charged_bytes: 0,
            budget_bytes,
        }
    }

    /// The class a value of `len` bytes allocates from: the smallest
    /// tier whose page fits it, or [`OVERFLOW_TIER`] past 4 KB.
    #[must_use]
    pub(crate) fn tier_for(len: usize) -> usize {
        TIER_PAGE_BYTES
            .iter()
            .position(|&p| len as u64 <= p)
            .unwrap_or(OVERFLOW_TIER)
    }

    /// Allocates a home for `value` and writes it there. `None` when
    /// the charge would exceed the budget — the engine's cue to evict
    /// from the corresponding class and retry.
    pub fn alloc(&mut self, value: &[u8]) -> Option<ValueRef> {
        let class = Self::tier_for(value.len());
        if class == OVERFLOW_TIER {
            return self.alloc_overflow(value);
        }
        let page = self.alloc_page(class)?;
        let tier = &mut self.tiers[class];
        let start = (page * tier.page_bytes) as usize;
        tier.data[start..start + value.len()].copy_from_slice(value);
        Some(ValueRef::Tier {
            tier: class as u8,
            page,
        })
    }

    /// Finds (growing the arena if the budget allows) a free page.
    fn alloc_page(&mut self, class: usize) -> Option<u64> {
        if let Some(page) = self.tiers[class].bitmap.find_free() {
            self.tiers[class].bitmap.set(page);
            return Some(page);
        }
        let (old_pages, page_bytes) = {
            let tier = &self.tiers[class];
            (tier.pages(), tier.page_bytes)
        };
        // Double the extent, or take whatever smaller growth still fits
        // the budget so the arena can fill right up to the line.
        let want = old_pages.max(INITIAL_PAGES);
        let affordable = self.budget_bytes.saturating_sub(self.charged_bytes) / page_bytes;
        let added = want.min(affordable);
        if added == 0 {
            return None;
        }
        self.charged_bytes += added * page_bytes;
        let tier = &mut self.tiers[class];
        let new_pages = old_pages + added;
        tier.data.resize((new_pages * page_bytes) as usize, 0);
        tier.bitmap.grow(new_pages);
        let page = tier.bitmap.find_free().expect("freshly grown extent");
        tier.bitmap.set(page);
        Some(page)
    }

    fn alloc_overflow(&mut self, value: &[u8]) -> Option<ValueRef> {
        let len = value.len() as u64;
        if self.charged_bytes + len > self.budget_bytes {
            return None;
        }
        self.charged_bytes += len;
        self.overflow_items += 1;
        self.overflow_bytes += len;
        let slot = match self.overflow_free.pop() {
            Some(slot) => {
                self.overflow[slot as usize] = Some(value.to_vec());
                slot
            }
            None => {
                self.overflow.push(Some(value.to_vec()));
                (self.overflow.len() - 1) as u32
            }
        };
        Some(ValueRef::Overflow { slot })
    }

    /// Releases a value's storage. Tier pages return to their bitmap
    /// (the extent stays charged, as slab pages stay with their class);
    /// overflow values uncharge their bytes.
    pub fn free(&mut self, vref: ValueRef) {
        match vref {
            ValueRef::Tier { tier, page } => {
                self.tiers[tier as usize].bitmap.clear(page);
            }
            ValueRef::Overflow { slot } => {
                let value = self.overflow[slot as usize]
                    .take()
                    .expect("overflow slot is live");
                let len = value.len() as u64;
                self.charged_bytes -= len;
                self.overflow_items -= 1;
                self.overflow_bytes -= len;
                self.overflow_free.push(slot);
            }
        }
    }

    /// The first `len` bytes of the value at `vref`.
    #[must_use]
    pub fn read(&self, vref: ValueRef, len: usize) -> &[u8] {
        match vref {
            ValueRef::Tier { tier, page } => {
                let tier = &self.tiers[tier as usize];
                let start = (page * tier.page_bytes) as usize;
                &tier.data[start..start + len]
            }
            ValueRef::Overflow { slot } => self.overflow[slot as usize]
                .as_ref()
                .expect("overflow slot is live"),
        }
    }

    /// Pages currently allocated in tier `t`.
    #[must_use]
    pub(crate) fn tier_used_pages(&self, t: usize) -> u64 {
        self.tiers[t].bitmap.used()
    }

    /// Pages the tier `t` arena currently holds.
    #[must_use]
    pub(crate) fn tier_total_pages(&self, t: usize) -> u64 {
        self.tiers[t].pages()
    }

    /// Live overflow values.
    #[must_use]
    pub(crate) fn overflow_items(&self) -> u64 {
        self.overflow_items
    }

    /// Bytes held by live overflow values.
    #[must_use]
    pub(crate) fn overflow_bytes(&self) -> u64 {
        self.overflow_bytes
    }

    /// Bytes charged against the budget so far.
    #[must_use]
    pub fn charged_bytes(&self) -> u64 {
        self.charged_bytes
    }

    /// The configured memory budget.
    #[must_use]
    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_route_to_the_smallest_fitting_tier() {
        assert_eq!(TierSet::tier_for(0), 0);
        assert_eq!(TierSet::tier_for(32), 0);
        assert_eq!(TierSet::tier_for(33), 1);
        assert_eq!(TierSet::tier_for(100), 2);
        assert_eq!(TierSet::tier_for(4096), TIER_COUNT - 1);
        assert_eq!(TierSet::tier_for(4097), OVERFLOW_TIER);
    }

    #[test]
    fn alloc_read_free_round_trip_across_classes() {
        let mut tiers = TierSet::new(4 << 20);
        let sizes = [0usize, 1, 32, 33, 500, 4096, 4097, 10_000];
        let mut refs = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let value = vec![i as u8; n];
            let vref = tiers.alloc(&value).expect("within budget");
            assert_eq!(tiers.read(vref, n), &value[..]);
            refs.push((vref, n));
        }
        assert_eq!(tiers.overflow_items(), 2);
        assert_eq!(tiers.overflow_bytes(), 4097 + 10_000);
        for (vref, n) in refs {
            assert_eq!(tiers.read(vref, n).len(), n);
            tiers.free(vref);
        }
        assert_eq!(tiers.overflow_items(), 0);
        for t in 0..TIER_COUNT {
            assert_eq!(tiers.tier_used_pages(t), 0);
        }
    }

    #[test]
    fn pages_are_reused_after_free() {
        let mut tiers = TierSet::new(1 << 20);
        let a = tiers.alloc(b"aaaa").unwrap();
        tiers.free(a);
        let b = tiers.alloc(b"bbbb").unwrap();
        assert_eq!(a, b, "freed page is the lowest free page again");
        assert_eq!(tiers.read(b, 4), b"bbbb");
    }

    #[test]
    fn growth_doubles_and_stops_at_the_budget() {
        // Budget of 64 pages of the 32 B tier.
        let mut tiers = TierSet::new(64 * 32);
        let mut refs = Vec::new();
        for i in 0..64u8 {
            refs.push(tiers.alloc(&[i; 8]).expect("within budget"));
        }
        assert_eq!(tiers.tier_total_pages(0), 64);
        assert_eq!(tiers.charged_bytes(), 64 * 32);
        assert!(tiers.alloc(&[0; 8]).is_none(), "budget exhausted");
        // Freeing a page makes room without growing.
        tiers.free(refs[10]);
        assert!(tiers.alloc(&[9; 8]).is_some());
        // Values are intact after all that growth.
        assert_eq!(tiers.read(refs[63], 8), &[63; 8]);
    }

    #[test]
    fn overflow_uncharges_on_free() {
        let mut tiers = TierSet::new(1 << 20);
        let big = vec![7u8; 100_000];
        let vref = tiers.alloc(&big).unwrap();
        assert_eq!(tiers.charged_bytes(), 100_000);
        assert!(
            tiers.alloc(&vec![8u8; 1_000_000]).is_none(),
            "second giant value exceeds the budget"
        );
        tiers.free(vref);
        assert_eq!(tiers.charged_bytes(), 0);
        assert!(
            tiers.alloc(&vec![8u8; 1_000_000]).is_some(),
            "freeing the overflow value returned its budget"
        );
    }
}
