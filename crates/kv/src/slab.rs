//! A Memcached-style slab allocator.
//!
//! Memory is carved into 1 MB pages; each page belongs to a *size class*
//! whose chunk size grows geometrically (factor 1.25 from a 96 B base,
//! Memcached 1.4's defaults). An item occupies exactly one chunk of the
//! smallest class that fits it. Chunk addresses are stable for an item's
//! lifetime, which lets the simulator use them directly as memory
//! addresses for value transfers.

use core::fmt;

/// Bytes per slab page.
pub const PAGE_BYTES: u64 = 1 << 20;

/// Smallest chunk size (bytes).
pub(crate) const MIN_CHUNK_BYTES: u64 = 96;

/// Geometric growth factor between size classes.
pub(crate) const GROWTH_FACTOR: f64 = 1.25;

/// A chunk's identity and location within the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlabAddr {
    /// Size-class index.
    pub class: u16,
    /// Page index within the allocator (global across classes).
    pub page: u32,
    /// Chunk index within the page.
    pub chunk: u32,
}

/// Errors returned by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlabError {
    /// The object is larger than the biggest chunk class.
    ObjectTooLarge {
        /// Requested bytes.
        requested: u64,
        /// Largest supported chunk.
        max: u64,
    },
    /// No free chunk and no memory left for a new page.
    OutOfMemory,
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::ObjectTooLarge { requested, max } => {
                write!(f, "object of {requested} bytes exceeds max chunk {max}")
            }
            SlabError::OutOfMemory => write!(f, "slab memory exhausted"),
        }
    }
}

impl std::error::Error for SlabError {}

/// One size class: its chunk size and free list.
#[derive(Debug, Clone)]
struct SizeClass {
    chunk_bytes: u64,
    chunks_per_page: u32,
    /// The page most recently assigned to this class (global index).
    page: u32,
    /// Free chunks, as (global page, chunk index).
    free: Vec<(u32, u32)>,
    /// Next never-used chunk in `page`; `chunks_per_page` until the
    /// class is first assigned a page.
    bump: u32,
    allocated: u64,
}

/// A slab allocator over a fixed memory budget.
///
/// # Examples
///
/// ```
/// use densekv_kv::slab::SlabAllocator;
///
/// let mut slab = SlabAllocator::new(4 << 20); // 4 MB arena
/// let addr = slab.allocate(100)?;
/// assert!(slab.chunk_bytes(addr.class) >= 100);
/// slab.free(addr);
/// # Ok::<(), densekv_kv::slab::SlabError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlabAllocator {
    classes: Vec<SizeClass>,
    total_pages: u32,
    next_page: u32,
}

impl SlabAllocator {
    /// Creates an allocator over `arena_bytes` of memory (rounded down to
    /// whole pages). Classes run from 96 B up to one full page.
    ///
    /// # Panics
    ///
    /// Panics if the arena is smaller than one page.
    pub fn new(arena_bytes: u64) -> Self {
        let total_pages = (arena_bytes / PAGE_BYTES) as u32;
        assert!(total_pages > 0, "arena must hold at least one 1 MB page");
        let mut classes = Vec::new();
        let mut size = MIN_CHUNK_BYTES as f64;
        loop {
            let chunk = (size as u64).min(PAGE_BYTES);
            let chunks_per_page = (PAGE_BYTES / chunk) as u32;
            classes.push(SizeClass {
                chunk_bytes: chunk,
                chunks_per_page,
                page: 0,
                free: Vec::new(),
                bump: chunks_per_page,
                allocated: 0,
            });
            if chunk == PAGE_BYTES {
                break;
            }
            size *= GROWTH_FACTOR;
        }
        SlabAllocator {
            classes,
            total_pages,
            next_page: 0,
        }
    }

    /// Number of size classes.
    pub(crate) fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Chunk size of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn chunk_bytes(&self, class: u16) -> u64 {
        self.classes[class as usize].chunk_bytes
    }

    /// The class that will serve an object of `bytes`, if any fits.
    pub(crate) fn class_for(&self, bytes: u64) -> Option<u16> {
        self.classes
            .iter()
            .position(|c| c.chunk_bytes >= bytes)
            .map(|i| i as u16)
    }

    /// Total bytes of the arena.
    pub(crate) fn arena_bytes(&self) -> u64 {
        self.total_pages as u64 * PAGE_BYTES
    }

    /// Bytes currently allocated (in whole chunks).
    pub fn allocated_bytes(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.allocated * c.chunk_bytes)
            .sum()
    }

    /// Allocates a chunk for an object of `bytes`.
    ///
    /// # Errors
    ///
    /// [`SlabError::ObjectTooLarge`] if no class fits — terminal, never
    /// retry it; [`SlabError::OutOfMemory`] when the arena is exhausted
    /// — callers (the store) respond by evicting a same-class victim
    /// and retrying, and surface the error only once eviction cannot
    /// free a fitting chunk.
    pub fn allocate(&mut self, bytes: u64) -> Result<SlabAddr, SlabError> {
        let class_idx = self.class_for(bytes).ok_or(SlabError::ObjectTooLarge {
            requested: bytes,
            max: PAGE_BYTES,
        })? as usize;

        // Reuse a freed chunk first.
        let class = &mut self.classes[class_idx];
        let (page, chunk) = if let Some(free) = class.free.pop() {
            free
        } else if class.bump < class.chunks_per_page {
            // Bump-allocate in the newest page.
            class.bump += 1;
            (class.page, class.bump - 1)
        } else if self.next_page < self.total_pages {
            // Grab a fresh page.
            class.page = self.next_page;
            class.bump = 1;
            self.next_page += 1;
            (class.page, 0)
        } else {
            return Err(SlabError::OutOfMemory);
        };
        class.allocated += 1;
        Ok(SlabAddr {
            class: class_idx as u16,
            page,
            chunk,
        })
    }

    /// Returns a chunk to its class's free list.
    ///
    /// # Panics
    ///
    /// Panics if the address's class is invalid.
    pub fn free(&mut self, addr: SlabAddr) {
        let class = &mut self.classes[addr.class as usize];
        class.free.push((addr.page, addr.chunk));
        class.allocated -= 1;
    }

    /// Byte offset of a chunk from the start of the arena — the address
    /// the timing model uses for value transfers.
    pub fn byte_offset(&self, addr: SlabAddr) -> u64 {
        addr.page as u64 * PAGE_BYTES
            + addr.chunk as u64 * self.classes[addr.class as usize].chunk_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_grow_geometrically_to_a_page() {
        let slab = SlabAllocator::new(PAGE_BYTES);
        assert!(slab.class_count() > 30);
        assert_eq!(slab.chunk_bytes(0), 96);
        let last = slab.chunk_bytes(slab.class_count() as u16 - 1);
        assert_eq!(last, PAGE_BYTES);
        for i in 1..slab.class_count() {
            assert!(slab.chunk_bytes(i as u16) > slab.chunk_bytes(i as u16 - 1));
        }
    }

    #[test]
    fn class_for_picks_smallest_fit() {
        let slab = SlabAllocator::new(PAGE_BYTES);
        let c = slab.class_for(96).unwrap();
        assert_eq!(c, 0);
        let c = slab.class_for(97).unwrap();
        assert_eq!(c, 1);
        assert_eq!(
            slab.class_for(PAGE_BYTES).unwrap() as usize,
            slab.class_count() - 1
        );
        assert_eq!(slab.class_for(PAGE_BYTES + 1), None);
    }

    #[test]
    fn allocate_free_reuse() {
        let mut slab = SlabAllocator::new(2 * PAGE_BYTES);
        let a = slab.allocate(100).unwrap();
        let b = slab.allocate(100).unwrap();
        assert_ne!(a, b);
        slab.free(a);
        let c = slab.allocate(100).unwrap();
        assert_eq!(a, c, "freed chunk is reused first");
    }

    #[test]
    fn distinct_offsets_within_page() {
        let mut slab = SlabAllocator::new(PAGE_BYTES);
        let a = slab.allocate(5000).unwrap();
        let b = slab.allocate(5000).unwrap();
        let gap = slab.byte_offset(b) - slab.byte_offset(a);
        assert_eq!(gap, slab.chunk_bytes(a.class));
    }

    #[test]
    fn oom_when_arena_exhausted() {
        let mut slab = SlabAllocator::new(2 * PAGE_BYTES);
        // Half-page-plus objects land in a class with one chunk per page.
        let big = PAGE_BYTES / 2;
        slab.allocate(big).unwrap();
        slab.allocate(big).unwrap();
        assert_eq!(slab.allocate(big), Err(SlabError::OutOfMemory));
    }

    #[test]
    fn oom_becomes_allocatable_after_a_same_class_free() {
        // The retry contract end to end: exhaust the arena, observe the
        // retryable error, free one fitting chunk, and allocate again.
        let mut slab = SlabAllocator::new(2 * PAGE_BYTES);
        let big = PAGE_BYTES / 2;
        let first = slab.allocate(big).unwrap();
        slab.allocate(big).unwrap();
        let err = slab.allocate(big).unwrap_err();
        assert_eq!(err, SlabError::OutOfMemory);
        slab.free(first);
        assert!(slab.allocate(big).is_ok(), "eviction made room");
    }

    #[test]
    fn object_too_large() {
        let mut slab = SlabAllocator::new(PAGE_BYTES);
        assert!(matches!(
            slab.allocate(PAGE_BYTES * 2),
            Err(SlabError::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn allocated_bytes_accounting() {
        let mut slab = SlabAllocator::new(4 * PAGE_BYTES);
        assert_eq!(slab.allocated_bytes(), 0);
        let a = slab.allocate(100).unwrap();
        assert_eq!(slab.allocated_bytes(), slab.chunk_bytes(a.class));
        slab.free(a);
        assert_eq!(slab.allocated_bytes(), 0);
    }

    #[test]
    fn pages_shared_across_classes_from_global_pool() {
        let mut slab = SlabAllocator::new(2 * PAGE_BYTES);
        let small = slab.allocate(96).unwrap();
        let large = slab.allocate(PAGE_BYTES).unwrap();
        assert_ne!(small.page, large.page);
        // Arena only had 2 pages; a third class can't get one.
        assert_eq!(slab.allocate(500_000), Err(SlabError::OutOfMemory));
    }
}
