//! The FTL as it was before its bookkeeping went flat: two heap `Vec`s
//! per block and an `Option<PhysPage>` per logical page. Kept as the
//! reference the flat [`Ftl`](super::Ftl) is driven against, op for op.

use densekv_sim::Duration;

use super::{plane_states, FtlError, PlaneState, WriteOutcome};
use crate::flash::{FlashArray, FlashConfig, PhysPage};

/// Per-block FTL bookkeeping.
#[derive(Debug, Clone)]
struct BlockState {
    /// Which pages hold valid (current) data.
    valid: Vec<bool>,
    /// Logical page stored in each physical page, for GC relocation.
    owner: Vec<Option<u64>>,
    /// Next page to program (blocks fill sequentially).
    write_ptr: u32,
}

impl BlockState {
    fn new(pages: u32) -> Self {
        BlockState {
            valid: vec![false; pages as usize],
            owner: vec![None; pages as usize],
            write_ptr: 0,
        }
    }

    fn valid_count(&self) -> u32 {
        self.valid.iter().filter(|v| **v).count() as u32
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr >= pages
    }

    fn reset(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.owner.iter_mut().for_each(|o| *o = None);
        self.write_ptr = 0;
    }
}

/// The per-block FTL.
#[derive(Debug, Clone)]
pub(crate) struct ReferenceFtl {
    flash: FlashArray,
    map: Vec<Option<PhysPage>>,
    blocks: Vec<BlockState>,
    planes: Vec<PlaneState>,
    exported_pages: u64,
    pub(crate) host_writes: u64,
    pub(crate) device_programs: u64,
    pub(crate) gc_moved_pages: u64,
    pub(crate) gc_erased_blocks: u64,
    wear_threshold: u32,
}

impl ReferenceFtl {
    pub(crate) fn new(config: FlashConfig, overprovision: f64, wear_threshold: u32) -> Self {
        let (planes, exported_pages) = plane_states(&config, overprovision);
        let nblocks = (config.planes * config.blocks_per_plane) as usize;
        ReferenceFtl {
            map: vec![None; exported_pages as usize],
            blocks: (0..nblocks)
                .map(|_| BlockState::new(config.pages_per_block))
                .collect(),
            planes,
            exported_pages,
            host_writes: 0,
            device_programs: 0,
            gc_moved_pages: 0,
            gc_erased_blocks: 0,
            wear_threshold,
            flash: FlashArray::new(config),
        }
    }

    pub(crate) fn flash(&self) -> &FlashArray {
        &self.flash
    }

    pub(crate) fn location(&self, lpn: u64) -> Option<PhysPage> {
        self.map[lpn as usize]
    }

    pub(crate) fn write_range(&mut self, offset: u64, bytes: u64) -> Duration {
        let page = self.flash.config().page_bytes;
        let first = offset / page;
        let last = (offset + bytes.max(1) - 1) / page;
        let mut latency = Duration::ZERO;
        for lpn in first..=last {
            let wrapped = lpn % self.exported_pages;
            latency += self
                .write(wrapped)
                .expect("wrapped lpn is within capacity")
                .latency;
        }
        latency
    }

    fn block_state(&self, plane: u32, block: u32) -> &BlockState {
        &self.blocks[(plane * self.flash.config().blocks_per_plane + block) as usize]
    }

    fn block_state_mut(&mut self, plane: u32, block: u32) -> &mut BlockState {
        &mut self.blocks[(plane * self.flash.config().blocks_per_plane + block) as usize]
    }

    fn plane_of(&self, lpn: u64) -> u32 {
        (lpn % self.flash.config().planes as u64) as u32
    }

    pub(crate) fn read(&mut self, lpn: u64) -> Result<(PhysPage, Duration), FtlError> {
        let loc = *self
            .map
            .get(lpn as usize)
            .ok_or(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            })?
            .as_ref()
            .ok_or(FtlError::Unmapped { lpn })?;
        let latency = self.flash.read_page(loc);
        Ok((loc, latency))
    }

    pub(crate) fn read_page_any(&mut self, lpn: u64) -> Duration {
        let lpn = lpn % self.exported_pages;
        match self.map[lpn as usize] {
            Some(loc) => self.flash.read_page(loc),
            None => self.flash.read_page(PhysPage {
                plane: self.plane_of(lpn),
                block: 0,
                page: 0,
            }),
        }
    }

    pub(crate) fn write(&mut self, lpn: u64) -> Result<WriteOutcome, FtlError> {
        if lpn >= self.exported_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn,
                capacity: self.exported_pages,
            });
        }
        self.host_writes += 1;
        let plane = self.plane_of(lpn);
        let mut latency = Duration::ZERO;
        let mut moved = 0;
        let mut erased = 0;

        if let Some(old) = self.map[lpn as usize] {
            let st = self.block_state_mut(old.plane, old.block);
            st.valid[old.page as usize] = false;
            st.owner[old.page as usize] = None;
        }

        let (gc_lat, gc_moved, gc_erased) = self.ensure_open_page(plane);
        latency += gc_lat;
        moved += gc_moved;
        erased += gc_erased;

        let location = self.append(plane, lpn);
        latency += self.flash.program_page(location);
        self.device_programs += 1;
        self.map[lpn as usize] = Some(location);

        let (wl_lat, wl_moved, wl_erased) = self.maybe_level_wear(plane);
        latency += wl_lat;
        moved += wl_moved;
        erased += wl_erased;

        self.gc_moved_pages += moved as u64;
        self.gc_erased_blocks += erased as u64;

        Ok(WriteOutcome {
            location,
            latency,
            gc_moved_pages: moved,
            gc_erased_blocks: erased,
        })
    }

    fn append(&mut self, plane: u32, lpn: u64) -> PhysPage {
        let open = self.planes[plane as usize].open_block;
        let st = self.block_state_mut(plane, open);
        let page = st.write_ptr;
        st.write_ptr += 1;
        st.valid[page as usize] = true;
        st.owner[page as usize] = Some(lpn);
        PhysPage {
            plane,
            block: open,
            page,
        }
    }

    fn ensure_open_page(&mut self, plane: u32) -> (Duration, u32, u32) {
        let pages = self.flash.config().pages_per_block;
        let open = self.planes[plane as usize].open_block;
        if !self.block_state(plane, open).is_full(pages) {
            return (Duration::ZERO, 0, 0);
        }
        if let Some(next) = self.planes[plane as usize].free_blocks.pop() {
            self.planes[plane as usize].is_free[next as usize] = false;
            self.planes[plane as usize].open_block = next;
            return (Duration::ZERO, 0, 0);
        }
        self.collect_garbage(plane)
    }

    fn collect_garbage(&mut self, plane: u32) -> (Duration, u32, u32) {
        let cfg_blocks = self.flash.config().blocks_per_plane;
        let open = self.planes[plane as usize].open_block;
        let reserved = self.planes[plane as usize].reserved;
        let is_free = std::mem::take(&mut self.planes[plane as usize].is_free);
        let victim = (0..cfg_blocks)
            .filter(|&b| b != open && b != reserved && !is_free[b as usize])
            .min_by_key(|&b| {
                (
                    self.block_state(plane, b).valid_count(),
                    self.flash.erase_count(plane, b),
                )
            })
            .expect("plane has data blocks beyond open and reserved");
        self.planes[plane as usize].is_free = is_free;
        let (latency, moved) = self.relocate_into_reserved(plane, victim);
        self.planes[plane as usize].open_block = reserved;
        self.planes[plane as usize].reserved = victim;
        (latency, moved, 1)
    }

    fn relocate_into_reserved(&mut self, plane: u32, victim: u32) -> (Duration, u32) {
        let reserved = self.planes[plane as usize].reserved;
        let survivors: Vec<(u32, u64)> = {
            let st = self.block_state(plane, victim);
            st.owner
                .iter()
                .enumerate()
                .filter(|&(p, _o)| st.valid[p])
                .map(|(p, o)| (p as u32, o.expect("valid page has an owner")))
                .collect()
        };
        let mut latency = Duration::ZERO;
        let mut moved = 0;
        for (page, lpn) in survivors {
            latency += self.flash.read_page(PhysPage {
                plane,
                block: victim,
                page,
            });
            let dest_page = {
                let st = self.block_state_mut(plane, reserved);
                let p = st.write_ptr;
                st.write_ptr += 1;
                st.valid[p as usize] = true;
                st.owner[p as usize] = Some(lpn);
                p
            };
            let dest = PhysPage {
                plane,
                block: reserved,
                page: dest_page,
            };
            latency += self.flash.program_page(dest);
            self.device_programs += 1;
            self.map[lpn as usize] = Some(dest);
            moved += 1;
        }
        latency += self.flash.erase_block(plane, victim);
        self.block_state_mut(plane, victim).reset();
        (latency, moved)
    }

    fn maybe_level_wear(&mut self, plane: u32) -> (Duration, u32, u32) {
        const WEAR_CHECK_INTERVAL: u32 = 32;
        {
            let st = &mut self.planes[plane as usize];
            st.writes_since_wear_check += 1;
            if st.writes_since_wear_check < WEAR_CHECK_INTERVAL {
                return (Duration::ZERO, 0, 0);
            }
            st.writes_since_wear_check = 0;
        }
        let cfg_blocks = self.flash.config().blocks_per_plane;
        let open = self.planes[plane as usize].open_block;
        let reserved = self.planes[plane as usize].reserved;
        let (mut min_b, mut min_e, mut max_e) = (0u32, u32::MAX, 0u32);
        for b in 0..cfg_blocks {
            let e = self.flash.erase_count(plane, b);
            max_e = max_e.max(e);
            if b != open
                && b != reserved
                && !self.planes[plane as usize].is_free[b as usize]
                && e < min_e
            {
                min_e = e;
                min_b = b;
            }
        }
        if min_e == u32::MAX
            || min_b == reserved
            || max_e.saturating_sub(min_e) < self.wear_threshold
        {
            return (Duration::ZERO, 0, 0);
        }
        let (latency, moved) = self.relocate_into_reserved(plane, min_b);
        self.planes[plane as usize].reserved = min_b;
        (latency, moved, 1)
    }
}
