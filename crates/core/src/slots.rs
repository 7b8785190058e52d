//! Struct-of-arrays request-slot storage for the hot request loops.
//!
//! The sweep and energy drivers used to materialize every request as
//! a [`densekv_workload::Request`] — an owned key `Vec` per request,
//! allocated and dropped millions of times per experiment. This module
//! keeps per-request state in parallel vectors indexed by a dense slot:
//! operations, value sizes, and key bytes each live in their own
//! contiguous array (keys in a fixed-stride arena), and released slots
//! are recycled through a free list, so steady-state request churn
//! allocates nothing.
//!
//! Slot handles are generation-checked: [`RequestSlots::release`] bumps
//! the slot's generation, so a stale [`SlotId`] held across recycling
//! panics instead of silently reading another request's state — the
//! same discipline the event slab in `densekv-sim` uses for timers.

use densekv_workload::{key_bytes_into_slice, Op, MAX_KEY_LEN};

/// Handle to one live request slot; invalidated by
/// [`RequestSlots::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId {
    index: u32,
    generation: u32,
}

/// Arena of per-request state in struct-of-arrays layout.
///
/// # Examples
///
/// ```
/// use densekv::slots::RequestSlots;
/// use densekv_workload::Op;
///
/// let mut slots = RequestSlots::new();
/// let id = slots.acquire(Op::Get, 64, 7);
/// assert_eq!(slots.key(id), densekv_workload::key_bytes(7).as_slice());
/// assert_eq!(slots.value_bytes(id), 64);
/// slots.release(id);
/// assert!(slots.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RequestSlots {
    ops: Vec<Op>,
    value_bytes: Vec<u64>,
    /// Rendered key length per slot; bytes live in `keys`.
    key_lens: Vec<u8>,
    /// Key arena, [`MAX_KEY_LEN`] bytes per slot.
    keys: Vec<u8>,
    generations: Vec<u32>,
    free: Vec<u32>,
}

impl RequestSlots {
    /// Creates an empty arena.
    pub fn new() -> Self {
        RequestSlots::default()
    }

    /// Creates an arena with room for `n` concurrent requests before
    /// any vector grows.
    pub fn with_capacity(n: usize) -> Self {
        RequestSlots {
            ops: Vec::with_capacity(n),
            value_bytes: Vec::with_capacity(n),
            key_lens: Vec::with_capacity(n),
            keys: Vec::with_capacity(n * MAX_KEY_LEN),
            generations: Vec::with_capacity(n),
            free: Vec::with_capacity(n),
        }
    }

    /// Live (acquired, unreleased) slots.
    pub fn len(&self) -> usize {
        self.ops.len() - self.free.len()
    }

    /// Whether no slot is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated (live + recycled capacity).
    pub fn capacity(&self) -> usize {
        self.ops.len()
    }

    /// Allocates a slot for a request on key `key_id`, rendering the
    /// workload key bytes straight into the arena (byte-identical to
    /// [`densekv_workload::key_bytes`]).
    pub fn acquire(&mut self, op: Op, value_bytes: u64, key_id: u64) -> SlotId {
        let index = self.next_index();
        let i = index as usize;
        self.ops[i] = op;
        self.value_bytes[i] = value_bytes;
        let arena = &mut self.keys[i * MAX_KEY_LEN..(i + 1) * MAX_KEY_LEN];
        self.key_lens[i] = key_bytes_into_slice(key_id, arena) as u8;
        SlotId {
            index,
            generation: self.generations[i],
        }
    }

    /// Allocates a slot for a request whose key already exists as
    /// bytes (trace replay, cluster legs).
    ///
    /// # Panics
    ///
    /// Panics if `key` exceeds [`MAX_KEY_LEN`] bytes.
    pub fn acquire_with_key(&mut self, op: Op, value_bytes: u64, key: &[u8]) -> SlotId {
        assert!(key.len() <= MAX_KEY_LEN, "key exceeds slot arena stride");
        let index = self.next_index();
        let i = index as usize;
        self.ops[i] = op;
        self.value_bytes[i] = value_bytes;
        self.keys[i * MAX_KEY_LEN..i * MAX_KEY_LEN + key.len()].copy_from_slice(key);
        self.key_lens[i] = key.len() as u8;
        SlotId {
            index,
            generation: self.generations[i],
        }
    }

    /// Pops a recycled index or grows every parallel vector by one.
    fn next_index(&mut self) -> u32 {
        if let Some(index) = self.free.pop() {
            return index;
        }
        let index = self.ops.len();
        assert!(index <= u32::MAX as usize, "slot index fits u32");
        self.ops.push(Op::Get);
        self.value_bytes.push(0);
        self.key_lens.push(0);
        self.keys.resize(self.keys.len() + MAX_KEY_LEN, 0);
        self.generations.push(0);
        index as u32
    }

    /// The slot's operation.
    pub fn op(&self, id: SlotId) -> Op {
        self.ops[self.check(id)]
    }

    /// The slot's value size in bytes.
    pub fn value_bytes(&self, id: SlotId) -> u64 {
        self.value_bytes[self.check(id)]
    }

    /// The slot's key bytes.
    pub fn key(&self, id: SlotId) -> &[u8] {
        let i = self.check(id);
        &self.keys[i * MAX_KEY_LEN..i * MAX_KEY_LEN + self.key_lens[i] as usize]
    }

    /// Returns a released slot to the free list and invalidates `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (already released).
    pub fn release(&mut self, id: SlotId) {
        let i = self.check(id);
        self.generations[i] = self.generations[i].wrapping_add(1);
        self.free.push(id.index);
    }

    /// Validates a handle's generation, returning its index.
    fn check(&self, id: SlotId) -> usize {
        let i = id.index as usize;
        assert_eq!(
            self.generations[i], id.generation,
            "stale SlotId: slot {} was released and recycled",
            id.index
        );
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use densekv_workload::key_bytes;

    #[test]
    fn acquire_renders_workload_key_bytes() {
        let mut slots = RequestSlots::new();
        for id in [0u64, 7, 12_345, 99_999_999_999, u64::MAX] {
            let slot = slots.acquire(Op::Put, 256, id);
            assert_eq!(slots.key(slot), key_bytes(id).as_slice(), "key id {id}");
            assert_eq!(slots.op(slot), Op::Put);
            assert_eq!(slots.value_bytes(slot), 256);
            slots.release(slot);
        }
    }

    #[test]
    fn free_list_recycles_without_growth() {
        let mut slots = RequestSlots::new();
        for i in 0..1000u64 {
            let slot = slots.acquire(Op::Get, 64, i);
            slots.release(slot);
        }
        assert_eq!(slots.capacity(), 1, "one slot recycled a thousand times");
        assert!(slots.is_empty());
    }

    #[test]
    fn parallel_lives_get_distinct_slots() {
        let mut slots = RequestSlots::with_capacity(4);
        let a = slots.acquire(Op::Get, 64, 1);
        let b = slots.acquire(Op::Put, 128, 2);
        assert_eq!(slots.len(), 2);
        assert_eq!(slots.key(a), key_bytes(1).as_slice());
        assert_eq!(slots.key(b), key_bytes(2).as_slice());
        slots.release(a);
        let c = slots.acquire_with_key(Op::Get, 64, b"key:something");
        assert_eq!(slots.capacity(), 2, "slot a's storage was recycled");
        assert_eq!(slots.key(c), b"key:something");
        slots.release(b);
        slots.release(c);
    }

    #[test]
    #[should_panic(expected = "stale SlotId")]
    fn stale_handle_panics() {
        let mut slots = RequestSlots::new();
        let a = slots.acquire(Op::Get, 64, 1);
        slots.release(a);
        let _b = slots.acquire(Op::Get, 64, 2); // recycles a's storage
        slots.key(a);
    }
}
