//! Deterministic work distribution for the measurement stack.
//!
//! Every evaluation artifact in this workspace is a grid of *independent*
//! simulation points (request sizes × ops × seeds × tier sizes × load
//! levels), each with its own per-point RNG stream. This crate evaluates
//! `f(i)` over such an index set on `N` OS threads and returns results
//! **in input order**, so a serial run and a parallel run are
//! bit-identical by construction:
//!
//! * workers pull indices from a shared atomic counter (no partitioning
//!   skew, no per-thread RNG),
//! * each result lands in its own pre-allocated slot, keyed by index,
//! * the caller receives `Vec<T>` ordered `0..n` regardless of which
//!   thread computed which point or in what order they finished.
//!
//! Anything that must be *reduced* across points (latency histograms,
//! metrics registries, energy meters) is merged by the caller after the
//! join, walking the returned vector front to back — the same ordered
//! reduction a serial loop performs. [`par_map_reduce`] packages that
//! discipline.
//!
//! The crate is dependency-free (scoped `std::thread` + `std::sync`), so
//! the simulators inherit parallelism without inheriting a scheduler.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count for a parallel region.
///
/// `--jobs 1` (or [`Jobs::SERIAL`]) reproduces today's single-threaded
/// path exactly — not merely equivalently: the parallel path with one
/// worker and the inline path both evaluate `f(0), f(1), …` in order.
///
/// # Examples
///
/// ```
/// use densekv_par::Jobs;
///
/// assert_eq!(Jobs::SERIAL.get(), 1);
/// assert_eq!(Jobs::new(0).get(), 1); // clamped, never zero
/// assert!(Jobs::from_env().get() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Jobs(NonZeroUsize);

/// Environment variable overriding the default worker count.
pub(crate) const JOBS_ENV: &str = "DENSEKV_JOBS";

impl Jobs {
    /// One worker: the serial path.
    pub const SERIAL: Jobs = Jobs(NonZeroUsize::MIN);

    /// `n` workers, clamped to at least 1.
    #[must_use]
    pub fn new(n: usize) -> Jobs {
        Jobs(NonZeroUsize::new(n.max(1)).expect("max(1) is nonzero"))
    }

    /// The worker count.
    #[must_use]
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Resolves the default worker count: `DENSEKV_JOBS` when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`]
    /// (1 if even that is unavailable).
    #[must_use]
    pub fn from_env() -> Jobs {
        if let Some(n) = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return Jobs::new(n);
        }
        Jobs::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }
}

impl Default for Jobs {
    /// Defaults to [`Jobs::from_env`].
    fn default() -> Self {
        Jobs::from_env()
    }
}

impl std::fmt::Display for Jobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Evaluates `f(i)` for `i in 0..n` on up to `jobs` workers and returns
/// the results in index order.
///
/// Workers claim indices from a shared atomic counter, so load imbalance
/// (a 1 MB sweep point next to a 64 B one) self-schedules. `f` must be
/// pure per index — any randomness must come from a per-index seed —
/// which is exactly the structure of every sweep in this workspace.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers stop claiming work.
pub(crate) fn par_map_indexed<T, F>(jobs: Jobs, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.get().min(n.max(1));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                match slots[i].lock() {
                    Ok(mut slot) => *slot = Some(value),
                    Err(poisoned) => *poisoned.into_inner() = Some(value),
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let inner = match slot.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner.expect("every index was claimed and filled")
        })
        .collect()
}

/// Evaluates `f(&items[i])` on up to `jobs` workers and returns results
/// in `items` order.
///
/// # Examples
///
/// ```
/// use densekv_par::{par_map, Jobs};
///
/// let sizes = [64u64, 128, 256];
/// let doubled = par_map(Jobs::new(2), &sizes, |&s| s * 2);
/// assert_eq!(doubled, vec![128, 256, 512]);
/// ```
pub fn par_map<I, T, F>(jobs: Jobs, items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_indexed(jobs, items.len(), |i| f(&items[i]))
}

/// Evaluates `f(i)` in parallel, then folds the results into `init` with
/// `merge` **in index order** — the ordered-reduction discipline that
/// keeps merged histograms/registries/meters bit-identical to a serial
/// accumulation loop.
///
/// # Examples
///
/// ```
/// use densekv_par::{par_map_reduce, Jobs};
///
/// let joined = par_map_reduce(
///     Jobs::new(3),
///     4,
///     |i| i.to_string(),
///     String::new(),
///     |acc, s| acc + &s,
/// );
/// assert_eq!(joined, "0123"); // order held even with 3 workers
/// ```
pub fn par_map_reduce<T, A, F, M>(jobs: Jobs, n: usize, f: F, init: A, merge: M) -> A
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    M: FnMut(A, T) -> A,
{
    par_map_indexed(jobs, n, f).into_iter().fold(init, merge)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_with_serial_for_any_jobs() {
        let serial: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for jobs in [1, 2, 3, 4, 7, 16] {
            let parallel =
                par_map_indexed(Jobs::new(jobs), 100, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = par_map_indexed(Jobs::new(4), 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Jobs::new(4), 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        assert_eq!(par_map_indexed(Jobs::new(64), 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<String> = (0..50).map(|i| format!("p{i}")).collect();
        let lens = par_map(Jobs::new(5), &items, |s| s.len());
        let serial: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(lens, serial);
    }

    #[test]
    fn reduce_merges_in_index_order() {
        // Uneven per-index work so fast indices finish out of order; the
        // reduction must still observe 0..n front to back.
        let joined = par_map_reduce(
            Jobs::new(8),
            32,
            |i| {
                if i % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                format!("{i},")
            },
            String::new(),
            |acc, s| acc + &s,
        );
        let serial: String = (0..32).map(|i| format!("{i},")).collect();
        assert_eq!(joined, serial);
    }

    #[test]
    fn jobs_clamps_and_parses() {
        assert_eq!(Jobs::new(0), Jobs::SERIAL);
        assert_eq!(Jobs::new(3).get(), 3);
        assert_eq!(Jobs::new(2).to_string(), "2");
        // from_env never yields zero even without the variable.
        assert!(Jobs::from_env().get() >= 1);
        assert!(Jobs::default().get() >= 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(Jobs::new(2), 8, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}
