//! Shared plumbing for the `densekv-bench` binaries: where results go and
//! how tables are emitted.
//!
//! Every `bin/` target regenerates one table or figure of the paper (see
//! DESIGN.md's experiment index) and drops both the rendered text and a
//! CSV under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lock_scaling;

use std::path::{Path, PathBuf};

use densekv::report::TextTable;
use densekv_workload::{key_bytes, Op, Request};

/// Directory (relative to the workspace root) where experiment output is
/// written.
pub const RESULTS_DIR: &str = "results";

/// Environment variable that redirects all emitted artifacts to another
/// directory. Used by tests to avoid clobbering the checked-in
/// `results/` files; leave it unset to reproduce the canonical
/// artifacts.
pub const RESULTS_DIR_ENV: &str = "DENSEKV_RESULTS_DIR";

/// Resolves the results directory, creating it if needed.
///
/// Honors [`RESULTS_DIR_ENV`] when set; otherwise defaults to
/// `results/` under the workspace root.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os(RESULTS_DIR_ENV).filter(|d| !d.is_empty()) {
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create results dir");
        return dir;
    }
    // The binaries run from the workspace root (`cargo run -p ...`), but
    // fall back to the manifest's parent if invoked elsewhere.
    let base = if Path::new("Cargo.toml").exists() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    };
    let dir = base.join(RESULTS_DIR);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Prints a table and writes its CSV next to the other results.
///
/// # Panics
///
/// Panics if the CSV cannot be written.
pub fn emit(name: &str, table: &TextTable) {
    println!("{table}");
    let path = results_dir().join(format!("{name}.csv"));
    std::fs::write(&path, table.to_csv()).expect("write csv");
    eprintln!("[densekv-bench] wrote {}", path.display());
}

/// Writes a non-tabular artifact (trace JSON, timeline CSV, …) under
/// the results directory and logs where it went.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn emit_raw(file_name: &str, contents: &str) {
    let path = results_dir().join(file_name);
    std::fs::write(&path, contents).expect("write artifact");
    eprintln!("[densekv-bench] wrote {}", path.display());
}

/// Keys the `trace_run` and `energy_run` cores are preloaded with (and
/// their replay cycles through).
pub const REPLAY_POPULATION: u64 = 64;
/// Value size of the `trace_run` and `energy_run` replays, bytes — the
/// paper's headline 64 B point.
pub const REPLAY_VALUE_BYTES: u64 = 64;

/// The request stream `trace_run` and `energy_run` replay, so their
/// trace and energy artefacts describe one workload: a 3:1 GET:PUT mix
/// over a cycling key pattern, with every 16th request fetching a
/// never-written key — deterministic, with hits and misses both
/// exercised.
#[must_use]
pub fn replay_mix(requests: u64) -> Vec<Request> {
    (0..requests)
        .map(|i| {
            let key = if i % 16 == 5 {
                key_bytes(REPLAY_POPULATION + i)
            } else {
                key_bytes(i % REPLAY_POPULATION)
            };
            Request {
                op: if i % 4 == 3 { Op::Put } else { Op::Get },
                key,
                value_bytes: REPLAY_VALUE_BYTES,
            }
        })
        .collect()
}

/// Picks the sweep effort: full by default, `DENSEKV_QUICK=1` for a fast
/// smoke run.
#[must_use]
pub fn effort() -> densekv::sweep::SweepEffort {
    if std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0") {
        densekv::sweep::SweepEffort::quick()
    } else {
        densekv::sweep::SweepEffort::full()
    }
}

/// Picks the worker count for the run: `--jobs N` (or `--jobs=N`) from
/// the command line, else the `DENSEKV_JOBS` variable, else the
/// machine's available parallelism. Results are bit-identical at any
/// value — `--jobs` only changes wall-clock time.
///
/// # Panics
///
/// Panics with a usage message when `--jobs` is present without a
/// parseable positive count.
#[must_use]
pub fn jobs() -> densekv_par::Jobs {
    jobs_from(std::env::args().skip(1))
}

/// [`jobs`], but parsing an explicit argument list (testable).
pub fn jobs_from(args: impl IntoIterator<Item = String>) -> densekv_par::Jobs {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let value = if arg == "--jobs" {
            args.next()
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            Some(v.to_owned())
        } else {
            continue;
        };
        let n = value
            .as_deref()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("--jobs expects a positive worker count"));
        return densekv_par::Jobs::new(n);
    }
    densekv_par::Jobs::from_env()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let dir = results_dir();
        assert!(dir.is_dir());
    }

    #[test]
    fn effort_honors_env() {
        // Not setting the variable here (tests run in parallel); just
        // exercise the default path.
        let e = effort();
        assert!(e.measured > 0);
    }

    #[test]
    fn jobs_flag_parses_both_spellings() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(jobs_from(args(&["--jobs", "3"])).get(), 3);
        assert_eq!(jobs_from(args(&["--quiet", "--jobs=7"])).get(), 7);
        // No flag: falls through to the environment/machine default.
        assert!(jobs_from(args(&["--quiet"])).get() >= 1);
    }

    #[test]
    #[should_panic(expected = "positive worker count")]
    fn jobs_flag_rejects_garbage() {
        let _ = jobs_from(["--jobs".to_owned(), "zero".to_owned()]);
    }
}
