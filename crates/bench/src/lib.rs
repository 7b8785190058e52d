//! Shared plumbing for `densekv-bench`: the command line, quick mode,
//! the worker count, where results go and how tables are emitted.
//!
//! Every subcommand of the one binary (see [`stages`] and DESIGN.md's
//! experiment index) regenerates one table, figure or extension of the
//! paper and drops its artifacts under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod energy_run;
mod hybrid_run;
pub mod lock_scaling;
mod serve_obs;
mod serve_run;
mod serve_validate;
pub mod stages;
mod top;
mod trace_run;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use densekv::report::TextTable;
use densekv_workload::{key_bytes, Op, Request};

/// Directory (relative to the workspace root) where experiment output is
/// written.
pub(crate) const RESULTS_DIR: &str = "results";

/// Environment variable that redirects all emitted artifacts to another
/// directory. Used by tests to avoid clobbering the checked-in
/// `results/` files; leave it unset to reproduce the canonical
/// artifacts.
pub const RESULTS_DIR_ENV: &str = "DENSEKV_RESULTS_DIR";

/// The checked-in `results/` of the workspace this crate was built in,
/// wherever the binary is started from.
fn default_results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join(RESULTS_DIR)
}

/// Resolves the results directory, creating it if needed.
///
/// Honors [`RESULTS_DIR_ENV`] when set; otherwise defaults to
/// `results/` under the workspace root.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub(crate) fn results_dir() -> PathBuf {
    let dir = std::env::var_os(RESULTS_DIR_ENV)
        .filter(|d| !d.is_empty())
        .map_or_else(default_results_dir, PathBuf::from);
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
pub(crate) fn emit_raw(file_name: &str, contents: &str) {
    let path = results_dir().join(file_name);
    std::fs::write(&path, contents).expect("write artifact");
    eprintln!("[densekv-bench] wrote {}", path.display());
}

/// Keys the `trace_run` and `energy_run` cores are preloaded with (and
/// their replay cycles through).
pub(crate) const REPLAY_POPULATION: u64 = 64;
/// Value size of the `trace_run` and `energy_run` replays, bytes — the
/// paper's headline 64 B point.
pub(crate) const REPLAY_VALUE_BYTES: u64 = 64;

/// The request stream `trace_run` and `energy_run` replay, so their
/// trace and energy artefacts describe one workload: a 3:1 GET:PUT mix
/// over a cycling key pattern, with every 16th request fetching a
/// never-written key — deterministic, with hits and misses both
/// exercised.
#[must_use]
pub(crate) fn replay_mix(requests: u64) -> Vec<Request> {
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

/// Whether this is a quick smoke run: `DENSEKV_QUICK` set to anything
/// but `0`.
#[must_use]
pub(crate) fn quick() -> bool {
    std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0")
}

/// Picks the sweep effort: full by default, quick when `DENSEKV_QUICK`
/// is set to anything but `0`.
#[must_use]
pub fn effort() -> densekv::sweep::SweepEffort {
    if quick() {
        densekv::sweep::SweepEffort::quick()
    } else {
        densekv::sweep::SweepEffort::full()
    }
}

/// A simulated or wall-clock duration in microseconds.
#[must_use]
pub(crate) fn us(d: densekv_sim::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The command line after the program name:
/// `<experiment> [--jobs N]`, where `top` also takes `--addr HOST:PORT`,
/// `--frames N` and `--interval-ms M`. Every flag is also accepted as
/// `--flag=value`.
#[derive(Debug, Default)]
pub struct Args {
    /// The subcommand: a name from [`stages::names`].
    pub experiment: String,
    /// `--jobs`: worker count.
    pub jobs: Option<usize>,
    /// `--addr`: the server `top` attaches to instead of hosting one.
    pub addr: Option<SocketAddr>,
    /// `--frames`: frames `top` renders before exiting.
    pub frames: Option<u64>,
    /// `--interval-ms`: `top`'s refresh period.
    pub(crate) interval_ms: Option<u64>,
}

impl Args {
    /// Reads an argument list; any flag it does not know, or a flag of
    /// `top` given to another subcommand, is an error.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that does not parse.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let mut out = Args {
            experiment: args.next().ok_or("no experiment named")?,
            ..Args::default()
        };
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_owned(), Some(value.to_owned())),
                None => (arg.clone(), None),
            };
            let top_only = matches!(flag.as_str(), "--addr" | "--frames" | "--interval-ms");
            if !(flag == "--jobs" || top_only && out.experiment == "top") {
                return Err(format!("unknown argument `{arg}` for `{}`", out.experiment));
            }
            let value = inline
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} expects {what}, got `{value}`");
            match flag.as_str() {
                "--jobs" => {
                    let n = value.parse().ok().filter(|&n| n > 0);
                    out.jobs = Some(n.ok_or_else(|| bad("a positive worker count"))?);
                }
                "--addr" => out.addr = Some(value.parse().map_err(|_| bad("HOST:PORT"))?),
                "--frames" => out.frames = Some(value.parse().map_err(|_| bad("a frame count"))?),
                _ => out.interval_ms = Some(value.parse().map_err(|_| bad("milliseconds"))?),
            }
        }
        Ok(out)
    }
}

/// This process's [`Args`].
///
/// # Panics
///
/// Panics if the command line does not parse; the binary checks it
/// before it runs anything.
#[must_use]
pub(crate) fn args() -> Args {
    Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| panic!("{e}"))
}

/// Picks the worker count for the run: `--jobs N` from the command
/// line, else the `DENSEKV_JOBS` variable, else the machine's available
/// parallelism. Results are bit-identical at any value — `--jobs` only
/// changes wall-clock time.
#[must_use]
pub fn jobs() -> densekv_par::Jobs {
    args()
        .jobs
        .map_or_else(densekv_par::Jobs::from_env, densekv_par::Jobs::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(v.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn results_dir_exists_after_call() {
        // The default is the checked-in `results/`, never a directory
        // beside whatever the working directory is.
        assert!(default_results_dir().join("README.md").is_file());
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
        assert_eq!(parse(&["all", "--jobs", "3"]).unwrap().jobs, Some(3));
        assert_eq!(parse(&["sla", "--jobs=7"]).unwrap().jobs, Some(7));
        // No flag: the environment/machine default decides.
        assert_eq!(parse(&["all"]).unwrap().jobs, None);
        let top = parse(&["top", "--frames", "4", "--interval-ms=250", "--jobs", "2"]).unwrap();
        assert_eq!(
            (top.frames, top.interval_ms, top.jobs),
            (Some(4), Some(250), Some(2))
        );
    }

    #[test]
    #[should_panic(expected = "positive worker count")]
    fn jobs_flag_rejects_garbage() {
        // Mistyped flags are errors, not silently the default count.
        for bad in [
            &["all", "--job", "2"][..],
            &["all", "--jobs2"],
            &["all", "--jobs"],
            &["all", "--quiet"],
            &["all", "--frames", "3"],
            &["top", "--frames", "many"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        parse(&["all", "--jobs", "zero"]).unwrap();
    }
}
