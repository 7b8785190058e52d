//! The densekv benchmark. See README.md beside this crate for what is
//! measured and why; `BENCHMARK.json` at the repository root for the
//! contract a driver runs it under.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--selfcheck]
//! ```
//!
//! Without `--workload` every workload runs, interleaved pass by pass.
//! The last line of standard output is one JSON object.

mod client;
mod host;
mod json;
mod layers;
mod live_workloads;
mod pass;
mod report;
mod sim_workloads;
mod spec;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use pass::PassReport;
use report::{Aggregate, TracedRun};
use spec::{Workload, PASSES, WORKLOADS};
use trace::Tracer;

/// Where results and traces go: `out/` beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u32,
    trace: bool,
    selfcheck: bool,
    write_expected: bool,
    /// `--pass <workload> <rounds>`: run one pass in this process and
    /// print its report (how the parent starts its children).
    pass: Option<(String, u32)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        seconds: spec::DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(word) = words.next() {
        let mut value = |what: &str| words.next().ok_or(format!("{word} needs {what}"));
        match word.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{name}`; one of {known:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                // A bare flag, or the driver's `--trace 0|1`.
                args.trace = match words.peek().map(String::as_str) {
                    Some("0") => {
                        words.next();
                        false
                    }
                    Some("1") => {
                        words.next();
                        true
                    }
                    _ => true,
                };
            }
            "--selfcheck" => args.selfcheck = true,
            "--write-expected" => args.write_expected = true,
            "--pass" => {
                let name = value("a workload name")?;
                let rounds = value("a round count")?
                    .parse()
                    .map_err(|e| format!("--pass rounds: {e}"))?;
                args.pass = Some((name, rounds));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Runs one pass in this process.
fn run_pass(name: &str, seed: u64, rounds: u32, traced: bool) -> Result<PassReport, String> {
    let mut tracer = Tracer::new(traced);
    let report = match name {
        "sim_paper_sweep" => sim_workloads::sweep_pass(seed, rounds, &mut tracer),
        "sim_core_replay" => sim_workloads::replay_pass(seed, rounds, &mut tracer),
        "sim_cluster_tail" => sim_workloads::cluster_pass(seed, rounds, &mut tracer),
        "live_model_get" => {
            live_workloads::live_pass(&live_workloads::MODEL_GET, seed, rounds, &mut tracer)
        }
        "live_engine_churn" => {
            live_workloads::live_pass(&live_workloads::ENGINE_CHURN, seed, rounds, &mut tracer)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    if traced {
        let path = out_dir().join(format!("trace_{name}.json"));
        tracer
            .write(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(report)
}

/// Runs one pass in a child process of its own, so that set-up time
/// and peak memory are a fresh process's, and waits for it.
fn spawn_pass(
    workload: &Workload,
    seed: u64,
    rounds: u32,
    traced: bool,
) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--pass", workload.name, &rounds.to_string()])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = command
        .output()
        .map_err(|e| format!("starting a {} pass: {e}", workload.name))?;
    if !output.status.success() {
        return Err(format!(
            "{} pass exited with {}",
            workload.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{} pass printed nothing", workload.name))?;
    PassReport::from_json(&json::parse(line)?)
}

/// The untraced run: `PASSES` passes of every workload in `workloads`,
/// interleaved, so each workload's rounds are spread over the run.
fn run_untraced(
    workloads: &[&Workload],
    seed: u64,
    seconds: u32,
) -> Result<Vec<Aggregate>, String> {
    let mut passes: Vec<Vec<PassReport>> = vec![Vec::new(); workloads.len()];
    for pass in 0..PASSES {
        for (slot, workload) in passes.iter_mut().zip(workloads) {
            eprintln!("pass {}/{PASSES} {}", pass + 1, workload.name);
            slot.push(spawn_pass(
                workload,
                seed,
                workload.rounds_per_pass(seconds),
                false,
            )?);
        }
    }
    Ok(workloads
        .iter()
        .zip(passes)
        .map(|(workload, passes)| Aggregate::new(workload, seed, &passes))
        .collect())
}

/// The traced run: one traced pass of *every* workload (each layer row
/// is measured with the inputs of the workload that stresses it), an
/// untraced pass of each selected workload to price the tracing, and
/// the per-layer timing loops.
fn run_traced(selected: &[&Workload], seed: u64) -> Result<TracedRun, String> {
    let mut run = TracedRun::default();
    for workload in &WORKLOADS {
        let is_selected = selected.iter().any(|w| w.name == workload.name);
        let rounds = if is_selected { 2 } else { 1 };
        if is_selected {
            eprintln!("untraced reference pass {}", workload.name);
            let untraced = spawn_pass(workload, seed, rounds, false)?;
            run.untraced.insert(workload.name, untraced);
        }
        eprintln!("traced pass {}", workload.name);
        run.traced
            .insert(workload.name, spawn_pass(workload, seed, rounds, true)?);
    }
    eprintln!("per-layer timing loops");
    run.probes = layers::probe_all(seed);
    Ok(run)
}

fn write_json(name: &str, doc: &Json) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn selected_workloads(args: &Args) -> Vec<&'static Workload> {
    match &args.workload {
        Some(name) => vec![spec::workload(name).expect("checked while parsing")],
        None => WORKLOADS.iter().collect(),
    }
}

/// The normal run. Prints tables, then the result line.
fn run(args: &Args) -> Result<bool, String> {
    let selected = selected_workloads(args);
    let single = args.workload.is_some();

    if args.trace && single {
        // The driver's traced run: per-layer metrics only.
        let traced = run_traced(&selected, args.seed)?;
        traced.print_tables();
        let line = traced.result_line();
        write_json("results_traced.json", &traced.to_json())?;
        println!("{}", line.render());
        return Ok(traced.correct());
    }

    let aggregates = run_untraced(&selected, args.seed, args.seconds)?;
    if args.write_expected {
        report::write_expected(&aggregates, args.seed)?;
    }
    report::print_end_to_end(&aggregates);
    let mut correct = aggregates.iter().all(Aggregate::correct);
    let mut results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(f64::from(args.seconds))),
        ("passes", Json::Num(f64::from(PASSES))),
        ("host_cores", Json::Num(host::cores() as f64)),
        (
            "workloads",
            Json::obj(aggregates.iter().map(|a| (a.name, a.to_json()))),
        ),
    ]);
    if args.trace {
        let traced = run_traced(&selected, args.seed)?;
        traced.print_tables();
        correct &= traced.correct();
        if let Json::Obj(map) = &mut results {
            map.insert("traced".into(), traced.to_json());
        }
    }
    write_json("results.json", &results)?;
    let line = if single {
        aggregates[0].result_line()
    } else {
        Json::obj([
            ("correct", Json::Bool(correct)),
            (
                "attempted",
                Json::Num(aggregates.iter().map(|a| a.attempted).sum::<u64>() as f64),
            ),
            (
                "failed",
                Json::Num(aggregates.iter().map(|a| a.failed).sum::<u64>() as f64),
            ),
            (
                "workloads",
                Json::obj(aggregates.iter().map(|a| (a.name, a.result_line()))),
            ),
        ])
    };
    println!("{}", line.render());
    Ok(correct)
}

/// `--selfcheck`: the whole untraced suite twice, back to back; fails
/// if the second set's median is worse than the first's by more than
/// the metric's bound anywhere.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let selected = selected_workloads(args);
    let first = run_untraced(&selected, args.seed, args.seconds)?;
    let second = run_untraced(&selected, args.seed, args.seconds)?;
    Ok(report::print_selfcheck(&first, &second))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((name, rounds)) = &args.pass {
        run_pass(name, args.seed, *rounds, args.trace).map(|report| {
            println!("{}", report.to_json().render());
            true
        })
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark FAILED its own checks (see above)");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("benchmark could not run: {why}");
            ExitCode::from(3)
        }
    }
}
