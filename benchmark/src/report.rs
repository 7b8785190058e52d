//! From passes to numbers: per-workload aggregation of the untraced
//! passes into end-to-end metrics, the traced run's per-layer table,
//! the checks that make a run count as correct, and the printing.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::json::{self, Json};
use crate::pass::PassReport;
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::median;

fn expected_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("seed{seed}.json"))
}

/// The checked-in digest of `workload`'s first round for `seed`, if
/// that seed has any.
fn expected_digest(workload: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(expected_path(seed)).ok()?;
    let doc = json::parse(&text).ok()?;
    doc.get(workload)?.as_str().map(str::to_owned)
}

/// Checks in the digests of this run as the expected ones for `seed`.
pub fn write_expected(aggregates: &[Aggregate], seed: u64) -> Result<(), String> {
    let path = expected_path(seed);
    let mut known = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.as_obj().cloned())
        .unwrap_or_default();
    for aggregate in aggregates {
        if let Some(digest) = &aggregate.digest_first {
            known.insert(aggregate.name.to_owned(), Json::Str(digest.clone()));
        }
    }
    let text = Json::Obj(known).render().replace(", ", ",\n ") + "\n";
    std::fs::create_dir_all(path.parent().expect("has a parent"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload's untraced passes, reduced to its end-to-end metrics.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub name: &'static str,
    /// One value per entry of [`END_TO_END`], in that order.
    pub values: [f64; END_TO_END.len()],
    pub throughput_rounds: usize,
    pub latency_rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub digest_first: Option<String>,
    /// Why the run does not count, if it does not.
    pub problems: Vec<String>,
}

impl Aggregate {
    pub fn new(workload: &Workload, seed: u64, passes: &[PassReport]) -> Aggregate {
        let all = |f: fn(&PassReport) -> &Vec<f64>| -> Vec<f64> {
            passes.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let per_pass = |f: fn(&PassReport) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
        let ops_per_s = all(|p| &p.ops_per_s);
        let p50_us = all(|p| &p.p50_us);
        let sla = all(|p| &p.sla_1ms);
        let first = &passes[0];
        let mut problems = Vec::new();
        let or_nan = |values: &[f64], what: &str, problems: &mut Vec<String>| {
            if values.is_empty() {
                problems.push(format!("no {what} was measured"));
                f64::NAN
            } else {
                median(values)
            }
        };

        let mut attempted: u64 = passes.iter().map(|p| p.tally.attempted).sum();
        let mut failed: u64 = passes.iter().map(|p| p.tally.failed).sum();
        if failed > 0 {
            problems.push(format!("{failed} of {attempted} operations failed"));
        }
        attempted = attempted.max(1);

        // What is deterministic must repeat exactly, pass after pass.
        let same = |f: fn(&PassReport) -> String| passes.iter().all(|p| f(p) == f(first));
        if !same(|p| format!("{}/{}", p.tally.hits, p.tally.gets)) {
            problems.push("hit counts differ between passes".into());
        }
        let simulated = first.digest_all.is_some();
        if simulated {
            let mut digests_agree = same(|p| format!("{:?}{:?}", p.digest_first, p.digest_all));
            if !same(|p| format!("{:?}{:?}", p.p50_us, p.sla_1ms)) {
                problems.push("simulated latency differs between passes".into());
                digests_agree = false;
            }
            if !digests_agree {
                problems.push("simulated statistics differ between passes".into());
            }
            if let (Some(expected), Some(got)) =
                (expected_digest(workload.name, seed), &first.digest_first)
            {
                if &expected != got {
                    problems.push(format!(
                        "digest {got} is not the expected {expected} for seed {seed}"
                    ));
                    digests_agree = false;
                }
            }
            if !digests_agree {
                // A simulator that computes something else has not
                // completed any of its operations.
                failed = attempted;
            }
        }

        let values = [
            median(&per_pass(|p| p.setup_s)),
            or_nan(&ops_per_s, "throughput round", &mut problems),
            or_nan(&p50_us, "latency", &mut problems),
            or_nan(&sla, "latency", &mut problems),
            first.tally.hits as f64 / first.tally.gets.max(1) as f64,
            median(&per_pass(|p| p.vm_hwm_kb as f64)) / 1024.0,
        ];
        Aggregate {
            name: workload.name,
            values,
            throughput_rounds: ops_per_s.len(),
            latency_rounds: p50_us.len(),
            attempted,
            failed,
            digest_first: first.digest_first.clone(),
            problems,
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.values.iter().all(|v| v.is_finite())
    }

    fn metrics_json(&self) -> Json {
        Json::obj(END_TO_END.iter().zip(self.values).map(|(metric, value)| {
            (
                metric.name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(metric.unit.into())),
                ]),
            )
        }))
    }

    /// The result line of the contract: `correct`, `attempted`,
    /// `failed` and every end-to-end metric.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }

    pub fn to_json(&self) -> Json {
        let Json::Obj(mut map) = self.result_line() else {
            unreachable!("result_line builds an object");
        };
        map.insert(
            "throughput_rounds".into(),
            Json::Num(self.throughput_rounds as f64),
        );
        map.insert(
            "latency_rounds".into(),
            Json::Num(self.latency_rounds as f64),
        );
        map.insert(
            "digest".into(),
            self.digest_first.clone().map_or(Json::Null, Json::Str),
        );
        map.insert(
            "problems".into(),
            Json::Arr(self.problems.iter().cloned().map(Json::Str).collect()),
        );
        Json::Obj(map)
    }
}

pub fn print_end_to_end(aggregates: &[Aggregate]) {
    println!(
        "\nEnd-to-end metrics (median over all rounds of all passes; host has {} cores)",
        crate::host::cores()
    );
    for aggregate in aggregates {
        println!(
            "\n{}  [{} throughput rounds, {} latency rounds, {} attempted, {} failed]",
            aggregate.name,
            aggregate.throughput_rounds,
            aggregate.latency_rounds,
            aggregate.attempted,
            aggregate.failed
        );
        for (metric, value) in END_TO_END.iter().zip(aggregate.values) {
            println!("  {:<16} {:>16.6} {}", metric.name, value, metric.unit);
        }
        for problem in &aggregate.problems {
            println!("  INCORRECT: {problem}");
        }
    }
    println!();
}

/// Prints both sets of medians, their relative difference and the
/// bound, per metric and workload; true when nothing breaches.
pub fn print_selfcheck(first: &[Aggregate], second: &[Aggregate]) -> bool {
    let mut ok = true;
    println!(
        "\n{:<18} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        for (i, metric) in END_TO_END.iter().enumerate() {
            let worse = metric.worsening(a.values[i], b.values[i]);
            // NaN (a metric that was not measured) breaches too.
            let breach = worse.is_nan() || worse > metric.bound;
            ok &= !breach;
            println!(
                "{:<18} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%{}",
                a.name,
                metric.name,
                a.values[i],
                b.values[i],
                worse * 100.0,
                metric.bound * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
        for aggregate in [a, b] {
            if !aggregate.correct() {
                ok = false;
                println!("{:<18} INCORRECT: {:?}", aggregate.name, aggregate.problems);
            }
        }
    }
    println!("\nselfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

/// The traced run: a traced pass of every workload, an untraced
/// reference pass of the selected ones, and the timing loops.
#[derive(Debug, Default)]
pub struct TracedRun {
    pub traced: BTreeMap<&'static str, PassReport>,
    pub untraced: BTreeMap<&'static str, PassReport>,
    pub probes: BTreeMap<&'static str, f64>,
}

impl TracedRun {
    /// No operation failed in any pass and every per-layer metric was
    /// measured.
    pub fn correct(&self) -> bool {
        let rows = self.per_layer();
        let mut complete = true;
        for metric in &PER_LAYER {
            if !rows.get(metric.name).is_some_and(|v| v.is_finite()) {
                eprintln!("per-layer metric {} was not measured", metric.name);
                complete = false;
            }
        }
        complete
            && self
                .traced
                .values()
                .chain(self.untraced.values())
                .all(|p| p.tally.failed == 0)
    }

    /// Traced ÷ untraced throughput of `workload`.
    fn overhead_ratio(&self, workload: &str) -> f64 {
        match (self.traced.get(workload), self.untraced.get(workload)) {
            (Some(traced), Some(untraced))
                if !traced.ops_per_s.is_empty() && !untraced.ops_per_s.is_empty() =>
            {
                median(&traced.ops_per_s) / median(&untraced.ops_per_s)
            }
            _ => f64::NAN,
        }
    }

    /// Every per-layer metric by name. Rows measured inside a pass come
    /// from the workload that stresses that layer: `cluster.*` from
    /// `sim_cluster_tail`, `serve.*` and `loadgen.*` from
    /// `live_model_get`; the rest from the timing loops.
    /// `trace.overhead_ratio` is the selected workload's (the median of
    /// theirs when several were selected).
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut rows = self.probes.clone();
        for home in ["sim_cluster_tail", "live_model_get"] {
            if let Some(pass) = self.traced.get(home) {
                for metric in &PER_LAYER {
                    if let Some(value) = pass.layer.get(metric.name) {
                        rows.insert(metric.name, *value);
                    }
                }
            }
        }
        let ratios: Vec<f64> = self
            .untraced
            .keys()
            .map(|name| self.overhead_ratio(name))
            .filter(|ratio| ratio.is_finite())
            .collect();
        if !ratios.is_empty() {
            rows.insert("trace.overhead_ratio", median(&ratios));
        }

        let get = |rows: &BTreeMap<&'static str, f64>, name: &str| {
            rows.get(name).copied().unwrap_or(f64::NAN)
        };
        // Time inside `CoreSim::execute` that the calls it makes into
        // the store, the network cost model and the DRAM device do not
        // cover. The cache walk cannot be priced from outside (the
        // engine accounts whole phases, not single accesses), so the
        // residual is the cpu model plus the core's own glue.
        let covered = get(&rows, "kv.get_ns")
            + get(&rows, "net.ns_per_exchange_cost")
            + get(&rows, "core.dram_lines_per_request") * get(&rows, "mem.dram_ns_per_line");
        rows.insert(
            "core.residual_share",
            1.0 - covered / get(&rows, "core.replay_ns_per_request"),
        );
        // Wall time of a closed-loop operation that no user-space row
        // covers: the kernel's socket path and the two threads' waits.
        let round_ns = self
            .traced
            .get("live_model_get")
            .filter(|p| !p.ops_per_s.is_empty())
            .map_or(f64::NAN, |p| 1e9 / median(&p.ops_per_s));
        rows.insert("loadgen.round_ns_per_op", round_ns);
        let covered = get(&rows, "loadgen.build_ns_per_op")
            + get(&rows, "loadgen.check_ns_per_op")
            + get(&rows, "kv.parse_ns_per_cmd")
            + get(&rows, "serve.dispatch_timed_ns_per_cmd")
            + get(&rows, "kv.render_ns_per_reply");
        rows.insert("loadgen.layer_residual_share", 1.0 - covered / round_ns);
        rows
    }

    fn per_layer_json(&self) -> Json {
        let rows = self.per_layer();
        Json::obj(PER_LAYER.iter().map(|metric| {
            (
                metric.name,
                Json::obj([
                    (
                        "value",
                        Json::Num(rows.get(metric.name).copied().unwrap_or(f64::NAN)),
                    ),
                    ("unit", Json::Str(metric.unit.into())),
                ]),
            )
        }))
    }

    /// The result line of a traced run: every per-layer metric.
    pub fn result_line(&self) -> Json {
        let passes = || self.traced.values().chain(self.untraced.values());
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            (
                "attempted",
                Json::Num(passes().map(|p| p.tally.attempted).sum::<u64>().max(1) as f64),
            ),
            (
                "failed",
                Json::Num(passes().map(|p| p.tally.failed).sum::<u64>() as f64),
            ),
            ("metrics", self.per_layer_json()),
        ])
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("per_layer", self.per_layer_json()),
            (
                "trace_overhead_ratio",
                Json::obj(
                    self.untraced
                        .keys()
                        .map(|name| (*name, Json::Num(self.overhead_ratio(name)))),
                ),
            ),
            (
                "passes",
                Json::obj(
                    self.traced
                        .iter()
                        .map(|(name, pass)| (*name, pass.to_json())),
                ),
            ),
        ])
    }

    /// One table per workload from its spans (rows tile the round; the
    /// round's self time is the residual), then the per-layer table.
    pub fn print_tables(&self) {
        for workload in &crate::spec::WORKLOADS {
            let Some(pass) = self.traced.get(workload.name) else {
                continue;
            };
            let round_total: f64 = pass
                .spans
                .iter()
                .filter(|s| s.0.starts_with("round"))
                .map(|s| s.2)
                .sum();
            println!(
                "\nLayer table of {} (traced pass, {:.1} ms in measured rounds; \
                 traced/untraced throughput {:.3}; trace in out/trace_{}.json)",
                workload.name,
                round_total / 1e6,
                self.overhead_ratio(workload.name),
                workload.name
            );
            println!(
                "  {:<34} {:>9} {:>12} {:>12} {:>8}",
                "span", "count", "total ms", "self ms", "share"
            );
            let mut tiled = 0.0;
            for (name, count, total, own) in &pass.spans {
                let residual = name.starts_with("round");
                tiled += own;
                println!(
                    "  {:<34} {:>9} {:>12.3} {:>12.3} {:>7.1}%{}",
                    name,
                    count,
                    total / 1e6,
                    own / 1e6,
                    own / round_total * 100.0,
                    if residual { "  (residual)" } else { "" }
                );
            }
            println!(
                "  {:<34} {:>9} {:>12} {:>12.3} {:>7.1}%",
                "sum of self times",
                "",
                "",
                tiled / 1e6,
                tiled / round_total * 100.0
            );
            for (name, value) in &pass.layer {
                println!("  {name:<44} {value:>16.4}");
            }
        }
        let rows = self.per_layer();
        println!(
            "\nPer-layer metrics (host has {} cores)",
            crate::host::cores()
        );
        println!(
            "  {:<38} {:>16} {:<6} {:<7} should move",
            "metric", "value", "unit", "better"
        );
        for metric in &PER_LAYER {
            println!(
                "  {:<38} {:>16.4} {:<6} {:<7} {}",
                metric.name,
                rows.get(metric.name).copied().unwrap_or(f64::NAN),
                metric.unit,
                if metric.better == crate::spec::Better::Lower {
                    "lower"
                } else {
                    "higher"
                },
                metric.moves
            );
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Tally;
    use crate::spec::WORKLOADS;

    fn pass(ops: f64, hits: u64) -> PassReport {
        PassReport {
            setup_s: 0.2,
            ops_per_s: vec![ops, ops * 1.1],
            p50_us: vec![8.0],
            sla_1ms: vec![0.9],
            tally: Tally {
                attempted: 100,
                failed: 0,
                gets: 50,
                hits,
            },
            vm_hwm_kb: 2048,
            ..PassReport::new("live_model_get")
        }
    }

    #[test]
    fn aggregate_takes_medians_over_all_rounds_of_all_passes() {
        let live = &WORKLOADS[3];
        let a = Aggregate::new(
            live,
            9,
            &[pass(100.0, 40), pass(200.0, 40), pass(300.0, 40)],
        );
        assert!(a.correct(), "{:?}", a.problems);
        assert_eq!(a.throughput_rounds, 6);
        // rounds: 100 110 200 220 300 330 → median 210.
        assert_eq!(a.values[1], 210.0);
        assert_eq!(a.values[4], 0.8);
        assert_eq!(a.values[5], 2.0);
        assert_eq!((a.attempted, a.failed), (300, 0));
        let line = a.result_line();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics["ops_per_s"].get("unit").and_then(Json::as_str),
            Some("1/s")
        );
    }

    #[test]
    fn a_failed_operation_or_a_moving_hit_count_is_incorrect() {
        let live = &WORKLOADS[3];
        let mut bad = pass(100.0, 40);
        bad.tally.failed = 1;
        assert!(!Aggregate::new(live, 9, &[pass(100.0, 40), bad]).correct());
        assert!(!Aggregate::new(live, 9, &[pass(100.0, 40), pass(100.0, 41)]).correct());
    }

    #[test]
    fn a_digest_mismatch_fails_every_operation() {
        let sim = &WORKLOADS[1];
        let digested = |digest: &str| PassReport {
            digest_first: Some(digest.into()),
            digest_all: Some(digest.into()),
            ..pass(100.0, 40)
        };
        let ok = Aggregate::new(sim, 9, &[digested("aa"), digested("aa")]);
        assert!(ok.correct(), "{:?}", ok.problems);
        let bad = Aggregate::new(sim, 9, &[digested("aa"), digested("ab")]);
        assert!(!bad.correct());
        assert_eq!(bad.failed, bad.attempted);
    }

    #[test]
    fn selfcheck_flags_only_worsening_beyond_the_bound() {
        let live = &WORKLOADS[3];
        let base = Aggregate::new(live, 9, &[pass(100.0, 40)]);
        let faster = Aggregate::new(live, 9, &[pass(150.0, 40)]);
        let slower = Aggregate::new(live, 9, &[pass(60.0, 40)]);
        assert!(print_selfcheck(std::slice::from_ref(&base), &[faster]));
        assert!(!print_selfcheck(&[base], &[slower]));
    }
}
