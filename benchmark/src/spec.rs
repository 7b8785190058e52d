//! The benchmark's fixed vocabulary: workload names, metric names,
//! units, directions and bounds. `BENCHMARK.json` at the repository
//! root says the same thing for the driver; a unit test keeps the two
//! from drifting apart.

/// Child passes per run: each workload is set up this many times, and
/// its rounds are spread over the whole run.
pub const PASSES: u32 = 5;

/// Measured seconds per workload when `--seconds` is not given.
pub const DEFAULT_SECONDS: u32 = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Host seconds one measured round takes on the reference host; a
    /// pass runs `seconds / PASSES / round_s` rounds, at least one.
    /// Rounds have a fixed operation count, so `--seconds` scales the
    /// number of rounds, not their length, and counts repeat exactly.
    pub round_s: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_paper_sweep",
        round_s: 0.23,
    },
    Workload {
        name: "sim_core_replay",
        round_s: 0.33,
    },
    Workload {
        name: "sim_cluster_tail",
        round_s: 0.42,
    },
    Workload {
        name: "live_model_get",
        round_s: 0.45,
    },
    Workload {
        name: "live_engine_churn",
        round_s: 0.45,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn rounds_per_pass(&self, seconds: u32) -> u32 {
        ((f64::from(seconds) / f64::from(PASSES) / self.round_s) as u32).max(1)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sla_1ms_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "hit_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

impl EndToEnd {
    /// By what share of `baseline` the value `now` is worse (negative
    /// when it is better).
    pub fn worsening(&self, baseline: f64, now: f64) -> f64 {
        match self.better {
            Better::Lower => (now - baseline) / baseline.abs(),
            Better::Higher => (baseline - now) / baseline.abs(),
        }
    }
}

/// A per-layer metric: its unit, its good direction, and what it is
/// expected to move (the interaction table of the README, in short).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const CLUSTER: &str = "sim_cluster_tail/ops_per_s";
const CLUSTER_SLA: &str = "sim_cluster_tail/{ops_per_s,sla_1ms_ratio}";
const REPLAY: &str = "sim_core_replay/ops_per_s";
const SWEEP: &str = "sim_paper_sweep/ops_per_s";
const MODEL: &str = "live_model_get/{ops_per_s,p50_us}; sim_core_replay/ops_per_s";
const ENGINE: &str = "live_engine_churn/{ops_per_s,hit_ratio,peak_rss_mb}";
const LIVE: &str = "live_*/{ops_per_s,p50_us}";
const NONE: &str = "none (context)";

pub const PER_LAYER: [PerLayer; 66] = [
    row("sim.sched_ns_per_event", "ns", Lower, CLUSTER),
    row("sim.sched_peak_len", "count", Lower, CLUSTER),
    row("sim.rng_ns_per_draw", "ns", Lower, CLUSTER),
    row(
        "workload.ns_per_request",
        "ns",
        Lower,
        "sim_core_replay/ops_per_s; sim_cluster_tail/ops_per_s",
    ),
    row("dht.ns_per_lookup", "ns", Lower, CLUSTER),
    row("cluster.ns_per_request", "ns", Lower, CLUSTER_SLA),
    row("cluster.events_per_request", "count", Lower, CLUSTER_SLA),
    row(
        "cluster.p99_us",
        "us",
        Lower,
        "sim_cluster_tail/sla_1ms_ratio",
    ),
    row("core.ns_per_request_64b", "ns", Lower, REPLAY),
    row(
        "core.ns_per_request_4kb",
        "ns",
        Lower,
        "sim_core_replay, sim_paper_sweep/ops_per_s",
    ),
    row("core.ns_per_request_1mb", "ns", Lower, SWEEP),
    row("core.replay_ns_per_request", "ns", Lower, REPLAY),
    row(
        "core.cache_accesses_per_request",
        "count",
        Lower,
        "must not move under a speed-up",
    ),
    row(
        "core.dram_lines_per_request",
        "count",
        Lower,
        "must not move under a speed-up",
    ),
    row(
        "core.residual_share",
        "ratio",
        Lower,
        "cpu model + core glue; sim_core_replay/ops_per_s",
    ),
    row("cpu.ns_per_cache_access", "ns", Lower, SWEEP),
    row(
        "cpu.l1_hit_ratio",
        "ratio",
        Higher,
        "must not move under a speed-up",
    ),
    row(
        "cpu.l2_hit_ratio",
        "ratio",
        Higher,
        "must not move under a speed-up",
    ),
    row("mem.dram_ns_per_line", "ns", Lower, SWEEP),
    row("mem.flash_ns_per_page_read", "ns", Lower, SWEEP),
    row("mem.ftl_ns_per_page_write", "ns", Lower, SWEEP),
    row(
        "mem.ftl_write_amp",
        "ratio",
        Lower,
        "must not move under a speed-up",
    ),
    row("hybrid.ns_per_access", "ns", Lower, SWEEP),
    row(
        "hybrid.tier_hit_ratio",
        "ratio",
        Higher,
        "must not move under a speed-up",
    ),
    row("net.ns_per_exchange_cost", "ns", Lower, REPLAY),
    row("telemetry.observer_overhead_ratio", "ratio", Lower, NONE),
    row("energy.observer_overhead_ratio", "ratio", Lower, NONE),
    row("kv.parse_ns_per_cmd", "ns", Lower, MODEL),
    row("kv.render_ns_per_reply", "ns", Lower, MODEL),
    row("kv.get_ns", "ns", Lower, MODEL),
    row("kv.set_ns", "ns", Lower, MODEL),
    row("kv.evictions_per_set", "count", Lower, NONE),
    row(
        "kv.charged_bytes_per_user_byte",
        "ratio",
        Lower,
        "live_model_get/peak_rss_mb",
    ),
    row("engine.get_ns", "ns", Lower, ENGINE),
    row("engine.set_ns", "ns", Lower, ENGINE),
    row("engine.evictions_per_set", "count", Lower, ENGINE),
    row("engine.probe_len_mean", "count", Lower, ENGINE),
    row("engine.doublings", "count", Lower, ENGINE),
    row("engine.charged_bytes_per_user_byte", "ratio", Lower, ENGINE),
    row("serve.dispatch_ns_per_cmd", "ns", Lower, LIVE),
    row("serve.dispatch_timed_ns_per_cmd", "ns", Lower, LIVE),
    row("serve.metrics_overhead_ratio", "ratio", Lower, LIVE),
    row("serve.cpu_us_per_op", "us", Lower, LIVE),
    row("serve.sleeps_per_kop", "count", Lower, LIVE),
    row("serve.sleeps_per_kop_d1", "count", Lower, NONE),
    row("serve.bytes_out_per_op", "B", Lower, LIVE),
    row("serve.lock_wait_share", "ratio", Lower, LIVE),
    row("serve.lock_contended_ratio", "ratio", Lower, LIVE),
    row("serve.protocol_errors", "count", Lower, "failed operations"),
    row(
        "loadgen.build_ns_per_op",
        "ns",
        Lower,
        "the benchmark's own cost",
    ),
    row(
        "loadgen.socket_write_ns_per_op",
        "ns",
        Lower,
        "the benchmark's own cost",
    ),
    row("loadgen.socket_read_wait_ns_per_op", "ns", Lower, LIVE),
    row(
        "loadgen.check_ns_per_op",
        "ns",
        Lower,
        "the benchmark's own cost",
    ),
    row(
        "loadgen.late_us_p99",
        "us",
        Lower,
        "host (how late the generator ran)",
    ),
    row("loadgen.p99_us", "us", Lower, "host (4 ms quanta)"),
    row(
        "loadgen.p50_us_r10k",
        "us",
        Lower,
        "host (wake-up of an idle vCPU)",
    ),
    row(
        "loadgen.p50_us_r30k",
        "us",
        Lower,
        "host (wake-up of an idle vCPU)",
    ),
    row(
        "loadgen.p50_us_r100k",
        "us",
        Lower,
        "host (wake-up of an idle vCPU)",
    ),
    row(
        "loadgen.rtt_d1_p50_us",
        "us",
        Lower,
        "host (thread wake-ups)",
    ),
    row("loadgen.stall_share_open_loop", "ratio", Lower, "host"),
    row(
        "loadgen.round_ns_per_op",
        "ns",
        Lower,
        "1e9 / live_model_get/ops_per_s of the traced pass",
    ),
    row(
        "loadgen.layer_residual_share",
        "ratio",
        Lower,
        "kernel and wake-ups",
    ),
    row("host.stall_share_1t", "ratio", Lower, "host"),
    row("host.stall_share_2t", "ratio", Lower, "host"),
    row("host.cores", "count", Higher, "host"),
    row(
        "trace.overhead_ratio",
        "ratio",
        Higher,
        "the traced pass's cost",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("an array")
            .iter()
            .map(|item| {
                item.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_code_measures() {
        let doc = benchmark_json();
        assert_eq!(names(&doc, "workloads"), WORKLOADS.map(|w| w.name));
        assert_eq!(names(&doc, "end_to_end"), END_TO_END.map(|m| m.name));
        assert_eq!(names(&doc, "per_layer"), PER_LAYER.map(|m| m.name));
        for (item, metric) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(END_TO_END)
        {
            assert_eq!(item.get("unit").unwrap().as_str(), Some(metric.unit));
            assert_eq!(item.get("bound").unwrap().as_f64(), Some(metric.bound));
            let better = if metric.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(item.get("better").unwrap().as_str(), Some(better));
        }
        for (item, metric) in doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(
                item.get("unit").unwrap().as_str(),
                Some(metric.unit),
                "{}",
                metric.name
            );
            let better = if metric.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(
                item.get("better").unwrap().as_str(),
                Some(better),
                "{}",
                metric.name
            );
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(f64::from(DEFAULT_SECONDS))
        );
    }

    #[test]
    fn rounds_scale_with_seconds_and_never_reach_zero() {
        let sweep = workload("sim_paper_sweep").unwrap();
        assert_eq!(sweep.rounds_per_pass(1), 1);
        assert!(sweep.rounds_per_pass(12) > sweep.rounds_per_pass(6));
        assert!(workload("nope").is_none());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END[0];
        let higher = END_TO_END[1];
        assert!((lower.worsening(1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((higher.worsening(100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(higher.worsening(100.0, 120.0) < 0.0);
    }
}
