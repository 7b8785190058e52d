//! What one pass of one workload reports. A pass runs in a child
//! process (so set-up and peak memory are a fresh process's) and
//! prints this as one JSON line for the parent to aggregate.

use std::collections::BTreeMap;

use crate::client::Tally;
use crate::json::Json;
use crate::trace::Tracer;

/// FNV-1a over the bit patterns of simulated statistics: any change in
/// any digit of any statistic changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One pass of one workload.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    pub workload: String,
    pub setup_s: f64,
    /// Operations per host second, one value per throughput round.
    pub ops_per_s: Vec<f64>,
    /// Median latency in µs, one value per latency round (a simulator
    /// pass has one: its whole simulated distribution).
    pub p50_us: Vec<f64>,
    /// Share of attempted requests answered correctly within 1 ms, per
    /// latency round.
    pub sla_1ms: Vec<f64>,
    /// Counts over the measured rounds; `attempted` and `failed` also
    /// include set-up and the final sweep.
    pub tally: Tally,
    pub vm_hwm_kb: u64,
    /// Digest of the first measured round's simulated statistics: does
    /// not depend on how many rounds ran, so it can be checked in.
    pub digest_first: Option<String>,
    /// Digest over every measured round.
    pub digest_all: Option<String>,
    /// Per-layer values this pass measured, by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Span summary of a traced pass: name, count, total ns, self ns.
    pub spans: Vec<(String, u64, f64, f64)>,
}

impl PassReport {
    pub fn new(workload: &str) -> PassReport {
        PassReport {
            workload: workload.to_owned(),
            ..PassReport::default()
        }
    }

    pub fn take_spans(&mut self, tracer: &Tracer) {
        self.spans = tracer
            .summary()
            .into_iter()
            .map(|(name, count, total, own)| (name.to_owned(), count, total, own))
            .collect();
    }

    pub fn to_json(&self) -> Json {
        let opt = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("setup_s", Json::Num(self.setup_s)),
            ("ops_per_s", Json::nums(&self.ops_per_s)),
            ("p50_us", Json::nums(&self.p50_us)),
            ("sla_1ms", Json::nums(&self.sla_1ms)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("gets", Json::Num(self.tally.gets as f64)),
            ("hits", Json::Num(self.tally.hits as f64)),
            ("vm_hwm_kb", Json::Num(self.vm_hwm_kb as f64)),
            ("digest_first", opt(&self.digest_first)),
            ("digest_all", opt(&self.digest_all)),
            (
                "layer",
                Json::obj(self.layer.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            (
                "spans",
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|(name, count, total, own)| {
                            Json::Arr(vec![
                                Json::Str(name.clone()),
                                Json::Num(*count as f64),
                                Json::Num(*total),
                                Json::Num(*own),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<PassReport, String> {
        let text = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_owned);
        let count = |key: &str| doc.num(key).map(|n| n as u64);
        let mut spans = Vec::new();
        for row in doc.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            let row = row.as_arr().ok_or("span row is not an array")?;
            match row {
                [Json::Str(name), Json::Num(count), Json::Num(total), Json::Num(own)] => {
                    spans.push((name.clone(), *count as u64, *total, *own));
                }
                _ => return Err("malformed span row".into()),
            }
        }
        Ok(PassReport {
            workload: text("workload").ok_or("missing `workload`")?,
            setup_s: doc.num("setup_s")?,
            ops_per_s: doc.f64s("ops_per_s"),
            p50_us: doc.f64s("p50_us"),
            sla_1ms: doc.f64s("sla_1ms"),
            tally: Tally {
                attempted: count("attempted")?,
                failed: count("failed")?,
                gets: count("gets")?,
                hits: count("hits")?,
            },
            vm_hwm_kb: count("vm_hwm_kb")?,
            digest_first: text("digest_first"),
            digest_all: text("digest_all"),
            layer: doc
                .get("layer")
                .and_then(Json::as_obj)
                .map(|map| {
                    map.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default(),
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_survives_the_pipe() {
        let mut report = PassReport::new("sim_core_replay");
        report.setup_s = 0.1234567891234;
        report.ops_per_s = vec![1.5e5, 1.6e5];
        report.p50_us = vec![92.123456];
        report.sla_1ms = vec![0.999];
        report.tally = Tally {
            attempted: 10,
            failed: 1,
            gets: 8,
            hits: 7,
        };
        report.vm_hwm_kb = 4096;
        report.digest_first = Some(Digest::new().hex());
        report.layer.insert("cluster.p99_us".into(), 385.14);
        report.spans.push(("round".into(), 2, 1.0e9, 2.0e6));
        let line = report.to_json().render();
        assert!(!line.contains('\n'));
        let back = PassReport::from_json(&crate::json::parse(&line).unwrap()).unwrap();
        assert_eq!(back.to_json(), report.to_json());
        assert_eq!(back.digest_all, None);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b);
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }
}
