//! Real-thread lock scaling of the live server's store: Table 4's
//! global-lock, striped + global-LRU and Bags designs plus a strict-LRU
//! striped row, over both backends (`densekv_bench::lock_scaling`).
//! `results/lock_scaling.csv` records absolute throughput and the
//! scaling over one thread per backend and variant; a thread count the
//! host has too few cores for reads `skipped_insufficient_cores`.

use std::time::Duration;

use densekv::report::TextTable;
use densekv_bench::lock_scaling::{measure, Variant, SKIPPED};
use densekv_serve::BackendKind;

fn main() {
    let quick = std::env::var("DENSEKV_QUICK").is_ok_and(|v| v != "0");
    let duration = Duration::from_millis(if quick { 40 } else { 300 });
    let reps = if quick { 1 } else { 5 };

    let mut table = TextTable::new(vec![
        "backend".into(),
        "variant".into(),
        "threads".into(),
        "ops_per_sec".into(),
        "scaling_x".into(),
    ]);
    for backend in [BackendKind::Model, BackendKind::Engine] {
        for variant in Variant::ALL {
            let mut base = 0.0;
            for threads in [1, 2, 4, 8] {
                let row = |ops: String, scaling: String| {
                    vec![
                        backend.as_str().into(),
                        variant.label().into(),
                        threads.to_string(),
                        ops,
                        scaling,
                    ]
                };
                // Median of `reps` runs: it shrugs off a scheduler
                // hiccup that would skew a mean.
                let samples: Option<Vec<f64>> = (0..reps)
                    .map(|_| measure(backend, variant, threads, duration))
                    .collect();
                let Some(mut samples) = samples else {
                    table.row(row(SKIPPED.into(), SKIPPED.into()));
                    continue;
                };
                samples.sort_by(f64::total_cmp);
                let ops = samples[samples.len() / 2];
                if threads == 1 {
                    base = ops;
                }
                table.row(row(format!("{ops:.0}"), format!("{:.2}", ops / base)));
            }
        }
    }
    densekv_bench::emit("lock_scaling", &table);
}
