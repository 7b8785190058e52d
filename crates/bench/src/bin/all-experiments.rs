//! Regenerates every table and figure in one pass, sharing the expensive
//! evaluation grid, and prints a measured-vs-paper summary. This is the
//! binary EXPERIMENTS.md is produced from.
//!
//! The independent top-level stages (static tables, breakdowns, latency
//! figures, the evaluation grid, thermal, ablations) run concurrently
//! under `--jobs` / `DENSEKV_JOBS`, each stage fanning its own points
//! out over the same worker budget. Emission happens after the join, in a fixed
//! stage order, so the artifacts are byte-identical at any `--jobs`.

use densekv::experiments::{ablations, evaluation, fig4, fig56, fig78, headline, tables, thermal};
use densekv::report::TextTable;
use densekv::sweep::SweepEffort;
use densekv_par::{par_map, Jobs};

/// One deferred stage: a label for progress logging plus the work, which
/// returns the `(name, table)` artifacts to emit in order.
type Stage = (
    &'static str,
    Box<dyn Fn() -> Vec<(String, TextTable)> + Sync>,
);

fn emit_named(tables: Vec<(String, TextTable)>) {
    for (name, table) in tables {
        densekv_bench::emit(&name, &table);
    }
}

/// The evaluation-grid stage: table 3, figs 7–8, table 4, the headline
/// multipliers, and the paper-vs-measured digest all share one grid.
fn grid_stage(effort: SweepEffort, jobs: Jobs) -> Vec<(String, TextTable)> {
    let evals = evaluation::evaluate_all(effort, jobs);
    let mut out = Vec::new();
    for (i, table) in tables::table3(&evals).into_iter().enumerate() {
        out.push((format!("table3_{i}"), table));
    }
    let (f7a, f7b) = fig78::fig7(&evals);
    out.push(("fig7a".to_owned(), f7a.table(true)));
    out.push(("fig7b".to_owned(), f7b.table(true)));
    let (f8a, f8b) = fig78::fig8(&evals);
    out.push(("fig8a".to_owned(), f8a.table(false)));
    out.push(("fig8b".to_owned(), f8b.table(false)));

    let t4 = tables::table4(&evals);
    out.push(("table4".to_owned(), t4.table()));
    let hl = headline::run(&t4);
    out.push(("headline".to_owned(), hl.table()));
    out.push(("digest".to_owned(), digest(&t4, &hl)));
    out
}

/// Paper-vs-measured digest for EXPERIMENTS.md.
fn digest(t4: &tables::Table4, hl: &headline::HeadlineReport) -> TextTable {
    let mut digest = TextTable::new(vec!["quantity".into(), "paper".into(), "measured".into()])
        .with_title("Paper vs. measured digest");
    let row = |t: &mut TextTable, what: &str, paper: String, measured: String| {
        t.row(vec![what.into(), paper, measured]);
    };
    for (name, paper) in [("Mercury-32 TPS (M)", 32.70), ("Iridium-32 TPS (M)", 16.49)] {
        let sys = name.split(' ').next().expect("name");
        if let Some(r) = t4.row(sys) {
            row(
                &mut digest,
                name,
                format!("{paper:.2}"),
                format!("{:.2}", r.mtps),
            );
        }
    }
    if let (Some(m), Some(i)) = (t4.row("Mercury-32"), t4.row("Iridium-32")) {
        row(
            &mut digest,
            "Mercury-32 KTPS/W",
            "54.77".into(),
            format!("{:.2}", m.ktps_per_watt),
        );
        row(
            &mut digest,
            "Iridium-32 KTPS/W",
            "26.98".into(),
            format!("{:.2}", i.ktps_per_watt),
        );
        row(
            &mut digest,
            "Mercury-32 memory (GB)",
            "372".into(),
            format!("{:.0}", m.memory_gb),
        );
        row(
            &mut digest,
            "Iridium-32 memory (GB)",
            "1901".into(),
            format!("{:.0}", i.memory_gb),
        );
    }
    row(
        &mut digest,
        "Mercury headline (density/TPS-W/TPS/TPS-GB)",
        "2.9x / 4.9x / 10x / 3.5x".into(),
        format!(
            "{:.1}x / {:.1}x / {:.1}x / {:.1}x",
            hl.mercury.density, hl.mercury.efficiency, hl.mercury.throughput, hl.mercury.tps_per_gb
        ),
    );
    row(
        &mut digest,
        "Iridium headline (density/TPS-W/TPS/1 per TPS-GB)",
        "14.8x / 2.4x / 5.2x / 1/2.8x".into(),
        format!(
            "{:.1}x / {:.1}x / {:.1}x / 1/{:.1}x",
            hl.iridium.density,
            hl.iridium.efficiency,
            hl.iridium.throughput,
            1.0 / hl.iridium.tps_per_gb
        ),
    );
    digest
}

fn main() {
    let effort = densekv_bench::effort();
    let jobs = densekv_bench::jobs();

    let stages: Vec<Stage> = vec![
        (
            "static tables",
            Box::new(|| {
                vec![
                    ("table1".to_owned(), tables::table1()),
                    ("table2".to_owned(), tables::table2()),
                ]
            }),
        ),
        (
            "fig 4 (breakdowns)",
            Box::new(move || {
                fig4::run(effort, jobs)
                    .tables()
                    .into_iter()
                    .zip(['a', 'b'])
                    .map(|(t, suffix)| (format!("fig4{suffix}"), t))
                    .collect()
            }),
        ),
        (
            "fig 5 (Mercury-1 latency sweep)",
            Box::new(move || {
                fig56::fig5(effort, jobs)
                    .tables()
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| (format!("fig5_panel{i}"), t))
                    .collect()
            }),
        ),
        (
            "fig 6 (Iridium-1 latency sweep)",
            Box::new(move || {
                fig56::fig6(effort, jobs)
                    .tables()
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| (format!("fig6_panel{i}"), t))
                    .collect()
            }),
        ),
        (
            "full evaluation grid (table 3, figs 7-8, table 4, headline)",
            Box::new(move || grid_stage(effort, jobs)),
        ),
        (
            "thermal",
            Box::new(move || {
                let rows = thermal::run(jobs);
                vec![("thermal".to_owned(), thermal::table(&rows))]
            }),
        ),
        (
            "ablations",
            Box::new(move || vec![("ablations".to_owned(), ablations::run(effort, jobs))]),
        ),
    ];

    for (label, _) in &stages {
        eprintln!("[densekv-bench] queued: {label}");
    }
    let results = par_map(jobs, &stages, |(label, work)| {
        let tables = work();
        eprintln!("[densekv-bench] finished: {label}");
        tables
    });
    for tables in results {
        emit_named(tables);
    }
}
