//! The subcommands of `densekv-bench`, in one table.
//!
//! The paper's evaluation is seven `PAPER_STAGES`. Each is a
//! subcommand of its own, and `all` runs the seven concurrently under
//! `--jobs` / `DENSEKV_JOBS`, each stage fanning its own points out over
//! the same worker budget. Emission happens after the join, in a fixed
//! stage order, so the artifacts are byte-identical at any `--jobs` and
//! to what the seven subcommands write one by one. The tabular
//! extensions (`EXTENSIONS`) have the same shape; the rest
//! (`RUNS`) write non-tabular artifacts or drive the live plane.

use densekv::experiments::{
    ablations, cluster, efficiency, evaluation, fig4, fig56, fig78, headline, multiget, scaling,
    sla, tables, thermal,
};
use densekv::paper::{IRIDIUM_HEADLINE, MERCURY_HEADLINE, TABLE4_IRIDIUM, TABLE4_MERCURY};
use densekv::report::TextTable;
use densekv_par::par_map;

use crate::{effort, emit, jobs};

/// A stage's work: the `(name, table)` artifacts to emit, in order.
pub type Stage = fn() -> Vec<(String, TextTable)>;

/// The paper's evaluation: Tables 1–4, Figs. 4–8, the §6 headline and
/// digest, the §6.5 thermal check and the ablations. Together they are
/// `all`, and EXPERIMENTS.md is produced from them.
pub(crate) const PAPER_STAGES: [(&str, Stage); 7] = [
    ("tables", || {
        let mut out = one("table1", tables::table1());
        out.extend(one("table2", tables::table2()));
        out
    }),
    ("fig4", || {
        let tables = fig4::run(effort(), jobs()).tables().into_iter();
        tables
            .zip(["fig4a", "fig4b"])
            .map(|(t, name)| (name.to_owned(), t))
            .collect()
    }),
    ("fig5", || {
        numbered("fig5_panel", fig56::fig5(effort(), jobs()).tables())
    }),
    ("fig6", || {
        numbered("fig6_panel", fig56::fig6(effort(), jobs()).tables())
    }),
    ("grid", grid),
    ("thermal", || {
        one("thermal", thermal::table(&thermal::run(jobs())))
    }),
    ("ablations", || {
        one("ablations", ablations::run(effort(), jobs()))
    }),
];

/// The extension experiments that write one table each.
pub(crate) const EXTENSIONS: [(&str, Stage); 6] = [
    ("sla", || {
        one("sla", sla::table(&sla::run(effort(), jobs())))
    }),
    ("scaling", || {
        one("scaling", scaling::table(&scaling::run(jobs())))
    }),
    ("efficiency", || {
        one(
            "efficiency",
            efficiency::table(&efficiency::run(effort(), jobs())),
        )
    }),
    ("multiget", || {
        one("multiget", multiget::table(&multiget::run(jobs())))
    }),
    ("cluster_tail", || {
        one(
            "cluster_tail",
            cluster::tail_table(&cluster::cluster_tail(effort(), jobs())),
        )
    }),
    ("cluster_failover", || {
        one(
            "cluster_failover",
            cluster::failover_table(&cluster::cluster_failover(effort())),
        )
    }),
];

/// The subcommands that are not one stage: `all`, the replays that
/// write traces and raw CSVs, and the live plane.
pub(crate) const RUNS: [(&str, fn()); 9] = [
    ("all", all),
    ("trace_run", crate::trace_run::run),
    ("energy_run", crate::energy_run::run),
    ("hybrid_run", crate::hybrid_run::run),
    ("serve_run", crate::serve_run::run),
    ("serve_validate", crate::serve_validate::run),
    ("serve_obs", crate::serve_obs::run),
    ("lock_scaling", crate::lock_scaling::run),
    ("top", crate::top::run),
];

fn stages() -> impl Iterator<Item = &'static (&'static str, Stage)> {
    PAPER_STAGES.iter().chain(&EXTENSIONS)
}

/// Every subcommand name, in usage order.
pub fn names() -> impl Iterator<Item = &'static str> {
    let runs = RUNS.iter().map(|(name, _)| *name);
    stages().map(|(name, _)| *name).chain(runs)
}

/// Runs the subcommand called `name`; false if there is none.
pub fn run(name: &str) -> bool {
    if let Some((_, stage)) = stages().find(|(n, _)| *n == name) {
        emit_all(stage());
    } else if let Some((_, run)) = RUNS.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        return false;
    }
    true
}

fn emit_all(tables: Vec<(String, TextTable)>) {
    for (name, table) in tables {
        emit(&name, &table);
    }
}

fn one(name: &str, table: TextTable) -> Vec<(String, TextTable)> {
    vec![(name.to_owned(), table)]
}

/// `tables` named `{prefix}0`, `{prefix}1`, …
fn numbered(prefix: &str, tables: Vec<TextTable>) -> Vec<(String, TextTable)> {
    let named = tables.into_iter().enumerate();
    named.map(|(i, t)| (format!("{prefix}{i}"), t)).collect()
}

/// Every paper stage at once, emitted in stage order after the join.
fn all() {
    for (name, _) in &PAPER_STAGES {
        eprintln!("[densekv-bench] queued: {name}");
    }
    let results = par_map(jobs(), &PAPER_STAGES, |(name, stage)| {
        let tables = stage();
        eprintln!("[densekv-bench] finished: {name}");
        tables
    });
    for tables in results {
        emit_all(tables);
    }
}

/// The evaluation grid: table 3, figs 7–8, table 4, the headline
/// multipliers, and the paper-vs-measured digest all share one grid.
fn grid() -> Vec<(String, TextTable)> {
    let evals = evaluation::evaluate_all(effort(), jobs());
    let mut out = numbered("table3_", tables::table3(&evals));
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
    let mut row = |what: &str, paper: String, measured: String| {
        digest.row(vec![what.into(), paper, measured]);
    };
    let (tm, ti) = (&TABLE4_MERCURY[2], &TABLE4_IRIDIUM[2]);
    for paper in [tm, ti] {
        if let Some(r) = t4.row(paper.name) {
            let what = format!("{} TPS (M)", paper.name);
            row(
                &what,
                format!("{:.2}", paper.mtps),
                format!("{:.2}", r.mtps),
            );
        }
    }
    if let (Some(m), Some(i)) = (t4.row(tm.name), t4.row(ti.name)) {
        for (what, paper, value, digits) in [
            ("Mercury-32 KTPS/W", tm.ktps_per_watt, m.ktps_per_watt, 2),
            ("Iridium-32 KTPS/W", ti.ktps_per_watt, i.ktps_per_watt, 2),
            ("Mercury-32 memory (GB)", tm.memory_gb, m.memory_gb, 0),
            ("Iridium-32 memory (GB)", ti.memory_gb, i.memory_gb, 0),
        ] {
            row(
                what,
                format!("{paper:.digits$}"),
                format!("{value:.digits$}"),
            );
        }
    }
    let (m, i) = (&hl.mercury, &hl.iridium);
    let (hm, hi) = (MERCURY_HEADLINE, IRIDIUM_HEADLINE);
    row(
        "Mercury headline (density/TPS-W/TPS/TPS-GB)",
        format!(
            "{}x / {}x / {}x / {}x",
            hm.density, hm.efficiency, hm.throughput, hm.tps_per_gb
        ),
        format!(
            "{:.1}x / {:.1}x / {:.1}x / {:.1}x",
            m.density, m.efficiency, m.throughput, m.tps_per_gb
        ),
    );
    row(
        "Iridium headline (density/TPS-W/TPS/1 per TPS-GB)",
        format!(
            "{}x / {}x / {}x / 1/{}x",
            hi.density,
            hi.efficiency,
            hi.throughput,
            1.0 / hi.tps_per_gb
        ),
        format!(
            "{:.1}x / {:.1}x / {:.1}x / 1/{:.1}x",
            i.density,
            i.efficiency,
            i.throughput,
            1.0 / i.tps_per_gb
        ),
    );
    digest
}
