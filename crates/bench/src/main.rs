//! `densekv-bench <experiment> [--jobs N]`: regenerates one table,
//! figure or extension of the paper, or `all` of the paper's stages in
//! one pass (the run EXPERIMENTS.md is produced from). The subcommands
//! are listed in `densekv_bench::stages`.

use densekv_bench::{stages, Args};

/// Prints what went wrong and the usage text, and exits 2.
fn usage(error: &str) -> ! {
    let names: Vec<_> = stages::names().collect();
    eprintln!(
        "densekv-bench: {error}\n\
         usage: densekv-bench <experiment> [--jobs N]\n\
         \x20      densekv-bench top [--jobs N] [--addr HOST:PORT] [--frames N] [--interval-ms M]\n\
         experiments: {}",
        names.join(" ")
    );
    std::process::exit(2)
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    if !stages::run(&args.experiment) {
        usage(&format!("unknown experiment `{}`", args.experiment));
    }
}
