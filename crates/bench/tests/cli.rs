//! The `densekv-bench` command line itself: a missing or unknown
//! subcommand is a usage error that names every subcommand.

use std::collections::HashSet;
use std::process::Command;

use densekv_bench::stages;

#[test]
fn usage_errors_exit_2_and_list_every_subcommand() {
    let names: Vec<_> = stages::names().collect();
    let unique: HashSet<_> = names.iter().collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "duplicate subcommand in {names:?}"
    );

    for args in [&[][..], &["no_such_experiment"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_densekv-bench"))
            .args(args)
            .output()
            .expect("densekv-bench starts");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let listed: HashSet<_> = stderr
            .lines()
            .find_map(|line| line.strip_prefix("experiments: "))
            .unwrap_or_else(|| panic!("no subcommand list for {args:?}:\n{stderr}"))
            .split(' ')
            .collect();
        for name in &names {
            assert!(listed.contains(name), "{args:?}: `{name}` not listed");
        }
    }
}
