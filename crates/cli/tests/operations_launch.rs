//! The launch command in `docs/OPERATIONS.md` ("Starting the daemon") is
//! run through the real `mmd-cli` argument parser, so the documented
//! flags cannot drift from the ones the launcher accepts.

use mmd_cli::args::{parse, Command};
use mmd_core::DegradeAction;
use std::path::Path;

fn operations_doc() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/OPERATIONS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The first fenced `sh` block under the "Starting the daemon" heading,
/// with `\` continuations joined into one command line.
fn launch_command(doc: &str) -> String {
    let section = doc
        .split_once("## Starting the daemon")
        .expect("OPERATIONS.md has a \"Starting the daemon\" section")
        .1;
    let block = section
        .split_once("```sh\n")
        .and_then(|(_, rest)| rest.split_once("```"))
        .expect("the section opens with a ```sh block")
        .0;
    block
        .lines()
        .map(|line| line.trim().trim_end_matches('\\').trim())
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn documented_launch_command_parses_to_the_documented_values() {
    let command = launch_command(&operations_doc());
    let argv: Vec<String> = command.split_whitespace().map(str::to_string).collect();
    assert_eq!(
        argv.get(..2),
        Some(&["mmd-cli".to_string(), "serve".to_string()][..]),
        "the documented launcher is `mmd-cli serve`: {command}"
    );
    let parsed = parse(&argv[1..]).unwrap_or_else(|e| panic!("{command}: {e}"));
    let Command::Serve {
        input,
        addr,
        queue,
        max_batch,
        shard_size,
        super_shards,
        threads,
        budget,
    } = parsed
    else {
        panic!("not a serve command: {parsed:?}");
    };
    assert_eq!(input, "catalog.json");
    assert_eq!(addr, "127.0.0.1:7411");
    assert_eq!(shard_size, 64);
    assert_eq!(threads, 0);
    assert_eq!(budget.soft_ms, Some(50));
    assert_eq!(budget.hard_ms, Some(200));
    assert_eq!(budget.action, DegradeAction::ShedToCache);
    // Flags the block leaves out keep their defaults.
    assert_eq!((queue, max_batch, super_shards), (64, 1024, 0));
    assert_eq!((budget.soft_work, budget.hard_work), (None, None));
}
