//! End to end through the `sbr` binary: a traced `simulate` writes every
//! frame-lifecycle event, `encoded` included, to the `SBR_TRACE` log, and
//! `sbr trace` reads them back.

use std::path::Path;
use std::process::Command;

fn sbr(args: &[&str], trace: Option<&Path>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sbr"));
    cmd.args(args);
    match trace {
        Some(path) => cmd.env("SBR_TRACE", path),
        None => cmd.env_remove("SBR_TRACE"),
    };
    let out = cmd.output().expect("run sbr");
    assert!(
        out.status.success(),
        "sbr {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `kind="…"` field of every event line `sbr trace` printed.
fn kinds(listing: &str) -> Vec<String> {
    listing
        .lines()
        .filter_map(|l| l.split("kind=\"").nth(1))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

#[test]
fn traced_simulate_lists_every_lifecycle_step() {
    let dir = std::env::temp_dir().join(format!("sbr-trace-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("t.log");
    let log_arg = log.to_str().unwrap();

    let run = sbr(
        &["simulate", "--nodes", "3", "--len", "512", "--batch", "64"],
        Some(&log),
    );
    // "chunks delivered       16/16 (100.0%)": the denominator is the
    // number of chunks the sensors flushed.
    let flushed: usize = run
        .lines()
        .find_map(|l| l.trim().strip_prefix("chunks delivered"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|ratio| ratio.split('/').nth(1))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no chunk count in:\n{run}"));
    assert_eq!(flushed, 16, "{run}");

    // One `encoded` event per flushed chunk.
    let encoded = sbr(&["trace", "--input", log_arg, "--kind", "encoded"], None);
    assert_eq!(kinds(&encoded).len(), flushed, "{encoded}");

    // A delivered frame's whole history, in order.
    let history = sbr(&["trace", "--input", log_arg, "--frame", "1:0:2"], None);
    assert_eq!(
        kinds(&history),
        ["encoded", "queued", "tx", "decoded", "persisted", "acked"],
        "{history}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
