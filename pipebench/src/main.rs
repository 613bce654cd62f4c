//! Command-line entry point of the pipeline benchmark.
//!
//! ```text
//! pipebench --workload <fleet_ingest|station_replay|history_query>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|short] [--inject <layer>:<microseconds>]
//!           [--work-dir <dir>] [--spans <file>]
//! ```
//!
//! Prints every end-to-end metric, the per-layer table (traced runs) and,
//! as the last line of standard output, one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the gated end-to-end metrics
//! untraced, every per-layer metric traced). Exits 1 when any operation or verification failed, 2 on a
//! usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use pipebench::{Budget, Layer, Params, Size, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("pipebench: {msg}");
    eprintln!(
        "usage: pipebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--size full|short] [--inject <layer>:<us>] [--work-dir <dir>] \
         [--spans <file>]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut inject = None;
    let mut work_dir = PathBuf::from(format!(".bench_build/pipebench-{}", std::process::id()));
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = Some(s),
                _ => return usage(&format!("bad seconds '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage(&format!("bad trace '{value}'")),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::Full,
                "short" => size = Size::Short,
                _ => return usage(&format!("bad size '{value}'")),
            },
            "--inject" => {
                let parsed = value
                    .split_once(':')
                    .and_then(|(layer, us)| Some((Layer::parse(layer)?, us.parse::<u64>().ok()?)));
                match parsed {
                    Some((layer, us)) => inject = Some((layer, Duration::from_micros(us))),
                    None => return usage(&format!("bad inject '{value}'")),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let spans = spans.or_else(|| {
        trace.then(|| {
            PathBuf::from(format!(
                ".bench_build/pipebench-spans/{}-seed{seed}.jsonl",
                workload.name()
            ))
        })
    });
    let params = Params {
        seed,
        budget: Budget::Seconds(seconds),
        trace,
        size,
        inject,
        work_dir,
        spans,
    };
    let outcome = pipebench::run(workload, &params);
    println!(
        "pipebench {} seed={seed} seconds={seconds} trace={} attempted={} failed={}",
        workload.name(),
        u8::from(trace),
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in outcome.e2e.entries() {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    println!(
        "  {:<24} {:>16.6} ratio",
        "failed_frac",
        outcome.failed_frac()
    );
    if let Some(layers) = &outcome.layers {
        let wall = layers
            .metrics
            .iter()
            .find(|m| m.0 == "trace.traced_wall_s")
            .map_or(0.0, |m| m.1);
        print!("{}", layers.table(wall));
    }
    for f in &outcome.failures {
        eprintln!("pipebench: FAILED: {f}");
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
