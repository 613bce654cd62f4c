//! Hand-rolled argument parsing (no CLI crates offline; the grammar is
//! small enough to own).

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// The `sbr` subcommands.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `sbr compress`: CSV → framed SBR stream.
    Compress {
        /// Input CSV (columns = signals).
        input: String,
        /// Output stream file.
        output: String,
        /// Bandwidth budget per transmission, in values.
        band: usize,
        /// Base-signal buffer size, in values.
        m_base: usize,
        /// Samples per signal per transmission (default: the whole file
        /// as one batch).
        batch: Option<usize>,
        /// Error metric: "sse", "relative" or "maxabs".
        metric: String,
        /// Write an `sbr-obs/v2` metrics snapshot (JSON) here after the run.
        metrics: Option<String>,
        /// Write a line-delimited structured trace log here during the run
        /// (same format as the `SBR_TRACE` environment variable).
        trace: Option<String>,
    },
    /// `sbr decompress`: framed SBR stream → CSV.
    Decompress {
        /// Input stream file.
        input: String,
        /// Output CSV.
        output: String,
    },
    /// `sbr info`: per-transmission statistics of a stream file.
    Info {
        /// Input stream file.
        input: String,
    },
    /// `sbr compare`: run SBR and every baseline on a CSV at one budget.
    Compare {
        /// Input CSV.
        input: String,
        /// Bandwidth budget per batch, in values.
        band: usize,
    },
    /// `sbr aggregate`: SUM/AVG/MIN/MAX of a signal range, answered
    /// directly on a compressed stream file.
    Aggregate {
        /// Input stream file.
        input: String,
        /// Signal (column) index.
        signal: usize,
        /// First sample (inclusive).
        from: usize,
        /// Last sample (exclusive).
        to: usize,
        /// Which query path answers the range (A/B comparable).
        engine: EngineKind,
    },
    /// `sbr generate`: write one of the synthetic evaluation datasets as
    /// CSV (so the whole pipeline is drivable from the shell).
    Generate {
        /// Dataset name: "phone", "weather", "stock", "mixed", "indexes" or
        /// "netflow".
        dataset: String,
        /// Output CSV.
        output: String,
        /// Samples per signal.
        len: usize,
        /// RNG seed.
        seed: u64,
    },
    /// `sbr report`: render a metrics artifact (a `BENCH_SBR.json` in the
    /// `sbr-bench/v4` schema, or a raw `sbr-obs/v2` snapshot — v1 still
    /// parses) as per-phase time / error / bandwidth tables.
    Report {
        /// Input JSON file.
        input: String,
    },
    /// `sbr simulate`: run the loss-tolerant ARQ protocol over a
    /// simulated sensor network with seeded fault injection, printing
    /// delivery/recovery statistics.
    Simulate {
        /// Sensors in the line topology (the base station is extra).
        nodes: usize,
        /// Signals per sensor.
        signals: usize,
        /// Samples per signal per sensor.
        len: usize,
        /// Samples per batch (buffer depth M).
        batch: usize,
        /// Bandwidth budget per transmission, in values.
        band: usize,
        /// Per-hop radio loss probability (each attempt, `[0, 1)`).
        loss: f64,
        /// Seed for the end-to-end fault schedule.
        fault_seed: u64,
        /// End-to-end drop probability.
        drop: f64,
        /// End-to-end duplication probability.
        dup: f64,
        /// End-to-end reorder probability.
        reorder: f64,
        /// End-to-end single-bit corruption probability.
        corrupt: f64,
        /// Crash sensor `node` right after it flushes chunk `chunk`
        /// (`node:chunk`).
        crash_at: Option<(usize, u64)>,
        /// Write an `sbr-obs/v2` metrics snapshot (JSON) here after the run.
        metrics: Option<String>,
        /// Persist the base station's logs as segmented stores under this
        /// directory (see `sbr storage`).
        store: Option<String>,
        /// Segment size in bytes for `--store` (default 65536).
        segment_bytes: Option<u64>,
    },
    /// `sbr trace`: filter and pretty-print a structured event log
    /// produced via `SBR_TRACE` or `compress --trace`.
    Trace {
        /// Input event-log file (one JSON object per line).
        input: String,
        /// Only show events whose name contains this substring.
        filter: Option<String>,
        /// Only show frame-lifecycle events for this frame
        /// (`node:epoch:seq`, validated at parse time).
        frame: Option<sbr_obs::FrameId>,
        /// Only show frame-lifecycle events from this sensor node.
        node: Option<u32>,
        /// Only show frame-lifecycle events of this kind (`tx`, `retx`,
        /// `acked`, ... — validated at parse time).
        kind: Option<sbr_obs::EventKind>,
    },
    /// `sbr perf diff`: compare two `BENCH_SBR.json` artifacts and fail
    /// on wall-time or hit-rate regressions beyond a tolerance, or on a
    /// baseline record the candidate lacks.
    PerfDiff {
        /// Baseline benchmark artifact.
        baseline: String,
        /// Candidate benchmark artifact.
        candidate: String,
        /// Allowed relative wall-time growth (0.25 = +25%).
        tolerance: f64,
        /// Also write the full diff report here.
        report: Option<String>,
    },
    /// `sbr storage inspect`: audit every sensor store under a directory
    /// (segment CRCs, continuity chain, checkpoint snapshots).
    StorageInspect {
        /// Store directory (as written by `simulate --store`).
        dir: String,
    },
    /// `sbr storage compact`: drop checkpoints superseded behind each
    /// store's newest resync snapshot.
    StorageCompact {
        /// Store directory (as written by `simulate --store`).
        dir: String,
    },
    /// `sbr help`.
    Help,
}

/// Which query path `sbr aggregate` answers a range with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The compressed-domain query engine: closed-form interval moments,
    /// no chunk is ever decoded (the default).
    Compressed,
    /// The full-decode baseline: replay the stream and aggregate the
    /// reconstruction (for A/B comparison).
    Decode,
}

/// Usage text.
pub const USAGE: &str = "\
sbr — Self-Based Regression compression for multi-signal time series

USAGE:
  sbr compress   --input <csv> --output <file> --band <values>
                 [--mbase <values>] [--batch <samples>]
                 [--metric sse|relative|maxabs]
                 [--metrics <json>] [--trace <log>]
  sbr decompress --input <file> --output <csv>
  sbr info       --input <file>
  sbr compare    --input <csv> --band <values>
  sbr aggregate  --input <file> --signal <idx> --from <t0> --to <t1>
                 [--engine compressed|decode]
  sbr generate   --dataset phone|weather|stock|mixed|indexes|netflow
                 --output <csv> [--len <samples>] [--seed <n>]
  sbr report     --input <json>
  sbr simulate   [--nodes <n>] [--signals <n>] [--len <samples>]
                 [--batch <samples>] [--band <values>]
                 [--loss <p>] [--fault-seed <n>]
                 [--drop <p>] [--dup <p>] [--reorder <p>] [--corrupt <p>]
                 [--crash-at <node>:<chunk>] [--metrics <json>]
                 [--store <dir>] [--segment-bytes <n>]
  sbr storage inspect <dir>
  sbr storage compact <dir>
  sbr trace      --input <log> [--filter <substring>]
                 [--frame <node>:<epoch>:<seq>] [--node <n>]
                 [--kind encoded|queued|tx|retx|dropped|dup|corrupt|
                         acked|decoded|persisted|resynced]
  sbr perf diff  <baseline.json> <candidate.json>
                 [--tolerance <frac>] [--report <txt>]
  sbr help

The CSV has one column per signal and one row per sample; an optional
header row names the signals.

Observability: set SBR_TRACE=<path> to stream structured events from any
subcommand into <path> (one JSON object per line); `sbr report` renders
metrics artifacts (`sbr-bench/v4` benchmark files or `sbr-obs/v2`
snapshots, v1 accepted) and `sbr trace` pretty-prints event logs. With a
frame-lifecycle timeline attached (`sbr simulate` under SBR_TRACE),
`sbr trace` narrows to one frame (`--frame node:epoch:seq`), one sensor
(`--node`) or one lifecycle step (`--kind`); `sbr perf diff` compares
two benchmark artifacts record by record and exits 1 when the sum of
any `*_ns` row grows beyond `--tolerance` (default 0.25), when any
`<x>.hits`/`<x>.misses` hit rate drops by more than it, or when a
baseline record has no candidate record.

Fault injection: `sbr simulate` drives the loss-tolerant v2 protocol
(per-frame CRC, sequence/epoch tracking, bounded retransmission with
cumulative ACKs, resync on overflow or crash) over a line topology with
per-hop loss (`--loss`) and a seeded end-to-end fault schedule
(`--drop`/`--dup`/`--reorder`/`--corrupt`, `--crash-at node:chunk`),
then prints the recovery statistics.

Durability: `simulate --store <dir>` persists every accepted frame into
per-sensor segmented stores (CRC-framed records in fixed-size sealed
segments, with a checkpoint written at each seal so recovery replays
one segment instead of the whole history; `--segment-bytes` tunes the
segment budget). `sbr storage inspect <dir>` audits every store end to
end — record CRCs, the epoch/sequence continuity chain, and each
checkpoint's snapshot against the walk — and exits 1 on any damage;
`sbr storage compact <dir>` drops checkpoints superseded behind each
store's newest resync snapshot.

Exit codes: 0 success, 1 runtime failure, 2 usage error.";

fn take_value(args: &mut std::collections::BTreeMap<String, String>, key: &str) -> Option<String> {
    args.remove(key)
}

/// Parse a full argument vector (excluding the program name).
pub fn parse(argv: &[String]) -> Result<Cli, String> {
    let Some(sub) = argv.first() else {
        return Ok(Cli {
            command: Command::Help,
        });
    };
    let mut flags = std::collections::BTreeMap::new();
    // `perf` and `storage` take positionals (`perf diff <baseline>
    // <candidate>`, `storage inspect <dir>`) before their flags; every
    // other subcommand is pure --flag value pairs.
    let mut positionals: Vec<String> = Vec::new();
    let mut i = 1;
    if sub == "perf" || sub == "storage" {
        while i < argv.len() && !argv[i].starts_with("--") {
            positionals.push(argv[i].clone());
            i += 1;
        }
    }
    while i < argv.len() {
        let key = argv[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, found '{}'", argv[i]))?;
        let val = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} requires a value"))?;
        flags.insert(key.to_string(), val.clone());
        i += 2;
    }
    let required = |flags: &mut std::collections::BTreeMap<String, String>, k: &str| {
        take_value(flags, k).ok_or_else(|| format!("missing required --{k}"))
    };
    let parse_usize = |v: String, k: &str| {
        v.parse::<usize>()
            .map_err(|_| format!("--{k} must be a positive integer, got '{v}'"))
    };

    let command = match sub.as_str() {
        "compress" => {
            let input = required(&mut flags, "input")?;
            let output = required(&mut flags, "output")?;
            let band = parse_usize(required(&mut flags, "band")?, "band")?;
            let m_base = match take_value(&mut flags, "mbase") {
                Some(v) => parse_usize(v, "mbase")?,
                None => band,
            };
            let batch = match take_value(&mut flags, "batch") {
                Some(v) => Some(parse_usize(v, "batch")?),
                None => None,
            };
            let metric = take_value(&mut flags, "metric").unwrap_or_else(|| "sse".into());
            if !["sse", "relative", "maxabs"].contains(&metric.as_str()) {
                return Err(format!("unknown metric '{metric}'"));
            }
            Command::Compress {
                input,
                output,
                band,
                m_base,
                batch,
                metric,
                metrics: take_value(&mut flags, "metrics"),
                trace: take_value(&mut flags, "trace"),
            }
        }
        "decompress" => Command::Decompress {
            input: required(&mut flags, "input")?,
            output: required(&mut flags, "output")?,
        },
        "info" => Command::Info {
            input: required(&mut flags, "input")?,
        },
        "compare" => Command::Compare {
            input: required(&mut flags, "input")?,
            band: parse_usize(required(&mut flags, "band")?, "band")?,
        },
        "aggregate" => {
            let engine = match take_value(&mut flags, "engine").as_deref() {
                None | Some("compressed") => EngineKind::Compressed,
                Some("decode") => EngineKind::Decode,
                Some(v) => return Err(format!("--engine must be compressed|decode, got '{v}'")),
            };
            Command::Aggregate {
                input: required(&mut flags, "input")?,
                signal: parse_usize(required(&mut flags, "signal")?, "signal")?,
                from: parse_usize(required(&mut flags, "from")?, "from")?,
                to: parse_usize(required(&mut flags, "to")?, "to")?,
                engine,
            }
        }
        "generate" => {
            let dataset = required(&mut flags, "dataset")?;
            if !["phone", "weather", "stock", "mixed", "indexes", "netflow"]
                .contains(&dataset.as_str())
            {
                return Err(format!("unknown dataset '{dataset}'"));
            }
            let output = required(&mut flags, "output")?;
            let len = match take_value(&mut flags, "len") {
                Some(v) => parse_usize(v, "len")?,
                None => 2048,
            };
            let seed = match take_value(&mut flags, "seed") {
                Some(v) => v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed must be an integer, got '{v}'"))?,
                None => 42,
            };
            Command::Generate {
                dataset,
                output,
                len,
                seed,
            }
        }
        "report" => Command::Report {
            input: required(&mut flags, "input")?,
        },
        "simulate" => {
            let parse_u64 = |v: String, k: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("--{k} must be an integer, got '{v}'"))
            };
            let parse_prob = |v: Option<String>, k: &str| -> Result<f64, String> {
                let Some(v) = v else { return Ok(0.0) };
                let p = v
                    .parse::<f64>()
                    .map_err(|_| format!("--{k} must be a probability, got '{v}'"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("--{k} must be in [0, 1], got {p}"));
                }
                Ok(p)
            };
            let opt_usize = |flags: &mut std::collections::BTreeMap<String, String>,
                             k: &str,
                             default: usize|
             -> Result<usize, String> {
                match take_value(flags, k) {
                    Some(v) => parse_usize(v, k),
                    None => Ok(default),
                }
            };
            let nodes = opt_usize(&mut flags, "nodes", 3)?;
            if nodes < 2 {
                return Err("--nodes must be at least 2 (station + one sensor)".into());
            }
            let signals = opt_usize(&mut flags, "signals", 2)?;
            let len = opt_usize(&mut flags, "len", 512)?;
            let batch = opt_usize(&mut flags, "batch", 64)?;
            let band = opt_usize(&mut flags, "band", 72)?;
            let loss = parse_prob(take_value(&mut flags, "loss"), "loss")?;
            if loss >= 1.0 {
                return Err(format!("--loss must be in [0, 1), got {loss}"));
            }
            let fault_seed = match take_value(&mut flags, "fault-seed") {
                Some(v) => parse_u64(v, "fault-seed")?,
                None => 42,
            };
            let crash_at = match take_value(&mut flags, "crash-at") {
                Some(v) => {
                    let (n, c) = v
                        .split_once(':')
                        .ok_or_else(|| format!("--crash-at wants node:chunk, got '{v}'"))?;
                    let node = n
                        .parse::<usize>()
                        .map_err(|_| format!("--crash-at node must be an integer, got '{n}'"))?;
                    let chunk = c
                        .parse::<u64>()
                        .map_err(|_| format!("--crash-at chunk must be an integer, got '{c}'"))?;
                    Some((node, chunk))
                }
                None => None,
            };
            let segment_bytes = match take_value(&mut flags, "segment-bytes") {
                Some(v) => {
                    let n = parse_u64(v, "segment-bytes")?;
                    if n == 0 {
                        return Err("--segment-bytes must be positive".into());
                    }
                    Some(n)
                }
                None => None,
            };
            let store = take_value(&mut flags, "store");
            if segment_bytes.is_some() && store.is_none() {
                return Err("--segment-bytes only makes sense with --store".into());
            }
            Command::Simulate {
                nodes,
                signals,
                len,
                batch,
                band,
                loss,
                fault_seed,
                drop: parse_prob(take_value(&mut flags, "drop"), "drop")?,
                dup: parse_prob(take_value(&mut flags, "dup"), "dup")?,
                reorder: parse_prob(take_value(&mut flags, "reorder"), "reorder")?,
                corrupt: parse_prob(take_value(&mut flags, "corrupt"), "corrupt")?,
                crash_at,
                metrics: take_value(&mut flags, "metrics"),
                store,
                segment_bytes,
            }
        }
        "trace" => {
            let frame = match take_value(&mut flags, "frame") {
                Some(v) => Some(
                    v.parse::<sbr_obs::FrameId>()
                        .map_err(|e| format!("--frame: {e}"))?,
                ),
                None => None,
            };
            let node = match take_value(&mut flags, "node") {
                Some(v) => Some(
                    v.parse::<u32>()
                        .map_err(|_| format!("--node must be a sensor id, got '{v}'"))?,
                ),
                None => None,
            };
            let kind = match take_value(&mut flags, "kind") {
                Some(v) => Some(sbr_obs::EventKind::parse(&v).ok_or_else(|| {
                    format!("--kind: unknown lifecycle event '{v}' (try tx, retx, acked, ...)")
                })?),
                None => None,
            };
            Command::Trace {
                input: required(&mut flags, "input")?,
                filter: take_value(&mut flags, "filter"),
                frame,
                node,
                kind,
            }
        }
        "perf" => {
            let mut pos = positionals.into_iter();
            match pos.next().as_deref() {
                Some("diff") => {}
                Some(other) => {
                    return Err(format!("unknown perf action '{other}' (expected 'diff')"))
                }
                None => return Err("usage: sbr perf diff <baseline.json> <candidate.json>".into()),
            }
            let (Some(baseline), Some(candidate), None) = (pos.next(), pos.next(), pos.next())
            else {
                return Err(
                    "perf diff wants exactly two files: <baseline.json> <candidate.json>".into(),
                );
            };
            let tolerance = match take_value(&mut flags, "tolerance") {
                Some(v) => {
                    let t = v
                        .parse::<f64>()
                        .map_err(|_| format!("--tolerance must be a fraction, got '{v}'"))?;
                    if !t.is_finite() || t < 0.0 {
                        return Err(format!("--tolerance must be non-negative, got {t}"));
                    }
                    t
                }
                None => 0.25,
            };
            Command::PerfDiff {
                baseline,
                candidate,
                tolerance,
                report: take_value(&mut flags, "report"),
            }
        }
        "storage" => {
            let mut pos = positionals.into_iter();
            let action = match pos.next() {
                Some(a) => a,
                None => return Err("usage: sbr storage inspect|compact <dir>".into()),
            };
            let (Some(dir), None) = (pos.next(), pos.next()) else {
                return Err(format!(
                    "storage {action} wants exactly one store directory"
                ));
            };
            match action.as_str() {
                "inspect" => Command::StorageInspect { dir },
                "compact" => Command::StorageCompact { dir },
                other => {
                    return Err(format!(
                        "unknown storage action '{other}' (expected 'inspect' or 'compact')"
                    ))
                }
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    if let Some(k) = flags.keys().next() {
        return Err(format!("unrecognized flag --{k}"));
    }
    Ok(Cli { command })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_compress_with_defaults() {
        let cli = parse(&argv("compress --input a.csv --output b.sbr --band 100")).unwrap();
        assert_eq!(
            cli.command,
            Command::Compress {
                input: "a.csv".into(),
                output: "b.sbr".into(),
                band: 100,
                m_base: 100,
                batch: None,
                metric: "sse".into(),
                metrics: None,
                trace: None,
            }
        );
    }

    #[test]
    fn removed_cache_flags_are_unrecognized() {
        // The probe and fit caches are always on; their old on|off
        // switches must fail as unknown flags, not be silently ignored.
        for flag in ["probe-cache", "fit-cache"] {
            for value in ["on", "off"] {
                let err = parse(&argv(&format!(
                    "compress --input a --output b --band 64 --{flag} {value}"
                )))
                .unwrap_err();
                assert_eq!(err, format!("unrecognized flag --{flag}"));
            }
        }
    }

    #[test]
    fn parses_compress_observability_flags() {
        let cli = parse(&argv(
            "compress --input a --output b --band 64 --metrics m.json --trace t.log",
        ))
        .unwrap();
        match cli.command {
            Command::Compress { metrics, trace, .. } => {
                assert_eq!(metrics.as_deref(), Some("m.json"));
                assert_eq!(trace.as_deref(), Some("t.log"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_report_and_trace() {
        assert_eq!(
            parse(&argv("report --input BENCH_SBR.json"))
                .unwrap()
                .command,
            Command::Report {
                input: "BENCH_SBR.json".into()
            }
        );
        assert_eq!(
            parse(&argv("trace --input t.log --filter best_map"))
                .unwrap()
                .command,
            Command::Trace {
                input: "t.log".into(),
                filter: Some("best_map".into()),
                frame: None,
                node: None,
                kind: None,
            }
        );
        assert!(parse(&argv("report")).is_err(), "report needs --input");
    }

    #[test]
    fn parses_trace_lifecycle_filters() {
        let cli = parse(&argv(
            "trace --input t.log --frame 2:1:17 --node 2 --kind retx",
        ))
        .unwrap();
        match cli.command {
            Command::Trace {
                frame, node, kind, ..
            } => {
                assert_eq!(frame, Some(sbr_obs::FrameId::new(2, 1, 17)));
                assert_eq!(node, Some(2));
                assert_eq!(kind, Some(sbr_obs::EventKind::Retx));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn trace_rejects_malformed_lifecycle_filters() {
        // Exit code 2 in main: parse errors map to CliError::Usage.
        assert!(parse(&argv("trace --input t.log --frame 2:1")).is_err());
        assert!(parse(&argv("trace --input t.log --frame a:b:c")).is_err());
        assert!(parse(&argv("trace --input t.log --node minus-one")).is_err());
        assert!(parse(&argv("trace --input t.log --kind teleported")).is_err());
    }

    #[test]
    fn parses_perf_diff() {
        assert_eq!(
            parse(&argv("perf diff base.json cand.json"))
                .unwrap()
                .command,
            Command::PerfDiff {
                baseline: "base.json".into(),
                candidate: "cand.json".into(),
                tolerance: 0.25,
                report: None,
            }
        );
        let cli = parse(&argv(
            "perf diff base.json cand.json --tolerance 0.1 --report d.txt",
        ))
        .unwrap();
        match cli.command {
            Command::PerfDiff {
                tolerance, report, ..
            } => {
                assert_eq!(tolerance, 0.1);
                assert_eq!(report.as_deref(), Some("d.txt"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn perf_diff_rejects_bad_grammar() {
        assert!(parse(&argv("perf")).is_err(), "wants an action");
        assert!(parse(&argv("perf smash a b")).is_err(), "only diff");
        assert!(parse(&argv("perf diff base.json")).is_err(), "two files");
        assert!(parse(&argv("perf diff a b c")).is_err(), "exactly two");
        assert!(
            parse(&argv("perf diff a b --tolerance -0.5")).is_err(),
            "tolerance >= 0"
        );
        assert!(parse(&argv("perf diff a b --tolerance much")).is_err());
    }

    #[test]
    fn parses_all_compress_flags() {
        let cli = parse(&argv(
            "compress --input a --output b --band 64 --mbase 32 --batch 256 --metric maxabs",
        ))
        .unwrap();
        match cli.command {
            Command::Compress {
                m_base,
                batch,
                metric,
                ..
            } => {
                assert_eq!(m_base, 32);
                assert_eq!(batch, Some(256));
                assert_eq!(metric, "maxabs");
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        assert!(parse(&argv("compress --input a --band 10")).is_err());
        assert!(parse(&argv("decompress --input a")).is_err());
    }

    #[test]
    fn bad_values_are_errors() {
        assert!(parse(&argv("compress --input a --output b --band ten")).is_err());
        assert!(parse(&argv("compress --input a --output b --band 10 --metric l7")).is_err());
        assert!(parse(&argv("compress --input a --output b --band 10 --bogus 1")).is_err());
    }

    #[test]
    fn parses_aggregate() {
        let cli = parse(&argv(
            "aggregate --input s.sbr --signal 2 --from 10 --to 99",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Aggregate {
                input: "s.sbr".into(),
                signal: 2,
                from: 10,
                to: 99,
                engine: EngineKind::Compressed,
            }
        );
        assert!(parse(&argv("aggregate --input s.sbr --signal 2 --from 10")).is_err());
    }

    #[test]
    fn parses_aggregate_engine_flag() {
        let cli = parse(&argv(
            "aggregate --input s.sbr --signal 0 --from 0 --to 9 --engine decode",
        ))
        .unwrap();
        match cli.command {
            Command::Aggregate { engine, .. } => assert_eq!(engine, EngineKind::Decode),
            other => panic!("parsed {other:?}"),
        }
        assert!(parse(&argv(
            "aggregate --input s.sbr --signal 0 --from 0 --to 9 --engine warp"
        ))
        .is_err());
    }

    #[test]
    fn parses_generate_with_defaults() {
        let cli = parse(&argv("generate --dataset weather --output w.csv")).unwrap();
        assert_eq!(
            cli.command,
            Command::Generate {
                dataset: "weather".into(),
                output: "w.csv".into(),
                len: 2048,
                seed: 42,
            }
        );
        assert!(parse(&argv("generate --dataset nope --output x")).is_err());
    }

    #[test]
    fn parses_simulate_with_defaults() {
        let cli = parse(&argv("simulate")).unwrap();
        assert_eq!(
            cli.command,
            Command::Simulate {
                nodes: 3,
                signals: 2,
                len: 512,
                batch: 64,
                band: 72,
                loss: 0.0,
                fault_seed: 42,
                drop: 0.0,
                dup: 0.0,
                reorder: 0.0,
                corrupt: 0.0,
                crash_at: None,
                metrics: None,
                store: None,
                segment_bytes: None,
            }
        );
    }

    #[test]
    fn parses_simulate_store_flags() {
        let cli = parse(&argv("simulate --store /tmp/s --segment-bytes 2048")).unwrap();
        match cli.command {
            Command::Simulate {
                store,
                segment_bytes,
                ..
            } => {
                assert_eq!(store.as_deref(), Some("/tmp/s"));
                assert_eq!(segment_bytes, Some(2048));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(
            parse(&argv("simulate --segment-bytes 2048")).is_err(),
            "--segment-bytes needs --store"
        );
        assert!(parse(&argv("simulate --store /tmp/s --segment-bytes 0")).is_err());
    }

    #[test]
    fn parses_storage_actions() {
        assert_eq!(
            parse(&argv("storage inspect /tmp/store")).unwrap().command,
            Command::StorageInspect {
                dir: "/tmp/store".into()
            }
        );
        assert_eq!(
            parse(&argv("storage compact /tmp/store")).unwrap().command,
            Command::StorageCompact {
                dir: "/tmp/store".into()
            }
        );
    }

    #[test]
    fn storage_rejects_bad_grammar() {
        assert!(parse(&argv("storage")).is_err(), "wants an action");
        assert!(parse(&argv("storage inspect")).is_err(), "wants a dir");
        assert!(parse(&argv("storage shred /tmp/x")).is_err(), "bad action");
        assert!(parse(&argv("storage inspect a b")).is_err(), "one dir");
    }

    #[test]
    fn parses_simulate_fault_flags() {
        let cli = parse(&argv(
            "simulate --nodes 4 --loss 0.2 --fault-seed 7 --drop 0.3 --dup 0.1 \
             --reorder 0.05 --corrupt 0.01 --crash-at 2:5 --metrics m.json",
        ))
        .unwrap();
        match cli.command {
            Command::Simulate {
                nodes,
                loss,
                fault_seed,
                drop,
                crash_at,
                metrics,
                ..
            } => {
                assert_eq!(nodes, 4);
                assert_eq!(loss, 0.2);
                assert_eq!(fault_seed, 7);
                assert_eq!(drop, 0.3);
                assert_eq!(crash_at, Some((2, 5)));
                assert_eq!(metrics.as_deref(), Some("m.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn simulate_rejects_bad_values() {
        assert!(parse(&argv("simulate --loss 1.0")).is_err(), "loss < 1");
        assert!(parse(&argv("simulate --drop 1.5")).is_err());
        assert!(parse(&argv("simulate --drop nope")).is_err());
        assert!(parse(&argv("simulate --nodes 1")).is_err());
        assert!(parse(&argv("simulate --crash-at 2")).is_err(), "wants n:c");
        assert!(parse(&argv("simulate --crash-at a:b")).is_err());
    }

    #[test]
    fn no_args_means_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("help")).unwrap().command, Command::Help);
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(parse(&argv("explode --input x")).is_err());
    }
}
