//! # Pipeline benchmark
//!
//! Seeded sensor fleets pushed through every layer of the system: the
//! node encoder (`SensorNode::record` → SBR encode → v2 frame), the
//! multi-hop link and end-to-end ARQ (`LossyLink`, `FaultPlan`,
//! `SensorNode::ack`), the base station (`receive_frame`: decode, chunk
//! index, segment append/seal/checkpoint), the segmented store
//! (`BaseStation::load` and the first cold read) and the query engine
//! (`BaseStation::aggregate_range`).
//!
//! The benchmark drives the layers' public APIs itself. Each workload's
//! generator takes the seed; the program under test only ever sees
//! generated samples and frames. Three workloads stress different layers
//! (see [`Workload`]); each run prints every end-to-end metric, verifies
//! the outputs, and with tracing on adds a per-layer table whose self
//! times reconcile with the traced wall.

#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

pub mod fleet;
pub mod history;
pub mod readback;
pub mod replay;
pub mod report;
pub mod sim;
pub mod trace;

pub use report::{EndToEnd, LayerReport, Outcome};
pub use trace::Layer;

/// Encoder worker threads, pinned for every workload (the reference
/// machine has two cores, which is also what the auto default resolves
/// to there).
pub const ENCODER_THREADS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A live closed-loop batch run through every layer; the encoder does
    /// almost all the work.
    FleetIngest,
    /// A recorded arrival trace replayed into fresh persistent stations,
    /// then restart and cold read; the write path and recovery dominate.
    StationReplay,
    /// Range queries over a long persisted history with sparse
    /// interleaved ingest; the query engine and plan cache dominate.
    HistoryQuery,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::FleetIngest,
        Workload::StationReplay,
        Workload::HistoryQuery,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetIngest => "fleet_ingest",
            Workload::StationReplay => "station_replay",
            Workload::HistoryQuery => "history_query",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How long the timed region runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Until this much timed wall has passed (checked between units of
    /// work, so the last unit always completes).
    Seconds(f64),
    /// Exactly this many units of work: rounds (`fleet_ingest`), replay
    /// iterations (`station_replay`) or query passes (`history_query`).
    Ops(u64),
}

impl Budget {
    /// Whether a region that has run `elapsed_s` seconds of timed wall and
    /// done `ops` units is finished.
    pub fn done(self, elapsed_s: f64, ops: u64) -> bool {
        match self {
            Budget::Seconds(s) => elapsed_s >= s,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// Input sizes: the benchmark's own, or a small one for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Small inputs with the same structure, for the benchmark's tests.
    Short,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed region.
    pub budget: Budget,
    /// Record spans and in-program counters, and report the layer table.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// A fixed busy-wait added inside one layer's wrapper.
    pub inject: Option<(Layer, Duration)>,
    /// Scratch directory for the stores (created and removed by the run).
    pub work_dir: PathBuf,
    /// Where a traced run writes its kept spans (JSON lines).
    pub spans: Option<PathBuf>,
}

/// Write a traced run's kept spans to `params.spans`.
fn write_spans(t: &trace::Tracer, params: &Params) {
    let (true, Some(path)) = (t.enabled(), &params.spans) else {
        return;
    };
    match t.write_spans(path) {
        Ok((kept, folded)) => eprintln!(
            "pipebench: {kept} spans written to {} ({folded} more only folded)",
            path.display()
        ),
        Err(e) => eprintln!("pipebench: writing spans to {}: {e}", path.display()),
    }
}

/// Run one workload end to end.
pub fn run(workload: Workload, params: &Params) -> Outcome {
    let _ = std::fs::remove_dir_all(&params.work_dir);
    let outcome = match workload {
        Workload::FleetIngest => fleet::run(params),
        Workload::StationReplay => replay::run(params),
        Workload::HistoryQuery => history::run(params),
    };
    let _ = std::fs::remove_dir_all(&params.work_dir);
    outcome
}

/// Repeat `setup` `reps` times, timing each; returns the last state and
/// the median set-up wall in seconds.
pub fn timed_setups<S, E>(
    reps: usize,
    mut setup: impl FnMut() -> Result<S, E>,
) -> Result<(S, f64), E> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let state = setup()?;
        walls.push(start.elapsed().as_secs_f64());
        last = Some(state);
    }
    let state = last.expect("at least one set-up ran");
    Ok((state, sim::median(&walls)))
}
