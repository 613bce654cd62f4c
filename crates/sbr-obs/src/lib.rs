//! Zero-dependency observability for the SBR workspace.
//!
//! The layer has three pieces, each usable on its own:
//!
//! * **Handles** ([`Counter`], [`Gauge`], [`Histogram`]) — cheap `Clone`
//!   wrappers around shared atomics. A *disabled* handle (the default) is
//!   an `Option::None` and every operation on it is a single branch, so
//!   instrumented code paths cost nothing when no recorder is attached.
//!   Histograms bucket values log-linearly (976 buckets: values below 32
//!   exact, then 16 linear sub-buckets per power-of-two octave), bounding
//!   quantile estimates (p50/p90/p99) to ≤ 6.25% relative error.
//! * **Timelines** — [`Timeline`] is a bounded ring of per-frame
//!   lifecycle events keyed on [`FrameId`] `(node, epoch, seq)`, so any
//!   v2 frame's full `encoded → … → acked/decoded` history is
//!   reconstructable after a run without touching the wire format.
//! * **Recorders** — the [`Recorder`] trait hands out handles by
//!   fully-qualified name (convention: `crate.module.name`) and receives
//!   structured trace events. [`MetricsRecorder`] interns handles in a
//!   registry and optionally appends events as JSON lines to a writer
//!   (see [`TRACE_ENV`]); [`NoopRecorder`] does nothing.
//! * **Snapshots** — [`Snapshot`] freezes every registered metric into a
//!   `BTreeMap` and serializes it with the hand-rolled [`json`] module
//!   (schema `sbr-obs/v2`; v1 documents still parse), so benchmark output
//!   and CLI reports need no external serialization crates.
//! * **Bench records** — [`bench`](mod@bench) reduces a snapshot to one
//!   `sbr-bench/v4` record (params, one row per histogram, a flat counter
//!   map), the format benchmark artifacts and `sbr perf diff` share.
//!
//! Timing uses [`Span`], a drop guard that records elapsed nanoseconds
//! into a histogram and emits a trace event; spans nest naturally because
//! each guard is an ordinary stack value.
//!
//! ```
//! use sbr_obs::{MetricsRecorder, Recorder, Span};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(MetricsRecorder::new());
//! let calls = rec.counter("demo.module.calls");
//! let latency = rec.histogram("demo.module.latency_ns");
//! {
//!     let _span = Span::start("demo.module.latency_ns", &latency, None);
//!     calls.inc();
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("demo.module.calls"), Some(1));
//! assert_eq!(snap.histogram("demo.module.latency_ns").unwrap().count, 1);
//! ```

#![warn(missing_docs)]

pub mod bench;
pub mod json;

mod handles;
mod recorder;
mod snapshot;
mod timeline;

pub use handles::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, Counter, Gauge, Histogram, NUM_BUCKETS,
    SUB_BITS,
};
pub use recorder::{MetricsRecorder, NoopRecorder, Recorder, Span};
pub use snapshot::{HistogramSnapshot, MetricValue, Snapshot, SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA_V1};
pub use timeline::{
    EventKind, FrameId, Timeline, TimelineEvent, DEFAULT_TIMELINE_CAPACITY, TIMELINE_DROPPED_METRIC,
};

/// Environment variable naming a file to append JSON-line trace events to.
///
/// Honored by [`MetricsRecorder::from_env`]; consumers (the CLI, benches)
/// opt in by constructing their recorder through that helper.
pub const TRACE_ENV: &str = "SBR_TRACE";
