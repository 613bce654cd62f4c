//! # Self-Based Regression (SBR)
//!
//! Implementation of the compression framework from *"Compressing Historical
//! Information in Sensor Networks"* (Deligiannakis, Kotidis, Roussopoulos,
//! SIGMOD 2004).
//!
//! A sensor collects `N` time series ("quantities") of `M` samples each.
//! When its buffer fills, the batch of `n = N × M` values is compressed to a
//! bandwidth budget of `TotalBand` *values* and shipped to a base station.
//! Compression is driven by a **base signal**: a dictionary of `W`-sample
//! intervals (`W = ⌊√n⌋`) extracted from the data itself. Each data interval
//! is encoded as a linear projection `a·X[shift .. shift+len] + b` of a
//! base-signal segment, with plain linear regression over the time index as a
//! fall-back. The base signal itself evolves across transmissions: new
//! features are inserted greedily ([`get_base`]), the number of insertions is
//! chosen by a binary search balancing dictionary richness against the
//! bandwidth those insertions consume ([`search`]), and stale features are
//! evicted LFU when the dictionary buffer overflows.
//!
//! ## Quick start
//!
//! ```
//! use sbr_core::{SbrConfig, SbrEncoder, Decoder};
//!
//! // Two correlated signals, 64 samples each.
//! let m = 64;
//! let y1: Vec<f64> = (0..m).map(|i| (i as f64 * 0.2).sin()).collect();
//! let y2: Vec<f64> = y1.iter().map(|v| 3.0 * v + 1.0).collect();
//!
//! let config = SbrConfig::new(/*total_band=*/ 40, /*m_base=*/ 32);
//! let mut encoder = SbrEncoder::new(2, m, config.clone()).unwrap();
//! let tx = encoder.encode(&[y1.clone(), y2.clone()]).unwrap();
//! assert!(tx.cost() <= 40);
//!
//! let mut decoder = Decoder::new();
//! let rec = decoder.decode(&tx).unwrap();
//! assert_eq!(rec.len(), 2);
//! assert_eq!(rec[0].len(), m);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod base_signal;
pub mod best_map;
pub mod bounds;
pub mod codec;
pub mod config;
pub mod decoder;
pub mod error;
pub mod fit_cache;
pub mod get_base;
pub mod get_intervals;
pub mod interval;
pub mod metric;
pub mod obs;
pub mod probe_cache;
pub mod quadratic;
pub mod query;
pub mod regression;
pub mod sbr;
pub mod search;
pub mod series;
pub mod transmission;
pub mod xcorr;

pub use base_signal::BaseSignal;
pub use bounds::{BoundedEncoding, ErrorBoundSpec};
pub use config::{BaseBuilder, SbrConfig};
pub use decoder::Decoder;
pub use error::SbrError;
pub use fit_cache::FitCache;
pub use get_base::GetBaseBuilder;
pub use get_intervals::FitOracle;
pub use interval::{Interval, IntervalRecord};
pub use metric::ErrorMetric;
pub use obs::{EncodeObs, QueryObs};
pub use probe_cache::ProbeCache;
pub use quadratic::QuadFit;
pub use query::{ChunkSummary, FoldCounts, QueryEngine, RangeAggregate};
pub use regression::Fit;
pub use sbr::SbrEncoder;
pub use series::MultiSeries;
pub use transmission::{BaseUpdate, Frame, FrameKind, Transmission};
