//! # Sensor-network substrate
//!
//! The environment §3 of the paper assumes, built out so the compression
//! framework can be exercised end to end:
//!
//! * [`node`] — a sensor that buffers `N × M` samples and flushes each full
//!   buffer through its `SbrEncoder` (§3.2's batch model),
//! * [`topology`] — seeded geometric topologies with greedy geographic
//!   routing trees and radio-range neighbor sets,
//! * [`energy`] — the radio/CPU energy model (§3.1: one transmitted bit ≈
//!   1000 CPU instructions on a MICA mote; multi-hop relaying; broadcast
//!   overhearing by every node in the sender's range),
//! * [`base_station`] — per-sensor append-only logs of wire frames plus
//!   historical reconstruction queries (the log-file architecture of
//!   Figure 1),
//! * [`network`] — a discrete-event-ish driver tying the above together and
//!   an [`network::Strategy`] enum for comparing SBR against sending raw
//!   values or per-batch aggregates.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod base_station;
pub mod energy;
pub mod fault;
pub mod link;
pub mod network;
pub mod node;
pub mod storage;
pub mod topology;

pub use base_station::{BaseStation, Receipt, StorageObs};
pub use energy::{Battery, EnergyLedger, EnergyModel};
pub use fault::FaultPlan;
pub use link::LossyLink;
pub use network::{Network, RecoveryStats, RunReport, Strategy};
pub use node::SensorNode;
pub use topology::Topology;

/// Identifier of a node in the network. Node 0 is always the base station.
pub type NodeId = usize;
