//! Frame-lifecycle events: the identity of a v2 frame and the steps of
//! its life, written to a recorder's trace log.
//!
//! Aggregate counters say *how many* frames were dropped or resynced;
//! frame events say *which* frame, *where* in the
//! node → link → base-station path, and *when*. Every v2 frame is
//! identified by [`FrameId`] `(node, epoch, seq)` — a purely
//! observer-side identity: nothing here touches the wire format, and the
//! differential suites pin the stream bytes to stay identical whether a
//! recorder is attached or not.
//!
//! [`frame_event`] is the one writer: it emits a
//! `sensor_net.timeline.<kind>` trace event with `frame`, `node`, `kind`
//! and `value` fields, which `sbr trace --frame/--node/--kind` filters.
//! The trace log is the only store; a recorder without a trace sink drops
//! the event.

use std::fmt;
use std::str::FromStr;

use crate::recorder::Recorder;

/// Observer-side identity of one v2 frame: which sensor emitted it, in
/// which ARQ epoch, at which stream sequence number. Never serialized to
/// the wire; rendered and parsed as `node:epoch:seq`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId {
    /// Originating sensor node id.
    pub node: u32,
    /// ARQ epoch the frame was encoded under (bumped on resync).
    pub epoch: u32,
    /// Transmission sequence number within the stream.
    pub seq: u64,
}

impl FrameId {
    /// Construct from the three components.
    pub fn new(node: u32, epoch: u32, seq: u64) -> Self {
        FrameId { node, epoch, seq }
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.node, self.epoch, self.seq)
    }
}

impl FromStr for FrameId {
    type Err = String;

    /// Parse the `node:epoch:seq` form (the one `Display` emits and the
    /// CLI `--frame` filter accepts).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let (Some(node), Some(epoch), Some(seq), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("frame id '{s}' is not node:epoch:seq"));
        };
        let node = node
            .parse::<u32>()
            .map_err(|_| format!("frame id '{s}': bad node '{node}'"))?;
        let epoch = epoch
            .parse::<u32>()
            .map_err(|_| format!("frame id '{s}': bad epoch '{epoch}'"))?;
        let seq = seq
            .parse::<u64>()
            .map_err(|_| format!("frame id '{s}': bad seq '{seq}'"))?;
        Ok(FrameId { node, epoch, seq })
    }
}

/// One step of a frame's life. The `value` argument of [`frame_event`]
/// qualifies the kinds that need a number (retransmit attempt, ACK RTT
/// in rounds, rejection site).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// The SBR encoder produced the frame's transmission.
    Encoded,
    /// The frame entered the node's retransmission queue.
    Queued,
    /// First radio transmission attempt.
    Tx,
    /// Retransmission; `value` carries the attempt number (1-based).
    Retx,
    /// The channel dropped the frame this round.
    Dropped,
    /// The base station discarded it as a duplicate.
    Dup,
    /// The base station rejected it as corrupt (CRC mismatch).
    Corrupt,
    /// A cumulative ACK released it from the retx queue; `value` carries
    /// the RTT in ARQ rounds since first transmission.
    Acked,
    /// The base station decoded its payload.
    Decoded,
    /// The decoded chunks were appended to base-station storage.
    Persisted,
    /// The frame triggered (or carried) an epoch resync.
    Resynced,
}

impl EventKind {
    /// Canonical lowercase name (stable: used in trace logs and filters).
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Encoded => "encoded",
            EventKind::Queued => "queued",
            EventKind::Tx => "tx",
            EventKind::Retx => "retx",
            EventKind::Dropped => "dropped",
            EventKind::Dup => "dup",
            EventKind::Corrupt => "corrupt",
            EventKind::Acked => "acked",
            EventKind::Decoded => "decoded",
            EventKind::Persisted => "persisted",
            EventKind::Resynced => "resynced",
        }
    }

    /// Inverse of [`EventKind::as_str`].
    pub fn parse(s: &str) -> Option<EventKind> {
        Some(match s {
            "encoded" => EventKind::Encoded,
            "queued" => EventKind::Queued,
            "tx" => EventKind::Tx,
            "retx" => EventKind::Retx,
            "dropped" => EventKind::Dropped,
            "dup" => EventKind::Dup,
            "corrupt" => EventKind::Corrupt,
            "acked" => EventKind::Acked,
            "decoded" => EventKind::Decoded,
            "persisted" => EventKind::Persisted,
            "resynced" => EventKind::Resynced,
            _ => return None,
        })
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Write one lifecycle event for `frame` to `recorder`'s trace log as
/// `sensor_net.timeline.<kind>`, with fields `frame` (`node:epoch:seq`),
/// `node`, `kind` and `value` (the kind's qualifier; 0 when it carries
/// no number).
pub fn frame_event(recorder: &dyn Recorder, frame: FrameId, kind: EventKind, value: u64) {
    recorder.emit(
        &format!("sensor_net.timeline.{kind}"),
        None,
        &[
            ("frame", &frame.to_string()),
            ("node", &frame.node.to_string()),
            ("kind", kind.as_str()),
            ("value", &value.to_string()),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, MetricsRecorder};
    use std::sync::{Arc, Mutex};

    fn fid(node: u32, epoch: u32, seq: u64) -> FrameId {
        FrameId::new(node, epoch, seq)
    }

    #[test]
    fn frame_id_round_trips_through_display() {
        let id = fid(3, 1, 42);
        assert_eq!(id.to_string(), "3:1:42");
        assert_eq!("3:1:42".parse::<FrameId>().unwrap(), id);
        for bad in ["", "1:2", "1:2:3:4", "a:2:3", "1:b:3", "1:2:c", ":::"] {
            assert!(bad.parse::<FrameId>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        use EventKind::*;
        for k in [
            Encoded, Queued, Tx, Retx, Dropped, Dup, Corrupt, Acked, Decoded, Persisted, Resynced,
        ] {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("warp"), None);
    }

    #[test]
    fn frame_event_writes_one_trace_line() {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let rec = MetricsRecorder::with_trace_writer(Box::new(SharedBuf(Arc::clone(&buf))));
        frame_event(&rec, fid(3, 1, 42), EventKind::Retx, 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let v = json::parse(text.trim()).unwrap();
        let field = |k: &str| v.get(k).and_then(json::Value::as_str).map(str::to_owned);
        assert_eq!(field("name").as_deref(), Some("sensor_net.timeline.retx"));
        assert_eq!(field("frame").as_deref(), Some("3:1:42"));
        assert_eq!(field("node").as_deref(), Some("3"));
        assert_eq!(field("kind").as_deref(), Some("retx"));
        assert_eq!(field("value").as_deref(), Some("2"));
        assert!(v.get("dur_ns").is_none());
    }

    /// A trace sink the test can read back.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(data);
            Ok(data.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
