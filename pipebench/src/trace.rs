//! In-memory span tracer around the benchmark's own calls into each layer.
//!
//! Every call the benchmark makes into the program under test is wrapped
//! in [`Tracer::span`]: name (the [`Layer`]), start, end, parent span and,
//! where one frame is concerned, its [`FrameId`]. Per-layer totals are
//! folded online (calls, wall, self time, every call's duration), so a run
//! with millions of spans keeps only a bounded sample of raw span records
//! for the spans file. Self time is a span's duration minus the time its
//! child spans cover; the root [`Layer::Run`] span's self time is the part
//! of the timed wall no layer and no generator span accounts for.
//!
//! A disabled tracer costs one branch per call. Either way the tracer can
//! add a fixed busy-wait inside one layer's wrapper ([`Tracer::inject`]),
//! which is how the attribution test seeds a single-layer regression.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use sbr_obs::FrameId;

/// The layers the benchmark calls into, plus its own generator time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Root span of one timed segment.
    Run,
    /// The benchmark's own work: sample generation, ARQ bookkeeping,
    /// query drawing, latency bookkeeping.
    Gen,
    /// `SensorNode::record` calls that only buffer.
    NodeBuffer,
    /// The `SensorNode::record` call that fills the buffer and flushes
    /// (SBR encode + v2 framing).
    NodeFlush,
    /// `LossyLink::hop`, frames and ACKs alike.
    LinkHop,
    /// `FaultPlan::channel` / `FaultPlan::drain`.
    LinkChannel,
    /// The cumulative ACK: `SensorNode::ack(station.epoch, station.next_seq)`.
    LinkAck,
    /// `BaseStation::receive_frame` (decode, index ingest, segment
    /// append/seal/checkpoint).
    StationReceive,
    /// Dropping a persistent station (closing its segment writers).
    StationClose,
    /// `BaseStation::load`.
    StorageLoad,
    /// The first cold read after a load (hydrates one sensor's history).
    StorageHydrate,
    /// `BaseStation::aggregate_range`.
    Query,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 12] = [
        Layer::NodeBuffer,
        Layer::NodeFlush,
        Layer::LinkHop,
        Layer::LinkChannel,
        Layer::LinkAck,
        Layer::StationReceive,
        Layer::StationClose,
        Layer::StorageLoad,
        Layer::StorageHydrate,
        Layer::Query,
        Layer::Gen,
        Layer::Run,
    ];

    /// Row name in the per-layer table and the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::Gen => "gen",
            Layer::NodeBuffer => "node.buffer",
            Layer::NodeFlush => "node.flush",
            Layer::LinkHop => "link.hop",
            Layer::LinkChannel => "link.channel",
            Layer::LinkAck => "link.ack",
            Layer::StationReceive => "station.receive",
            Layer::StationClose => "station.close",
            Layer::StorageLoad => "storage.load",
            Layer::StorageHydrate => "storage.hydrate",
            Layer::Query => "query",
        }
    }

    /// Parse a row name (for `--inject`).
    pub fn parse(name: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Folded per-layer totals.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations, nanoseconds.
    pub wall_ns: u64,
    /// Sum of span self times (duration minus children), nanoseconds.
    pub self_ns: u64,
    /// Every span's duration, nanoseconds, in close order.
    pub walls: Vec<u64>,
    /// Bytes handed to the layer.
    pub bytes_in: u64,
    /// Bytes the layer handed back or wrote.
    pub bytes_out: u64,
}

/// One raw span, as written to the spans file.
#[derive(Clone, Copy, Debug)]
struct SpanRecord {
    id: u64,
    parent: Option<u64>,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    frame: Option<FrameId>,
}

#[derive(Debug)]
struct Open {
    id: u64,
    layer: Layer,
    start: Instant,
    child_ns: u64,
    frame: Option<FrameId>,
}

/// Raw span records kept for the spans file; the rest are only folded.
const SPAN_SAMPLE_CAP: usize = 200_000;

/// The tracer. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    stack: Vec<Open>,
    stats: Vec<LayerStats>,
    spans: Vec<SpanRecord>,
    next_id: u64,
    dropped_spans: u64,
    inject: Option<(Layer, Duration)>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`, and busy-waits
    /// `inject.1` inside every `inject.0` wrapper either way.
    pub fn new(enabled: bool, inject: Option<(Layer, Duration)>) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            stack: Vec::new(),
            stats: vec![LayerStats::default(); Layer::ALL.len()],
            spans: Vec::new(),
            next_id: 0,
            dropped_spans: 0,
            inject,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a `layer` span.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: Layer,
        frame: Option<FrameId>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            self.maybe_inject(layer);
            return f(self);
        }
        self.open(layer, frame);
        self.maybe_inject(layer);
        let out = f(self);
        self.close();
        out
    }

    /// Attach a frame identity to the innermost open span (for calls that
    /// only learn it from their result, like the flushing `record`).
    pub fn tag_frame(&mut self, frame: FrameId) {
        if let Some(top) = self.stack.last_mut() {
            top.frame = Some(frame);
        }
    }

    /// Count bytes flowing into and out of `layer`.
    pub fn bytes(&mut self, layer: Layer, bytes_in: u64, bytes_out: u64) {
        if self.enabled {
            let s = &mut self.stats[layer.index()];
            s.bytes_in += bytes_in;
            s.bytes_out += bytes_out;
        }
    }

    #[inline]
    fn maybe_inject(&self, layer: Layer) {
        if let Some((target, delay)) = self.inject {
            if target == layer {
                let start = Instant::now();
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
            }
        }
    }

    fn open(&mut self, layer: Layer, frame: Option<FrameId>) {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            layer,
            start: Instant::now(),
            child_ns: 0,
            frame,
        });
    }

    fn close(&mut self) {
        let end = Instant::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.id
        });
        let s = &mut self.stats[open.layer.index()];
        s.calls += 1;
        s.wall_ns += dur;
        s.self_ns += dur.saturating_sub(open.child_ns);
        s.walls.push(dur);
        if self.spans.len() < SPAN_SAMPLE_CAP {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(SpanRecord {
                id: open.id,
                parent,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + dur,
                frame: open.frame,
            });
        } else {
            self.dropped_spans += 1;
        }
    }

    /// Folded totals for `layer`.
    pub fn stats(&self, layer: Layer) -> &LayerStats {
        &self.stats[layer.index()]
    }

    /// Spans closed in total (recorded or only folded).
    pub fn span_count(&self) -> u64 {
        self.next_id
    }

    /// Write the kept raw spans as JSON lines; returns how many were
    /// written and how many were only folded.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<(usize, u64)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            write!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.id,
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
            if let Some(p) = s.parent {
                write!(out, ",\"parent\":{p}")?;
            }
            if let Some(f) = s.frame {
                write!(out, ",\"frame\":\"{f}\"")?;
            }
            writeln!(out, "}}")?;
        }
        out.flush()?;
        Ok((self.spans.len(), self.dropped_spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let s = Instant::now();
        while s.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, None);
        t.span(Layer::Run, None, |t| {
            t.span(Layer::Gen, None, |t| {
                spin(Duration::from_millis(2));
                t.span(Layer::Query, None, |_| spin(Duration::from_millis(3)));
            });
        });
        let run = t.stats(Layer::Run);
        let gen = t.stats(Layer::Gen);
        let q = t.stats(Layer::Query);
        assert_eq!((run.calls, gen.calls, q.calls), (1, 1, 1));
        assert!(q.self_ns >= 3_000_000);
        assert!(gen.self_ns >= 2_000_000 && gen.self_ns < gen.wall_ns);
        assert_eq!(gen.wall_ns, gen.self_ns + q.wall_ns);
        assert_eq!(run.wall_ns, run.self_ns + gen.wall_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_injects() {
        let mut t = Tracer::new(false, Some((Layer::Query, Duration::from_millis(2))));
        let start = Instant::now();
        let v = t.span(Layer::Query, None, |_| 7);
        assert_eq!(v, 7);
        assert!(start.elapsed() >= Duration::from_millis(2));
        assert_eq!(t.stats(Layer::Query).calls, 0);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn frame_tags_land_on_the_innermost_span() {
        let mut t = Tracer::new(true, None);
        t.span(Layer::NodeFlush, None, |t| {
            t.tag_frame(FrameId::new(3, 1, 9))
        });
        assert_eq!(t.spans[0].frame, Some(FrameId::new(3, 1, 9)));
    }
}
