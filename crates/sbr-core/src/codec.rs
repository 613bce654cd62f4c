//! Wire codec: a compact, self-describing binary framing for
//! [`Transmission`]s, suitable for the radio link of the sensor-network
//! substrate and for the base station's append-only log files.
//!
//! Every writer emits v2 ([`encode_v2`]): a frame kind, a resync epoch,
//! an optional base-signal snapshot, and a trailing CRC-32 over every
//! preceding byte, so any single-byte corruption is detected instead of
//! decoding to garbage. Layout (little-endian):
//!
//! ```text
//! magic  u32  = 0x53_42_52_32 ("SBR2")
//! kind   u8    0 = data, 1 = resync
//! epoch  u32   resync generation
//! seq    u64
//! n      u32   signals
//! m      u32   samples per signal
//! w      u32   base-interval width
//! ns     u32   snapshot slots (resync only, else 0)
//! nu     u32   base updates
//! ni     u32   interval records
//! ns × ( w × f64 )                          base-signal snapshot
//! nu × { slot u64, w × f64 }
//! ni × { start u64, shift i64, a f64, b f64 }
//! crc    u32   CRC-32 (IEEE) of all preceding bytes
//! ```
//!
//! This is the one wire format, and [`decode_exact`] is its one reader:
//! one frame per buffer, bytes after the frame or any other magic are
//! [`SbrError::Corrupt`].

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Result, SbrError};
use crate::interval::IntervalRecord;
use crate::transmission::{BaseUpdate, Frame, FrameKind, Transmission};

/// v2 frame magic: "SBR2".
pub const MAGIC_V2: u32 = 0x5342_5232;

/// v2 header size in bytes (magic through `ni`).
const V2_HEADER: usize = 4 + 1 + 4 + 8 + 4 * 6;

/// One byte's worth of the bitwise CRC-32 (IEEE 802.3, reflected
/// polynomial 0xEDB88320) register update: `crc_byte(x)` is entry `x` of
/// the classic bytewise table.
const fn crc_byte(mut c: u32) -> u32 {
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

/// Slicing-by-8 lookup tables, built at compile time — the stack stays
/// std-only. `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[t][x]`
/// is the register after byte `x` followed by `t` zero bytes, so eight
/// independent lookups fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = crc_byte(i as u32);
        let mut t = 0;
        while t < 8 {
            // lint:allow(index): const-eval loops, t < 8 and i < 256 by the while bounds
            tables[t][i] = c;
            c = (c >> 8) ^ crc_byte(c & 0xFF);
            t += 1;
        }
        i += 1;
    }
    tables
};

/// Entry `b` of one 256-entry table: a `u8` subscript is always in range.
fn at(table: &[u32; 256], b: u8) -> u32 {
    // lint:allow(index): usize::from(u8) < 256, the table's length
    table[usize::from(b)]
}

/// Incremental CRC-32 hasher used while reading fields off a generic
/// [`Buf`]; [`crc32`] is the one-shot convenience over a slice.
#[derive(Debug, Clone)]
struct Crc32 {
    state: u32,
}

impl Crc32 {
    fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Slicing-by-8: each 8-byte word costs eight independent table
    /// lookups; a tail of fewer than 8 bytes takes the bytewise step.
    fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let (words, tail) = bytes.as_chunks::<8>();
        let mut c = self.state;
        for &[b0, b1, b2, b3, b4, b5, b6, b7] in words {
            let [x0, x1, x2, x3] = (c ^ u32::from_le_bytes([b0, b1, b2, b3])).to_le_bytes();
            c = at(t7, x0)
                ^ at(t6, x1)
                ^ at(t5, x2)
                ^ at(t4, x3)
                ^ at(t3, b4)
                ^ at(t2, b5)
                ^ at(t1, b6)
                ^ at(t0, b7);
        }
        for &b in tail {
            c = at(t0, (c as u8) ^ b) ^ (c >> 8);
        }
        self.state = c;
    }

    fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32 (IEEE) of a byte slice. `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(SbrError::Corrupt(format!(
            "truncated frame: needed {n} bytes for {what}, {} left",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

/// Serialized size of a v2 frame in bytes (header + snapshot + payload +
/// CRC trailer).
pub fn encoded_len_v2(frame: &Frame) -> usize {
    V2_HEADER
        + 8 * frame.snapshot.len()
        + frame
            .tx
            .base_updates
            .iter()
            .map(|u| 8 + 8 * u.values.len())
            .sum::<usize>()
        + frame.tx.intervals.len() * 32
        + 4
}

/// Serialize a v2 frame, appending a CRC-32 of everything written.
///
/// # Panics
///
/// If the snapshot length is not a multiple of `tx.w`, or a data frame
/// carries a snapshot — both are programmer errors, not wire conditions.
pub fn encode_v2(frame: &Frame) -> Bytes {
    // lint:allow(cast-truncation): u32 -> usize widens on this 64-bit target
    let w = frame.tx.w as usize;
    assert!(
        w > 0 && frame.snapshot.len().is_multiple_of(w),
        "snapshot length {} is not a multiple of W = {w}",
        frame.snapshot.len()
    );
    assert!(
        frame.kind == FrameKind::Resync || frame.snapshot.is_empty(),
        "data frames must not carry a base-signal snapshot"
    );
    let mut buf = BytesMut::with_capacity(encoded_len_v2(frame));
    buf.put_u32_le(MAGIC_V2);
    buf.put_u8(match frame.kind {
        FrameKind::Data => 0,
        FrameKind::Resync => 1,
    });
    buf.put_u32_le(frame.epoch);
    buf.put_u64_le(frame.tx.seq);
    buf.put_u32_le(frame.tx.n_signals);
    buf.put_u32_le(frame.tx.samples_per_signal);
    buf.put_u32_le(frame.tx.w);
    // lint:allow(panic-reachability): w asserted positive at function entry
    buf.put_u32_le((frame.snapshot.len() / w) as u32); // lint:allow(cast-truncation): snapshot rows are memory-bounded below u32::MAX
                                                       // lint:allow(cast-truncation): counts are memory-bounded far below u32::MAX; encode is infallible by contract
    buf.put_u32_le(frame.tx.base_updates.len() as u32);
    buf.put_u32_le(frame.tx.intervals.len() as u32); // lint:allow(cast-truncation): same bound as the update count above
    for &v in &frame.snapshot {
        buf.put_f64_le(v);
    }
    for u in &frame.tx.base_updates {
        buf.put_u64_le(u.slot);
        for &v in &u.values {
            buf.put_f64_le(v);
        }
    }
    for r in &frame.tx.intervals {
        buf.put_u64_le(r.start);
        buf.put_i64_le(r.shift);
        buf.put_f64_le(r.a);
        buf.put_f64_le(r.b);
    }
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.freeze()
}

/// Peek a v2 frame's trace identity — `(is_resync, epoch, seq)` — from
/// its first 17 header bytes, without a full parse or CRC check. Returns
/// `None` for short buffers or a non-v2 magic. Observability layers use
/// this to attribute lifecycle events to a `(node, epoch, seq)` frame id
/// without paying for a decode; a corrupted frame may yield a garbled
/// identity, which is exactly what a corruption event should report.
pub fn peek_v2_identity(bytes: &[u8]) -> Option<(bool, u32, u64)> {
    let magic = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?);
    if magic != MAGIC_V2 {
        return None;
    }
    let kind = *bytes.get(4)?;
    let epoch = u32::from_le_bytes(bytes.get(5..9)?.try_into().ok()?);
    let seq = u64::from_le_bytes(bytes.get(9..17)?.try_into().ok()?);
    Some((kind == 1, epoch, seq))
}

/// Read `N` bytes off the buffer, feeding them through the CRC hasher.
fn take<const N: usize>(buf: &mut impl Buf, crc: &mut Crc32) -> [u8; N] {
    let mut bytes = [0u8; N];
    buf.copy_to_slice(&mut bytes);
    crc.update(&bytes);
    bytes
}

fn take_u32(buf: &mut impl Buf, crc: &mut Crc32) -> u32 {
    u32::from_le_bytes(take(buf, crc))
}

fn take_u64(buf: &mut impl Buf, crc: &mut Crc32) -> u64 {
    u64::from_le_bytes(take(buf, crc))
}

fn take_i64(buf: &mut impl Buf, crc: &mut Crc32) -> i64 {
    i64::from_le_bytes(take(buf, crc))
}

fn take_f64(buf: &mut impl Buf, crc: &mut Crc32) -> f64 {
    f64::from_le_bytes(take(buf, crc))
}

/// Parse one v2 frame, consuming exactly its bytes and verifying the
/// trailing CRC-32 before anything is returned.
fn decode_v2(buf: &mut impl Buf) -> Result<Frame> {
    need(buf, 4, "magic")?;
    let mut crc = Crc32::new();
    let magic = take_u32(buf, &mut crc);
    if magic != MAGIC_V2 {
        return Err(SbrError::Corrupt(format!("bad magic {magic:#010x}")));
    }
    need(buf, V2_HEADER - 4, "header")?;
    // lint:allow(index): take::<1> returns [u8; 1], index 0 always exists
    let kind = match take::<1>(buf, &mut crc)[0] {
        0 => FrameKind::Data,
        1 => FrameKind::Resync,
        k => return Err(SbrError::Corrupt(format!("unknown frame kind {k}"))),
    };
    let epoch = take_u32(buf, &mut crc);
    let seq = take_u64(buf, &mut crc);
    let n_signals = take_u32(buf, &mut crc);
    let samples_per_signal = take_u32(buf, &mut crc);
    let w = take_u32(buf, &mut crc);
    let ns = take_u32(buf, &mut crc) as usize;
    let nu = take_u32(buf, &mut crc) as usize;
    let ni = take_u32(buf, &mut crc) as usize;
    if w == 0 || n_signals == 0 || samples_per_signal == 0 {
        return Err(SbrError::Corrupt("zero dimension in header".into()));
    }
    if kind == FrameKind::Data && ns != 0 {
        return Err(SbrError::Corrupt(
            "data frame declares a base-signal snapshot".into(),
        ));
    }
    let w_us = usize::try_from(w).map_err(|_| SbrError::Corrupt("W overflows usize".into()))?;
    // Declared sizes come straight off the wire — checked arithmetic, and
    // the whole payload (incl. the CRC trailer) must fit the buffer before
    // any allocation happens.
    let declared = ns
        .checked_mul(8 * w_us)
        .and_then(|s| nu.checked_mul(8 + 8 * w_us).and_then(|u| s.checked_add(u)))
        .and_then(|su| ni.checked_mul(32).and_then(|i| su.checked_add(i)))
        .and_then(|p| p.checked_add(4))
        .ok_or_else(|| SbrError::Corrupt("declared payload size overflows".into()))?;
    need(buf, declared, "payload")?;

    // `declared` fitting the buffer bounds ns * w_us without overflow.
    let mut snapshot = Vec::with_capacity(ns * w_us);
    for _ in 0..ns * w_us {
        snapshot.push(take_f64(buf, &mut crc));
    }
    let mut base_updates = Vec::with_capacity(nu);
    for _ in 0..nu {
        let slot = take_u64(buf, &mut crc);
        let mut values = Vec::with_capacity(w_us);
        for _ in 0..w {
            values.push(take_f64(buf, &mut crc));
        }
        base_updates.push(BaseUpdate { slot, values });
    }
    let mut intervals = Vec::with_capacity(ni);
    for _ in 0..ni {
        intervals.push(IntervalRecord {
            start: take_u64(buf, &mut crc),
            shift: take_i64(buf, &mut crc),
            a: take_f64(buf, &mut crc),
            b: take_f64(buf, &mut crc),
        });
    }
    let computed = crc.finish();
    let stored = buf.get_u32_le();
    if computed != stored {
        return Err(SbrError::Corrupt(format!(
            "crc mismatch: computed {computed:#010x}, frame carries {stored:#010x}"
        )));
    }
    Ok(Frame {
        epoch,
        kind,
        snapshot,
        tx: Transmission {
            seq,
            n_signals,
            samples_per_signal,
            w,
            base_updates,
            intervals,
        },
    })
}

/// Parse a buffer that holds exactly one frame: bytes left after the
/// frame are [`SbrError::Corrupt`]. Every reader of frames (the station,
/// store replay, the `.sbr` readers) admits them through this.
pub fn decode_exact(mut bytes: &[u8]) -> Result<Frame> {
    let frame = decode_v2(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(SbrError::Corrupt(format!(
            "{} trailing bytes after the frame",
            bytes.len()
        )));
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Transmission {
        Transmission {
            seq: 42,
            n_signals: 3,
            samples_per_signal: 64,
            w: 4,
            base_updates: vec![
                BaseUpdate {
                    slot: 0,
                    values: vec![1.0, -2.5, 3.25, 0.0],
                },
                BaseUpdate {
                    slot: 7,
                    values: vec![f64::MIN_POSITIVE, 1e300, -1e-300, 0.5],
                },
            ],
            intervals: vec![
                IntervalRecord {
                    start: 0,
                    shift: -1,
                    a: 1.5,
                    b: -0.25,
                },
                IntervalRecord {
                    start: 64,
                    shift: 3,
                    a: 0.0,
                    b: 9.75,
                },
            ],
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_v2(&Frame::data(0, sample())).to_vec();
        bytes[0] ^= 0xff;
        assert!(decode_v2(&mut &bytes[..]).is_err());
        assert!(decode_exact(&bytes).is_err());
    }

    #[test]
    fn zero_dims_rejected() {
        // Zero each of n, m and w (header bytes 17, 21, 25) and re-seal
        // the CRC, so only the dimension check can refuse the frame.
        let good = encode_v2(&Frame::data(0, sample())).to_vec();
        for at in [17, 21, 25] {
            let mut bytes = good.clone();
            bytes[at..at + 4].fill(0);
            let body = bytes.len() - 4;
            let crc = crc32(&bytes[..body]);
            bytes[body..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(decode_v2(&mut &bytes[..]), Err(SbrError::Corrupt(e)) if e.contains("zero dimension")),
                "zeroed dimension at byte {at} accepted"
            );
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let frame = Frame::data(
            0,
            Transmission {
                seq: 0,
                n_signals: 1,
                samples_per_signal: 1,
                w: 1,
                base_updates: vec![],
                intervals: vec![],
            },
        );
        let bytes = encode_v2(&frame);
        assert_eq!(decode_v2(&mut bytes.clone()).unwrap(), frame);
    }

    #[test]
    fn back_to_back_frames_parse() {
        let mut t1 = sample();
        t1.seq = 43;
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&encode_v2(&Frame::data(0, sample())));
        stream.extend_from_slice(&encode_v2(&Frame::data(0, t1)));
        let mut buf = stream.freeze();
        assert_eq!(decode_v2(&mut buf).unwrap().tx.seq, 42);
        assert_eq!(decode_v2(&mut buf).unwrap().tx.seq, 43);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn decode_exact_refuses_bytes_after_the_frame() {
        let frame = Frame::data(0, sample());
        let bytes = encode_v2(&frame);
        assert_eq!(decode_exact(&bytes).unwrap(), frame);
        for extra in [&[0u8][..], &[1, 2, 3], &bytes[..]] {
            let mut padded = bytes.to_vec();
            padded.extend_from_slice(extra);
            let err = decode_exact(&padded).unwrap_err();
            assert!(
                matches!(&err, SbrError::Corrupt(m) if m.contains(&format!("{} trailing", extra.len()))),
                "{err}"
            );
        }
    }

    // ---------------- v2 ----------------

    fn sample_frame() -> Frame {
        Frame::resync(3, vec![0.5, -1.5, 2.0, 0.25, 9.0, -3.0, 1.0, 4.0], sample())
    }

    #[test]
    fn crc32_known_answer() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bitwise CRC-32 (one shift per bit, no tables): the reference the
    /// slicing-by-8 kernel must agree with.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        // A fixed xorshift buffer. Every length 0..=256 from every start
        // offset 0..8 covers every word count and every tail length.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..264)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()[7]
            })
            .collect();
        for start in 0..8 {
            for len in 0..=256 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference_crc32(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn crc32_of_a_frame_split_anywhere_equals_one_shot() {
        let bytes = encode_v2(&sample_frame());
        let whole = crc32(&bytes);
        assert_eq!(whole, reference_crc32(&bytes));
        for cut in 0..=bytes.len() {
            let mut h = Crc32::new();
            h.update(&bytes[..cut]);
            h.update(&bytes[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
    }

    #[test]
    fn v2_roundtrip_data_and_resync() {
        for frame in [Frame::data(7, sample()), sample_frame()] {
            let bytes = encode_v2(&frame);
            assert_eq!(bytes.len(), encoded_len_v2(&frame));
            let mut buf = bytes.clone();
            assert_eq!(decode_v2(&mut buf).unwrap(), frame);
            assert_eq!(buf.remaining(), 0);
            // decode_exact takes the same bytes.
            assert_eq!(decode_exact(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn v2_truncation_rejected_everywhere() {
        let bytes = encode_v2(&sample_frame());
        for cut in 0..bytes.len() {
            let mut short = &bytes[..cut];
            assert!(decode_v2(&mut short).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn v2_every_byte_is_crc_protected() {
        let bytes = encode_v2(&sample_frame()).to_vec();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_v2(&mut &bad[..]).is_err(),
                "flip at byte {i} decoded silently"
            );
        }
    }

    #[test]
    fn v2_data_frame_with_snapshot_rejected() {
        // Hand-corrupt the kind byte of a resync frame to Data and re-seal
        // the CRC: the parser must still reject the snapshot.
        let mut bytes = encode_v2(&sample_frame()).to_vec();
        bytes[4] = 0;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]).to_le_bytes();
        bytes[n - 4..].copy_from_slice(&crc);
        let err = decode_v2(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, SbrError::Corrupt(m) if m.contains("snapshot")));
    }

    #[test]
    fn v2_unknown_kind_rejected() {
        let mut bytes = encode_v2(&Frame::data(0, sample())).to_vec();
        bytes[4] = 2;
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]).to_le_bytes();
        bytes[n - 4..].copy_from_slice(&crc);
        assert!(decode_v2(&mut &bytes[..]).is_err());
    }

    #[test]
    fn peek_identity_matches_full_decode() {
        let data = encode_v2(&Frame::data(7, sample()));
        let seq = sample().seq;
        assert_eq!(peek_v2_identity(&data), Some((false, 7, seq)));
        let resync = encode_v2(&sample_frame());
        let parsed = decode_v2(&mut resync.clone()).unwrap();
        assert_eq!(
            peek_v2_identity(&resync),
            Some((true, parsed.epoch, parsed.tx.seq))
        );
        // Short buffers and foreign magics peek as None, never panic.
        assert_eq!(peek_v2_identity(&data[..10]), None);
        assert_eq!(peek_v2_identity(&[]), None);
        let mut foreign = data.to_vec();
        foreign[0] ^= 0xff;
        assert_eq!(peek_v2_identity(&foreign), None);
    }

    #[test]
    fn v2_hostile_declared_lengths_rejected() {
        // A v2 header declaring huge counts over a tiny buffer must fail
        // the size guard, not allocate.
        let mut raw = BytesMut::new();
        raw.put_u32_le(MAGIC_V2);
        raw.put_u8(1);
        raw.put_u32_le(1); // epoch
        raw.put_u64_le(0); // seq
        raw.put_u32_le(1); // n
        raw.put_u32_le(1); // m
        raw.put_u32_le(u32::MAX); // w
        raw.put_u32_le(u32::MAX); // ns
        raw.put_u32_le(u32::MAX); // nu
        raw.put_u32_le(u32::MAX); // ni
        assert!(decode_v2(&mut raw.freeze()).is_err());
    }
}
