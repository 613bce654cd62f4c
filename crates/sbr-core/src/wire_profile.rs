//! Reduced-precision wire profiles.
//!
//! The paper's bandwidth accounting is in abstract *values*; a real mote
//! radio counts bytes. This module provides lossy-but-bounded byte-level
//! profiles on top of the exact [`crate::codec`] frame:
//!
//! * [`Profile::F64`] — the exact v2 data frame (8 bytes/value, plus its
//!   header and CRC-32),
//! * [`Profile::F32`] — regression parameters and base samples as `f32`
//!   (4 bytes/value; relative error ≤ 2⁻²⁴ per value),
//! * [`Profile::Q16`] — base samples and intercepts quantized to 16-bit
//!   fixed point against a per-block affine range (2 bytes/value +
//!   16 bytes of range per block); slopes stay `f32` because their dynamic
//!   range is unbounded.
//!
//! Every profile shares one outer framing (`magic ∥ profile-id ∥ payload`)
//! so a decoder can auto-detect what it received. Quantization error is
//! *bounded and testable*: for a block with range `[lo, hi]`,
//! `|v − v̂| ≤ (hi − lo) / 2 / (2¹⁶ − 1)`.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec;
use crate::error::{Result, SbrError};
use crate::interval::IntervalRecord;
use crate::transmission::{BaseUpdate, Frame, FrameKind, Transmission};

/// Outer magic for profiled frames ("SBRP").
pub const PROFILE_MAGIC: u32 = 0x5342_5250;

/// Value-precision profile of a wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Exact `f64` payload (wraps a v2 data frame of epoch 0).
    F64,
    /// `f32` payload.
    F32,
    /// 16-bit fixed point for base samples and intercepts.
    Q16,
}

impl Profile {
    fn id(self) -> u8 {
        match self {
            Profile::F64 => 0,
            Profile::F32 => 1,
            Profile::Q16 => 2,
        }
    }

    fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(Profile::F64),
            1 => Ok(Profile::F32),
            2 => Ok(Profile::Q16),
            other => Err(SbrError::Corrupt(format!("unknown wire profile {other}"))),
        }
    }
}

/// Serialize under the chosen profile.
///
/// ```
/// use sbr_core::wire_profile::{decode, encode, Profile};
/// use sbr_core::{SbrConfig, SbrEncoder};
/// let rows = vec![(0..64).map(|i| (i as f64 * 0.2).sin()).collect::<Vec<_>>()];
/// let mut enc = SbrEncoder::new(1, 64, SbrConfig::new(32, 24)).unwrap();
/// let tx = enc.encode(&rows).unwrap();
/// let exact = encode(&tx, Profile::F64);
/// let small = encode(&tx, Profile::F32);
/// assert!(small.len() < exact.len());
/// assert_eq!(decode(&mut exact.clone()).unwrap(), tx);
/// ```
pub fn encode(tx: &Transmission, profile: Profile) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u32_le(PROFILE_MAGIC);
    buf.put_u8(profile.id());
    match profile {
        Profile::F64 => buf.extend_from_slice(&codec::encode_v2(&Frame::data(0, tx.clone()))),
        Profile::F32 => encode_f32(tx, &mut buf),
        Profile::Q16 => encode_q16(tx, &mut buf),
    }
    buf.freeze()
}

/// Parse a profiled frame (auto-detecting the profile).
pub fn decode(buf: &mut impl Buf) -> Result<Transmission> {
    if buf.remaining() < 5 {
        return Err(SbrError::Corrupt("truncated profiled frame".into()));
    }
    let magic = buf.get_u32_le();
    if magic != PROFILE_MAGIC {
        return Err(SbrError::Corrupt(format!(
            "bad profile magic {magic:#010x}"
        )));
    }
    let profile = Profile::from_id(buf.get_u8())?;
    match profile {
        Profile::F64 => match codec::decode_v2(buf)? {
            f if f.kind == FrameKind::Data && f.epoch == 0 => Ok(f.tx),
            _ => Err(SbrError::Corrupt("F64 profile wraps epoch-0 data".into())),
        },
        Profile::F32 => decode_f32(buf),
        Profile::Q16 => decode_q16(buf),
    }
}

/// Worst-case absolute reconstruction error Q16 introduces for one base
/// sample within a block spanning `[lo, hi]`.
pub fn q16_error_bound(lo: f64, hi: f64) -> f64 {
    (hi - lo) / 2.0 / (u16::MAX as f64)
}

// ---------------------------------------------------------------------------

fn put_header(tx: &Transmission, buf: &mut BytesMut) {
    buf.put_u64_le(tx.seq);
    buf.put_u32_le(tx.n_signals);
    buf.put_u32_le(tx.samples_per_signal);
    buf.put_u32_le(tx.w);
    buf.put_u32_le(tx.base_updates.len() as u32);
    buf.put_u32_le(tx.intervals.len() as u32);
}

struct Header {
    seq: u64,
    n_signals: u32,
    samples_per_signal: u32,
    w: u32,
    nu: usize,
    ni: usize,
}

fn get_header(buf: &mut impl Buf) -> Result<Header> {
    if buf.remaining() < 8 + 4 * 5 {
        return Err(SbrError::Corrupt("truncated profile header".into()));
    }
    let seq = buf.get_u64_le();
    let n_signals = buf.get_u32_le();
    let samples_per_signal = buf.get_u32_le();
    let w = buf.get_u32_le();
    let nu = buf.get_u32_le() as usize;
    let ni = buf.get_u32_le() as usize;
    if w == 0 || n_signals == 0 || samples_per_signal == 0 {
        return Err(SbrError::Corrupt("zero dimension in profile header".into()));
    }
    Ok(Header {
        seq,
        n_signals,
        samples_per_signal,
        w,
        nu,
        ni,
    })
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(SbrError::Corrupt(format!(
            "truncated profiled frame: needed {n} bytes for {what}"
        )))
    } else {
        Ok(())
    }
}

fn encode_f32(tx: &Transmission, buf: &mut BytesMut) {
    put_header(tx, buf);
    for u in &tx.base_updates {
        buf.put_u32_le(u.slot as u32);
        for &v in &u.values {
            buf.put_f32_le(v as f32);
        }
    }
    for r in &tx.intervals {
        buf.put_u32_le(r.start as u32);
        buf.put_i32_le(r.shift as i32);
        buf.put_f32_le(r.a as f32);
        buf.put_f32_le(r.b as f32);
    }
}

fn decode_f32(buf: &mut impl Buf) -> Result<Transmission> {
    let h = get_header(buf)?;
    let declared =
        h.nu.checked_mul(4 + 4 * h.w as usize)
            .and_then(|a| h.ni.checked_mul(16).and_then(|b| a.checked_add(b)))
            .ok_or_else(|| SbrError::Corrupt("declared f32 payload overflows".into()))?;
    need(buf, declared, "f32 payload")?;
    let mut base_updates = Vec::with_capacity(h.nu);
    for _ in 0..h.nu {
        let slot = u64::from(buf.get_u32_le());
        let values = (0..h.w).map(|_| f64::from(buf.get_f32_le())).collect();
        base_updates.push(BaseUpdate { slot, values });
    }
    let mut intervals = Vec::with_capacity(h.ni);
    for _ in 0..h.ni {
        intervals.push(IntervalRecord {
            start: u64::from(buf.get_u32_le()),
            shift: i64::from(buf.get_i32_le()),
            a: f64::from(buf.get_f32_le()),
            b: f64::from(buf.get_f32_le()),
        });
    }
    Ok(Transmission {
        seq: h.seq,
        n_signals: h.n_signals,
        samples_per_signal: h.samples_per_signal,
        w: h.w,
        base_updates,
        intervals,
    })
}

/// Quantize a block of values to u16 against its own range.
fn quantize_block(values: &[f64], buf: &mut BytesMut) {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    buf.put_f64_le(lo);
    buf.put_f64_le(hi);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    for &v in values {
        let q = ((v - lo) / span * f64::from(u16::MAX)).round() as u16;
        buf.put_u16_le(q);
    }
}

fn dequantize_block(buf: &mut impl Buf, n: usize) -> Result<Vec<f64>> {
    let declared = n
        .checked_mul(2)
        .and_then(|b| b.checked_add(16))
        .ok_or_else(|| SbrError::Corrupt("declared q16 block overflows".into()))?;
    need(buf, declared, "q16 block")?;
    let lo = buf.get_f64_le();
    let hi = buf.get_f64_le();
    if !lo.is_finite() || !hi.is_finite() || hi < lo {
        return Err(SbrError::Corrupt(format!("invalid q16 range [{lo}, {hi}]")));
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    Ok((0..n)
        .map(|_| lo + f64::from(buf.get_u16_le()) / f64::from(u16::MAX) * span)
        .collect())
}

fn encode_q16(tx: &Transmission, buf: &mut BytesMut) {
    put_header(tx, buf);
    for u in &tx.base_updates {
        buf.put_u32_le(u.slot as u32);
        quantize_block(&u.values, buf);
    }
    // Intercepts quantized as one block; slopes as f32; starts/shifts exact.
    let intercepts: Vec<f64> = tx.intervals.iter().map(|r| r.b).collect();
    quantize_block(&intercepts, buf);
    for r in &tx.intervals {
        buf.put_u32_le(r.start as u32);
        buf.put_i32_le(r.shift as i32);
        buf.put_f32_le(r.a as f32);
    }
}

fn decode_q16(buf: &mut impl Buf) -> Result<Transmission> {
    let h = get_header(buf)?;
    // Upfront bound before any allocation: each update needs at least
    // slot + range + 2·W bytes, each record 12, plus the intercept block.
    let declared =
        h.nu.checked_mul(4 + 16 + 2 * h.w as usize)
            .and_then(|a| h.ni.checked_mul(12 + 2).and_then(|b| a.checked_add(b)))
            .and_then(|a| a.checked_add(16))
            .ok_or_else(|| SbrError::Corrupt("declared q16 payload overflows".into()))?;
    need(buf, declared, "q16 payload")?;
    let mut base_updates = Vec::with_capacity(h.nu);
    for _ in 0..h.nu {
        need(buf, 4, "q16 slot")?;
        let slot = u64::from(buf.get_u32_le());
        let values = dequantize_block(buf, h.w as usize)?;
        base_updates.push(BaseUpdate { slot, values });
    }
    let intercepts = dequantize_block(buf, h.ni)?;
    let declared =
        h.ni.checked_mul(12)
            .ok_or_else(|| SbrError::Corrupt("declared q16 records overflow".into()))?;
    need(buf, declared, "q16 interval records")?;
    let mut intervals = Vec::with_capacity(h.ni);
    for b in intercepts {
        intervals.push(IntervalRecord {
            start: u64::from(buf.get_u32_le()),
            shift: i64::from(buf.get_i32_le()),
            a: f64::from(buf.get_f32_le()),
            b,
        });
    }
    Ok(Transmission {
        seq: h.seq,
        n_signals: h.n_signals,
        samples_per_signal: h.samples_per_signal,
        w: h.w,
        base_updates,
        intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SbrConfig;
    use crate::decoder::Decoder;
    use crate::metric::ErrorMetric;
    use crate::sbr::SbrEncoder;

    fn sample_tx() -> Transmission {
        let rows: Vec<Vec<f64>> = (0..2)
            .map(|r| {
                (0..128)
                    .map(|i| ((i as f64 * 0.23) + r as f64).sin() * 20.0 + 5.0)
                    .collect()
            })
            .collect();
        let mut enc = SbrEncoder::new(2, 128, SbrConfig::new(100, 64)).unwrap();
        enc.encode(&rows).unwrap()
    }

    #[test]
    fn f64_profile_is_lossless() {
        let tx = sample_tx();
        let frame = encode(&tx, Profile::F64);
        let back = decode(&mut frame.clone()).unwrap();
        assert_eq!(back, tx);
        // The envelope carries epoch-0 data only: a resync would lose its snapshot.
        let mut resync = frame[..5].to_vec();
        resync.extend_from_slice(&codec::encode_v2(&Frame::resync(1, vec![], tx)));
        assert!(decode(&mut &resync[..]).is_err());
    }

    #[test]
    fn f32_profile_is_half_size_and_close() {
        let tx = sample_tx();
        let f64_frame = encode(&tx, Profile::F64);
        let f32_frame = encode(&tx, Profile::F32);
        assert!(f32_frame.len() * 10 < f64_frame.len() * 6, "roughly half");
        let back = decode(&mut f32_frame.clone()).unwrap();
        assert_eq!(back.seq, tx.seq);
        for (a, b) in back.intervals.iter().zip(&tx.intervals) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.shift, b.shift);
            assert!((a.a - b.a).abs() <= b.a.abs() * 1e-6 + 1e-6);
        }
    }

    #[test]
    fn q16_base_samples_within_bound() {
        let tx = sample_tx();
        let frame = encode(&tx, Profile::Q16);
        let back = decode(&mut frame.clone()).unwrap();
        for (u, v) in back.base_updates.iter().zip(&tx.base_updates) {
            let lo = v.values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = v.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = q16_error_bound(lo, hi) + 1e-12;
            for (a, b) in u.values.iter().zip(&v.values) {
                assert!((a - b).abs() <= bound, "{a} vs {b}, bound {bound}");
            }
        }
    }

    #[test]
    fn q16_end_to_end_reconstruction_stays_accurate() {
        // A full stream through the Q16 profile: the reconstruction error
        // must stay within a few percent of the exact-profile error.
        let mut enc = SbrEncoder::new(2, 128, SbrConfig::new(100, 64)).unwrap();
        let mut exact_dec = Decoder::new();
        let mut q_dec = Decoder::new();
        for t in 0..4 {
            let rows: Vec<Vec<f64>> = (0..2)
                .map(|r| {
                    (0..128)
                        .map(|i| ((i + t * 13) as f64 * 0.19 + r as f64).sin() * 9.0)
                        .collect()
                })
                .collect();
            let tx = enc.encode(&rows).unwrap();
            let exact = exact_dec.decode(&tx).unwrap();
            let q_tx = decode(&mut encode(&tx, Profile::Q16).clone()).unwrap();
            let quant = q_dec.decode(&q_tx).unwrap();
            let mut exact_err = 0.0;
            let mut quant_err = 0.0;
            for ((o, e), q) in rows.iter().zip(&exact).zip(&quant) {
                exact_err += ErrorMetric::Sse.score(o, e);
                quant_err += ErrorMetric::Sse.score(o, q);
            }
            assert!(
                quant_err <= exact_err * 1.10 + 1e-6,
                "tx {t}: quantized {quant_err} vs exact {exact_err}"
            );
        }
    }

    #[test]
    fn profiles_autodetect() {
        let tx = sample_tx();
        for p in [Profile::F64, Profile::F32, Profile::Q16] {
            let frame = encode(&tx, p);
            let back = decode(&mut frame.clone()).unwrap();
            assert_eq!(back.seq, tx.seq);
            assert_eq!(back.intervals.len(), tx.intervals.len());
        }
    }

    #[test]
    fn bad_profile_id_rejected() {
        let tx = sample_tx();
        let mut frame = encode(&tx, Profile::F32).to_vec();
        frame[4] = 99;
        assert!(decode(&mut &frame[..]).is_err());
    }

    #[test]
    fn q16_rejects_corrupt_range() {
        let tx = sample_tx();
        let mut frame = encode(&tx, Profile::Q16).to_vec();
        // Overwrite the first block's `lo` with NaN (offset: outer 5 +
        // header 28 + slot 4).
        let off = 5 + 28 + 4;
        frame[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        if tx.base_updates.is_empty() {
            // No base update → the corrupt offset lands in the intercept
            // block instead; either way decode must fail.
        }
        assert!(decode(&mut &frame[..]).is_err());
    }
}
