//! Compact binary serialization of synopses.
//!
//! A cosine synopsis is a few hundred `f64`s plus a small header — cheap
//! to checkpoint periodically, ship from an ingesting edge node to a
//! query coordinator, or merge across shards (coefficient sums are
//! linear, see [`CosineSynopsis::merge_from`]). The format is a simple
//! little-endian layout with a magic tag and version byte:
//!
//! ```text
//! magic (4) | version (1) | kind (1) | grid (1) | reserved (1)
//! | header fields … | count (f64) | gross (f64) | coefficient sums (f64 × len)
//! ```
//!
//! The magic and version are the shared framing header
//! (`dctstream_obs::frame`; DESIGN.md §16). A payload
//! carries no checksum of its own: the formats that store it (the
//! checkpoint manifest, WAL register records) seal it.
//!
//! Decoding validates the magic, version, kind, grid, declared lengths,
//! and finiteness of every float, so a truncated or corrupted buffer is
//! rejected rather than producing a silently-wrong synopsis.

use crate::domain::{Domain, Grid};
use crate::error::{DctError, Result};
use crate::multidim::MultiDimSynopsis;
use crate::synopsis::CosineSynopsis;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dctstream_obs::frame::{self, FrameError};

/// Magic tag opening every persisted summary payload.
pub const MAGIC: &[u8; 4] = b"DCTS";
/// Current payload format version.
///
/// Version 2 added the gross update mass (`Σ|w|`) field after the tuple
/// count in every payload kind; version-1 payloads are rejected.
pub const VERSION: u8 = 2;
/// Payload kind byte for [`CosineSynopsis`].
pub const KIND_COSINE: u8 = 1;
/// Payload kind byte for [`MultiDimSynopsis`].
pub const KIND_MULTI: u8 = 2;
/// Payload kind byte for the sketch crate's `AmsSketch`.
pub const KIND_AMS: u8 = 3;
/// Payload kind byte for the sketch crate's `FastAmsSketch`.
pub const KIND_FAST_AMS: u8 = 4;
/// Payload kind byte for the sketch crate's `SkimmedSketch`.
pub const KIND_SKIMMED: u8 = 5;

/// Human-readable label for a payload kind byte.
pub fn kind_label(kind: u8) -> &'static str {
    match kind {
        KIND_COSINE => "cosine",
        KIND_MULTI => "multidim",
        KIND_AMS => "ams",
        KIND_FAST_AMS => "fast-ams",
        KIND_SKIMMED => "skimmed",
        _ => "unknown",
    }
}

fn grid_tag(grid: Grid) -> u8 {
    match grid {
        Grid::Midpoint => 0,
        Grid::Endpoint => 1,
    }
}

fn grid_from_tag(tag: u8) -> Result<Grid> {
    match tag {
        0 => Ok(Grid::Midpoint),
        1 => Ok(Grid::Endpoint),
        other => Err(DctError::InvalidParameter(format!(
            "unknown grid tag {other}"
        ))),
    }
}

/// Append the 8-byte payload header.
///
/// `aux` is a kind-specific byte: the grid tag for cosine synopses, zero for
/// sketches.
pub fn put_header(buf: &mut BytesMut, kind: u8, aux: u8) {
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(kind);
    buf.put_u8(aux);
    buf.put_u8(0); // reserved
}

/// Validate the 8-byte payload header and return the kind-specific `aux`
/// byte.
pub fn check_header(buf: &mut Bytes, expect_kind: u8) -> Result<u8> {
    let kind = peek_kind(buf.as_slice())?;
    if kind != expect_kind {
        return Err(DctError::InvalidParameter(format!(
            "summary kind mismatch: found {kind}, expected {expect_kind}"
        )));
    }
    let aux = buf[6];
    buf.advance(8);
    Ok(aux)
}

/// Peek the kind byte of a framed payload without consuming it.
///
/// Validates the magic and version first, so garbage is rejected rather
/// than dispatched on a random byte.
pub fn peek_kind(bytes: &[u8]) -> Result<u8> {
    if bytes.len() < 8 {
        return Err(DctError::InvalidParameter(
            "buffer too short for a summary header".into(),
        ));
    }
    frame::check_header(bytes, MAGIC, VERSION..=VERSION).map_err(|e| {
        DctError::InvalidParameter(match e {
            FrameError::BadVersion(v) => format!("unsupported summary format version {v}"),
            _ => "not a dctstream summary (bad magic)".into(),
        })
    })?;
    Ok(bytes[5])
}

/// Read a finite little-endian `f64`, rejecting truncation and NaN/±inf.
pub fn get_f64_checked(buf: &mut Bytes) -> Result<f64> {
    if buf.remaining() < 8 {
        return Err(DctError::InvalidParameter(
            "buffer truncated inside float data".into(),
        ));
    }
    let v = buf.get_f64_le();
    if !v.is_finite() {
        return Err(DctError::InvalidParameter(
            "corrupted summary: non-finite float".into(),
        ));
    }
    Ok(v)
}

/// Read a little-endian `u64`, naming `what` in the truncation error.
pub fn get_u64_checked(buf: &mut Bytes, what: &str) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(DctError::InvalidParameter(format!(
            "buffer truncated inside {what}"
        )));
    }
    Ok(buf.get_u64_le())
}

/// Decode an inclusive `[lo, hi]` domain from untrusted bytes.
///
/// Rejects truncation, empty intervals, and intervals wider than
/// `usize::MAX` (which the naive width computation used to wrap on);
/// returns the domain together with its exact size.
pub fn get_domain_checked(buf: &mut Bytes) -> Result<(Domain, usize)> {
    if buf.remaining() < 16 {
        return Err(DctError::InvalidParameter(
            "buffer truncated inside domain bounds".into(),
        ));
    }
    let lo = buf.get_i64_le();
    let hi = buf.get_i64_le();
    if lo > hi {
        return Err(DctError::InvalidParameter(format!(
            "corrupted summary: empty domain [{lo}, {hi}]"
        )));
    }
    let domain = Domain::new(lo, hi);
    let size = domain.try_size().ok_or_else(|| {
        DctError::InvalidParameter(format!(
            "corrupted summary: domain [{lo}, {hi}] wider than usize::MAX"
        ))
    })?;
    Ok((domain, size))
}

impl CosineSynopsis {
    /// Serialize to a compact binary buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + 8 * 3 + 16 + 8 * self.coefficient_count());
        put_header(&mut buf, KIND_COSINE, grid_tag(self.grid()));
        buf.put_i64_le(self.domain().lo());
        buf.put_i64_le(self.domain().hi());
        buf.put_u64_le(self.coefficient_count() as u64);
        buf.put_f64_le(self.count());
        buf.put_f64_le(self.gross());
        for &s in self.sums() {
            buf.put_f64_le(s);
        }
        buf.freeze()
    }

    /// Deserialize from [`Self::to_bytes`] output, with validation.
    pub fn from_bytes(mut buf: Bytes) -> Result<Self> {
        let grid = grid_from_tag(check_header(&mut buf, KIND_COSINE)?)?;
        let (domain, n) = get_domain_checked(&mut buf)?;
        let m = get_u64_checked(&mut buf, "cosine header")? as usize;
        if m == 0 || m > n {
            return Err(DctError::InvalidParameter(format!(
                "corrupted synopsis: {m} coefficients for domain size {n}"
            )));
        }
        let count = get_f64_checked(&mut buf)?;
        let gross = get_f64_checked(&mut buf)?;
        let mut sums = Vec::with_capacity(m);
        for _ in 0..m {
            sums.push(get_f64_checked(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(DctError::InvalidParameter(format!(
                "{} trailing bytes after synopsis",
                buf.remaining()
            )));
        }
        let mut syn = CosineSynopsis::new(domain, grid, m)?;
        syn.load_raw(sums, count, gross);
        Ok(syn)
    }
}

impl MultiDimSynopsis {
    /// Serialize to a compact binary buffer.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf =
            BytesMut::with_capacity(16 + 16 * self.arity() + 16 + 8 * self.coefficient_count());
        put_header(&mut buf, KIND_MULTI, grid_tag(self.grid()));
        buf.put_u64_le(self.arity() as u64);
        for d in self.domains() {
            buf.put_i64_le(d.lo());
            buf.put_i64_le(d.hi());
        }
        buf.put_u64_le(self.degree() as u64);
        buf.put_f64_le(self.count());
        buf.put_f64_le(self.gross());
        for &s in self.sums() {
            buf.put_f64_le(s);
        }
        buf.freeze()
    }

    /// Deserialize from [`Self::to_bytes`] output, with validation.
    pub fn from_bytes(mut buf: Bytes) -> Result<Self> {
        let grid = grid_from_tag(check_header(&mut buf, KIND_MULTI)?)?;
        let arity = get_u64_checked(&mut buf, "multidim header")? as usize;
        if arity == 0 || arity > 16 {
            return Err(DctError::InvalidParameter(format!(
                "corrupted synopsis: implausible arity {arity}"
            )));
        }
        if buf.remaining() < 16 * arity + 8 {
            return Err(DctError::InvalidParameter(
                "buffer truncated inside domain list".into(),
            ));
        }
        let mut domains = Vec::with_capacity(arity);
        for _ in 0..arity {
            let (domain, _) = get_domain_checked(&mut buf)?;
            domains.push(domain);
        }
        let degree = buf.get_u64_le() as usize;
        let count = get_f64_checked(&mut buf)?;
        let gross = get_f64_checked(&mut buf)?;
        let mut syn = MultiDimSynopsis::new(domains, grid, degree)?;
        if syn.degree() != degree {
            return Err(DctError::InvalidParameter(format!(
                "corrupted synopsis: degree {degree} exceeds the domain bound"
            )));
        }
        let len = syn.coefficient_count();
        let mut sums = Vec::with_capacity(len);
        for _ in 0..len {
            sums.push(get_f64_checked(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(DctError::InvalidParameter(format!(
                "{} trailing bytes after synopsis",
                buf.remaining()
            )));
        }
        syn.load_raw(sums, count, gross);
        Ok(syn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cosine() -> CosineSynopsis {
        let mut s = CosineSynopsis::new(Domain::new(-10, 89), Grid::Midpoint, 24).unwrap();
        for v in [-10i64, 0, 5, 5, 89, 33] {
            s.insert(v).unwrap();
        }
        s.delete(5).unwrap();
        s
    }

    fn sample_multi() -> MultiDimSynopsis {
        let mut s = MultiDimSynopsis::new(
            vec![Domain::of_size(32), Domain::of_size(16)],
            Grid::Midpoint,
            6,
        )
        .unwrap();
        for t in [[0i64, 0], [31, 15], [7, 9], [7, 9]] {
            s.insert(&t).unwrap();
        }
        s
    }

    #[test]
    fn cosine_roundtrip() {
        let s = sample_cosine();
        let bytes = s.to_bytes();
        let back = CosineSynopsis::from_bytes(bytes).unwrap();
        assert_eq!(back.domain(), s.domain());
        assert_eq!(back.grid(), s.grid());
        assert_eq!(back.count(), s.count());
        assert_eq!(back.sums(), s.sums());
    }

    #[test]
    fn multidim_roundtrip() {
        let s = sample_multi();
        let back = MultiDimSynopsis::from_bytes(s.to_bytes()).unwrap();
        assert_eq!(back.domains(), s.domains());
        assert_eq!(back.degree(), s.degree());
        assert_eq!(back.count(), s.count());
        assert_eq!(back.sums(), s.sums());
    }

    #[test]
    fn roundtripped_synopsis_estimates_identically() {
        let a = sample_cosine();
        let b = sample_cosine();
        let direct = crate::join::estimate_equi_join(&a, &b, None).unwrap();
        let restored = CosineSynopsis::from_bytes(a.to_bytes()).unwrap();
        let via_bytes = crate::join::estimate_equi_join(&restored, &b, None).unwrap();
        assert_eq!(direct, via_bytes);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut raw = sample_cosine().to_bytes().to_vec();
        raw[0] = b'X';
        assert!(CosineSynopsis::from_bytes(Bytes::from(raw.clone())).is_err());
        let mut raw = sample_cosine().to_bytes().to_vec();
        raw[4] = 99; // version
        assert!(CosineSynopsis::from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_kind_confusion() {
        let cosine_bytes = sample_cosine().to_bytes();
        assert!(MultiDimSynopsis::from_bytes(cosine_bytes).is_err());
        let multi_bytes = sample_multi().to_bytes();
        assert!(CosineSynopsis::from_bytes(multi_bytes).is_err());
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let full = sample_cosine().to_bytes();
        for cut in [0usize, 4, 7, 12, full.len() - 1] {
            let slice = full.slice(0..cut);
            assert!(CosineSynopsis::from_bytes(slice).is_err(), "cut {cut}");
        }
        let mut extended = full.to_vec();
        extended.push(0);
        assert!(CosineSynopsis::from_bytes(Bytes::from(extended)).is_err());
    }

    #[test]
    fn rejects_non_finite_floats() {
        let s = sample_cosine();
        let mut raw = s.to_bytes().to_vec();
        // Overwrite the count field (first f64 after the 32-byte
        // header: magic 8 + lo 8 + hi 8 + m 8) with NaN.
        let count_off = 8 + 8 + 8 + 8;
        raw[count_off..count_off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(CosineSynopsis::from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_corrupt_domain_or_m() {
        let s = sample_cosine();
        let mut raw = s.to_bytes().to_vec();
        // lo > hi.
        raw[8..16].copy_from_slice(&100i64.to_le_bytes());
        raw[16..24].copy_from_slice(&(-100i64).to_le_bytes());
        assert!(CosineSynopsis::from_bytes(Bytes::from(raw)).is_err());
        let mut raw = s.to_bytes().to_vec();
        // m = 0.
        raw[24..32].copy_from_slice(&0u64.to_le_bytes());
        assert!(CosineSynopsis::from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_overwide_domain_from_crafted_buffer() {
        // Regression: a crafted buffer declaring the full i64 range used to
        // be validated against the *wrapped* `(hi - lo + 1) as usize` size
        // (a debug-build panic, or a bogus bound in release). The decoder
        // must reject over-wide domains with an Err, never panic.
        let mut raw = sample_cosine().to_bytes().to_vec();
        raw[8..16].copy_from_slice(&i64::MIN.to_le_bytes());
        raw[16..24].copy_from_slice(&i64::MAX.to_le_bytes());
        let err = CosineSynopsis::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("wider than usize::MAX"), "{err}");

        // Same attack through the multidim domain list.
        let mut raw = sample_multi().to_bytes().to_vec();
        // Header 8 + arity 8, then the first (lo, hi) pair.
        raw[16..24].copy_from_slice(&i64::MIN.to_le_bytes());
        raw[24..32].copy_from_slice(&i64::MAX.to_le_bytes());
        let err = MultiDimSynopsis::from_bytes(Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("wider than usize::MAX"), "{err}");
    }

    #[test]
    fn peek_kind_dispatches_and_rejects_garbage() {
        let cosine = sample_cosine().to_bytes();
        assert_eq!(peek_kind(cosine.as_slice()).unwrap(), KIND_COSINE);
        let multi = sample_multi().to_bytes();
        assert_eq!(peek_kind(multi.as_slice()).unwrap(), KIND_MULTI);
        assert!(peek_kind(b"short").is_err());
        assert!(peek_kind(b"XXXXXXXXXXXX").is_err());
        assert_eq!(kind_label(KIND_SKIMMED), "skimmed");
    }

    #[test]
    fn multidim_rejects_implausible_arity() {
        let s = sample_multi();
        let mut raw = s.to_bytes().to_vec();
        raw[8..16].copy_from_slice(&1000u64.to_le_bytes());
        assert!(MultiDimSynopsis::from_bytes(Bytes::from(raw)).is_err());
    }
}
