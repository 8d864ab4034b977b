//! The one on-disk framing every durable format in the workspace is
//! built on (`DCTS`, `DCTR`, `DCTW`, `DCTF`, `DCTT`, `DCTM`): the CRC, the
//! magic + version header, the seal (a CRC over everything before it),
//! the capped `len | crc32(len) | body | crc32(body)` record frame, and a
//! checked little-endian [`Reader`]. Each format composes the pieces it
//! uses and keeps its own fields, check order and error texts. DESIGN.md
//! §16 "On-disk framing" has the full picture.

use std::ops::RangeInclusive;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) of `data`,
/// bitwise and table-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Why a header or seal check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header or seal needs.
    Short,
    /// The first four bytes are not the format's magic.
    BadMagic,
    /// The version byte is outside the accepted range.
    BadVersion(u8),
    /// The seal does not match the bytes before it.
    BadSeal {
        /// CRC stored in the seal.
        stored: u32,
        /// CRC computed over the sealed bytes.
        computed: u32,
    },
}

/// Append `magic | version`.
pub fn put_header(out: &mut Vec<u8>, magic: &[u8; 4], version: u8) {
    out.extend_from_slice(magic);
    out.push(version);
}

/// Check that `data` opens with `magic` (for a version wider than a byte).
pub fn check_magic(data: &[u8], magic: &[u8; 4]) -> Result<(), FrameError> {
    match data.get(..4) {
        None => Err(FrameError::Short),
        Some(m) if m == magic => Ok(()),
        Some(_) => Err(FrameError::BadMagic),
    }
}

/// Check that `data` opens with `magic`, then a version byte in
/// `versions`, and return that version.
pub fn check_header(
    data: &[u8],
    magic: &[u8; 4],
    versions: RangeInclusive<u8>,
) -> Result<u8, FrameError> {
    check_magic(data, magic)?;
    let version = *data.get(4).ok_or(FrameError::Short)?;
    if !versions.contains(&version) {
        return Err(FrameError::BadVersion(version));
    }
    Ok(version)
}

/// Byte length of a seal.
pub const SEAL_LEN: usize = 4;

/// Append the seal over `out[from..]`: its CRC-32, little-endian.
pub fn seal(out: &mut Vec<u8>, from: usize) {
    let crc = crc32(&out[from..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Verify and split off the seal ending `data`; returns the sealed bytes.
pub fn unseal(data: &[u8]) -> Result<&[u8], FrameError> {
    let split = data.len().checked_sub(SEAL_LEN).ok_or(FrameError::Short)?;
    let (body, tail) = data.split_at(split);
    let stored = u32::from_le_bytes(tail.try_into().map_err(|_| FrameError::Short)?);
    let computed = crc32(body);
    if stored != computed {
        return Err(FrameError::BadSeal { stored, computed });
    }
    Ok(body)
}

/// Bytes a record frame adds around its body.
pub const RECORD_OVERHEAD: usize = 12;

/// [`put_record`] refused a body longer than its cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverCap {
    /// The body's length.
    pub len: usize,
    /// The cap it exceeds.
    pub cap: usize,
}

/// Append the record frame of `body` to `out`. A body over `cap` (which
/// must fit a `u32`) is refused and nothing is written, so [`read_record`]
/// with the same cap reads back every frame this writes.
pub fn put_record(out: &mut Vec<u8>, body: &[u8], cap: usize) -> Result<(), OverCap> {
    if body.len() > cap {
        return Err(OverCap {
            len: body.len(),
            cap,
        });
    }
    let len = (body.len() as u32).to_le_bytes();
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc32(&len).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    Ok(())
}

/// What [`read_record`] found at the front of a buffer. What a torn
/// frame means is the format's call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record<'a> {
    /// A whole frame with a valid body CRC; it spans
    /// `body.len() + RECORD_OVERHEAD` bytes.
    Body(&'a [u8]),
    /// No bytes left: the walk ended cleanly at a frame boundary.
    End,
    /// A prefix of a valid frame, as a write cut short leaves it.
    Torn,
    /// The length fails its own CRC.
    LenCrc,
    /// A CRC-valid length over the cap.
    OverCap(usize),
    /// A whole frame whose body fails its CRC; the body is handed back
    /// so the caller can still attribute the damage.
    BodyCrc(&'a [u8]),
}

/// Decode the record frame at the front of `data`, refusing a length
/// over `cap` before looking for the body. Never panics or allocates; a
/// prefix of a valid frame is [`Record::Torn`], never corruption, so a
/// streaming reader may retry with more bytes.
pub fn read_record(data: &[u8], cap: usize) -> Record<'_> {
    if data.is_empty() {
        return Record::End;
    }
    let mut r = Reader::new(data);
    let (Ok(len_bytes), Ok(len_crc)) = (r.array::<4>(), r.u32()) else {
        return Record::Torn;
    };
    if crc32(&len_bytes) != len_crc {
        return Record::LenCrc;
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > cap {
        return Record::OverCap(len);
    }
    let (Ok(body), Ok(body_crc)) = (r.take(len), r.u32()) else {
        return Record::Torn;
    };
    if crc32(body) != body_crc {
        return Record::BodyCrc(body);
    }
    Record::Body(body)
}

/// A [`Reader`] ran out of bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Bytes the read wanted.
    pub wanted: usize,
    /// Bytes that were left.
    pub have: usize,
}

/// A checked little-endian cursor: every read returns the value and
/// advances, or returns [`Truncated`] and stays put. It never panics.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let have = self.remaining();
        if n > have {
            return Err(Truncated { wanted: n, have });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Truncated> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, Truncated> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, Truncated> {
        self.array().map(i64::from_le_bytes)
    }

    /// A little-endian `f64` (its bit pattern; NaN and ±inf pass).
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        self.array().map(f64::from_le_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_values() {
        // The standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn header_checks_magic_before_version() {
        let mut buf = Vec::new();
        put_header(&mut buf, b"DCTX", 3);
        assert_eq!(check_header(&buf, b"DCTX", 1..=3), Ok(3));
        assert_eq!(
            check_header(&buf, b"DCTX", 1..=2),
            Err(FrameError::BadVersion(3))
        );
        assert_eq!(
            check_header(&buf, b"DCTY", 9..=9),
            Err(FrameError::BadMagic)
        );
        assert_eq!(
            check_header(&buf[..4], b"DCTX", 3..=3),
            Err(FrameError::Short)
        );
    }

    #[test]
    fn seal_round_trips_and_catches_every_flip() {
        let mut buf = b"xxpayload".to_vec();
        seal(&mut buf, 2);
        assert_eq!(unseal(&buf[2..]), Ok(&b"payload"[..]));
        for i in 2..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x80;
            assert!(matches!(unseal(&bad[2..]), Err(FrameError::BadSeal { .. })));
        }
        assert_eq!(unseal(&buf[..3]), Err(FrameError::Short));
    }

    #[test]
    fn record_round_trips_and_classifies_damage() {
        let mut buf = Vec::new();
        assert_eq!(put_record(&mut buf, b"hello", 5), Ok(()));
        assert_eq!(
            put_record(&mut buf, b"toolong", 5),
            Err(OverCap { len: 7, cap: 5 })
        );
        assert_eq!(buf.len(), 17, "a refused body writes nothing");
        assert_eq!(read_record(&buf, 5), Record::Body(b"hello"));
        assert_eq!(read_record(&buf, 4), Record::OverCap(5));
        assert_eq!(read_record(&[], 5), Record::End);
        for cut in 1..buf.len() {
            assert_eq!(read_record(&buf[..cut], 5), Record::Torn, "cut {cut}");
        }
        let mut bad = buf.clone();
        bad[0] ^= 1;
        assert_eq!(read_record(&bad, 5), Record::LenCrc);
        let mut bad = buf.clone();
        bad[9] ^= 1;
        assert!(matches!(read_record(&bad, 5), Record::BodyCrc(_)));
    }

    #[test]
    fn reader_reports_truncation_without_moving() {
        let mut r = Reader::new(&[1, 0, 2, 0, 0, 0, 9]);
        assert_eq!(r.u16(), Ok(1));
        assert_eq!(r.u32(), Ok(2));
        assert_eq!(r.u64(), Err(Truncated { wanted: 8, have: 1 }));
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.remaining(), 0);
    }
}
