//! Dependency-free little-endian byte codec, and the one sealed frame
//! the workspace's five state formats travel in.
//!
//! Fields are little-endian integers, with `f64::to_bits` for floats
//! (exact round trip, no text formatting). [`Frame`] wraps a body in
//! the layout all five formats share — session checkpoints (NRVC), live
//! fleet checkpoints (NRVL), fleet checkpoints (NRVF), handoff tickets
//! (NRVT) and weight deltas (NRVM):
//!
//! ```text
//! magic    u32  the format's tag
//! version  u16  bumped on any layout change
//! body          the format's fields
//! crc      u32  big-endian CRC32 of everything above (crate::integrity)
//! ```
//!
//! Every value in a body is one [`Wire`] impl, which writes and reads
//! it in one place, so a reader cannot drift from its writer. The
//! field layouts:
//!
//! ```text
//! u8 u32 u64 f32 f64   little-endian (floats as their bit patterns)
//! usize, SimTime       u64 (a time in microseconds)
//! bool                 u8, exactly 0 or 1
//! Option<T>            bool flag, then T when set
//! Vec<T>               usize length, then the items
//! [T; N], tuples       the items in order, no length
//! ```
//!
//! A plain struct declares its layout once, with
//! [`wire_record!`](crate::wire_record): one ordered field list next to
//! its type. Tagged enums write their own impl. A decoder opens the
//! frame with [`Frame::open`] (or reads one value with
//! [`Frame::decode`]), so every way a frame can be refused is one
//! [`FrameError`] variant.

use crate::clock::SimTime;
use crate::integrity;
use std::fmt;

/// Why a sealed frame was refused. Decoding never panics on foreign
/// bytes: every damage maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The CRC32 trailer is missing or wrong: the bytes were damaged.
    Corrupt,
    /// The leading magic is not the format's.
    BadMagic(u32),
    /// The version is not the one this build speaks.
    BadVersion(u16),
    /// The body ended before a field was fully read.
    Truncated,
    /// Bytes were left over after the last field.
    TrailingBytes(usize),
    /// A field holds a value the format refuses: an unknown tag, or a
    /// shape that disagrees with the configuration.
    BadField { field: &'static str, value: u64 },
}

impl FrameError {
    /// Shorthand for [`FrameError::BadField`].
    pub fn bad_field(field: &'static str, value: impl Into<u64>) -> Self {
        FrameError::BadField {
            field,
            value: value.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Corrupt => write!(f, "frame failed its CRC"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported frame version {v}"),
            FrameError::Truncated => write!(f, "frame body truncated"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the frame body"),
            FrameError::BadField { field, value } => {
                write!(f, "field `{field}` holds refused value {value}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The header of one wire format: `magic | version`, then the body, then
/// the CRC32 trailer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    pub magic: u32,
    pub version: u16,
}

impl Frame {
    /// A writer with the header already written. Append the body, then
    /// [`ByteWriter::seal`].
    pub fn writer(self) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.u32(self.magic);
        w.u16(self.version);
        w
    }

    /// Verify the CRC, then the magic and the version, and return a
    /// reader at the first body field. End the parse with
    /// [`ByteReader::finish`].
    pub fn open(self, sealed: &[u8]) -> Result<ByteReader<'_>, FrameError> {
        let payload = integrity::open(sealed).ok_or(FrameError::Corrupt)?;
        let mut r = ByteReader::new(payload);
        let magic = r.u32()?;
        if magic != self.magic {
            return Err(FrameError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != self.version {
            return Err(FrameError::BadVersion(version));
        }
        Ok(r)
    }

    /// Seal one value: the header, `value`, then the CRC32.
    pub fn encode<T: Wire>(self, value: &T) -> Vec<u8> {
        let mut w = self.writer();
        value.put(&mut w);
        w.seal()
    }

    /// Open a frame holding one value and read it, refusing any bytes
    /// after it.
    pub fn decode<T: Wire>(self, sealed: &[u8]) -> Result<T, FrameError> {
        let mut r = self.open(sealed)?;
        let value = T::get(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Little-endian byte sink for frame fields.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Exact float round trip via the bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Exact `f32` round trip via the bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// The accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The accumulated bytes with their CRC32 trailer appended.
    pub fn seal(self) -> Vec<u8> {
        integrity::seal(&self.buf)
    }
}

/// Little-endian reader over a byte body.
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(FrameError::Truncated)?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn usize(&mut self) -> Result<usize, FrameError> {
        Ok(self.u64()? as usize)
    }

    /// A flag: exactly 0 or 1, so every accepted body re-encodes to
    /// the same bytes.
    pub fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(FrameError::bad_field("bool", v)),
        }
    }

    pub fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn f32(&mut self) -> Result<f32, FrameError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// End a parse: refuse any bytes left after the last field.
    pub fn finish(self) -> Result<(), FrameError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(FrameError::TrailingBytes(n)),
        }
    }
}

/// One value's wire layout: `put` appends it, `get` reads it back.
/// Writer and reader sit in one impl, so every value `get` accepts
/// re-encodes to the bytes it was read from.
pub trait Wire: Sized {
    fn put(&self, w: &mut ByteWriter);
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError>;
}

macro_rules! wire_scalar {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            fn put(&self, w: &mut ByteWriter) {
                w.$t(*self)
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
                r.$t()
            }
        }
    )+};
}

wire_scalar!(u8, u32, u64, usize, bool, f32, f64);

impl Wire for SimTime {
    fn put(&self, w: &mut ByteWriter) {
        w.u64(self.as_micros())
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        Ok(SimTime::from_micros(r.u64()?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut ByteWriter) {
        w.usize(self.len());
        for v in self {
            v.put(w);
        }
    }
    /// The length comes from the frame and may be forged, so the
    /// preallocation is capped at the body bytes left; a length past
    /// the body ends in `Truncated` at the first short item.
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        let n = r.usize()?;
        let mut out = Vec::with_capacity(n.min(r.remaining() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Copy + Default, const N: usize> Wire for [T; N] {
    fn put(&self, w: &mut ByteWriter) {
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::get(r)?;
        }
        Ok(out)
    }
}

macro_rules! wire_tuple {
    ($($t:ident),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            #[allow(non_snake_case)]
            fn put(&self, w: &mut ByteWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut ByteReader<'_>) -> Result<Self, FrameError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

wire_tuple!(A, B);
wire_tuple!(A, B, C);

/// Implement [`Wire`] for a plain struct from one ordered field list:
/// the fields are written and read in the listed order, each with its
/// own type's layout. The list must name every field, exactly once.
///
/// ```
/// # use nerve_net::wire_record;
/// struct Bucket {
///     tokens: f64,
///     refills: u64,
/// }
/// wire_record!(Bucket { tokens, refills });
/// ```
#[macro_export]
macro_rules! wire_record {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::bytes::Wire for $ty {
            fn put(&self, w: &mut $crate::bytes::ByteWriter) {
                let Self { $($field),+ } = self;
                $($crate::bytes::Wire::put($field, w);)+
            }
            fn get(
                r: &mut $crate::bytes::ByteReader<'_>,
            ) -> Result<Self, $crate::bytes::FrameError> {
                Ok(Self {
                    $($field: $crate::bytes::Wire::get(r)?),+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u16(0xCDEF);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.usize(42);
        w.bool(true);
        w.f64(-0.062_5);
        w.f32(1.5);
        SimTime::from_micros(48_250_001).put(&mut w);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xCDEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.usize().unwrap(), 42);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64().unwrap(), -0.062_5);
        assert_eq!(r.f32().unwrap(), 1.5);
        assert_eq!(SimTime::get(&mut r), Ok(SimTime::from_micros(48_250_001)));
        assert_eq!(r.remaining(), 0);
    }

    type Sample = (
        (Option<f64>, Option<f64>, (Option<usize>, Option<SimTime>)),
        (Vec<f64>, Vec<Vec<u8>>, [u64; 4]),
        (Vec<(usize, f64)>, (u8, u32, bool)),
    );

    fn sample() -> Sample {
        (
            (None, Some(3.25), (Some(7), Some(SimTime::from_micros(9)))),
            (
                vec![4_400.0, 1_600.5],
                vec![vec![1, 2, 3], vec![]],
                [40, 9, 3, 0],
            ),
            (vec![(2, 3.4)], (7, 4, true)),
        )
    }

    /// The generic layouts write exactly the bytes of the hand-written
    /// calls they replaced: a flag then the value, a `usize` length then
    /// the items (a byte vector is the old length-prefixed blob), and
    /// array and tuple items in order with no length.
    #[test]
    fn generic_layouts_write_the_hand_written_bytes() {
        let mut old = ByteWriter::new();
        old.u8(0);
        old.u8(1);
        old.f64(3.25);
        old.u8(1);
        old.usize(7);
        old.bool(true);
        old.u64(9);
        old.usize(2);
        old.f64(4_400.0);
        old.f64(1_600.5);
        old.usize(2);
        old.usize(3);
        for b in [1, 2, 3] {
            old.u8(b);
        }
        old.usize(0);
        for d in [40, 9, 3, 0] {
            old.u64(d);
        }
        old.usize(1);
        old.usize(2);
        old.f64(3.4);
        old.u8(7);
        old.u32(4);
        old.bool(true);
        let old = old.into_bytes();

        let mut w = ByteWriter::new();
        sample().put(&mut w);
        assert_eq!(w.into_bytes(), old);
        let mut r = ByteReader::new(&old);
        assert_eq!(Sample::get(&mut r), Ok(sample()));
        assert_eq!(r.finish(), Ok(()));
    }

    /// Records the largest single allocation the calling thread makes,
    /// so a test can bound what a decode reserved.
    mod alloc_probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            pub static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        struct Probe;

        // SAFETY: every call is forwarded unchanged to the system
        // allocator; the probe only records sizes in a const-initialized
        // thread-local with no destructor, which neither allocates nor
        // fails.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                LARGEST.with(|m| m.set(m.get().max(layout.size())));
                System.alloc(layout)
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;
    }

    /// A forged length far past the body reserves no more than the body
    /// and ends in `Truncated` at the first missing item.
    #[test]
    fn forged_vec_length_is_truncated_without_a_large_reservation() {
        let mut w = ByteWriter::new();
        w.usize(1 << 60);
        w.u64(0);
        w.u64(0);
        let body = w.into_bytes();
        for probe in [
            |r: &mut ByteReader<'_>| Vec::<u64>::get(r).map(drop),
            |r: &mut ByteReader<'_>| Vec::<u8>::get(r).map(drop),
            |r: &mut ByteReader<'_>| Vec::<(u64, bool)>::get(r).map(drop),
        ] {
            let mut r = ByteReader::new(&body);
            alloc_probe::LARGEST.with(|m| m.set(0));
            let got = probe(&mut r);
            let largest = alloc_probe::LARGEST.with(|m| m.get());
            assert_eq!(got, Err(FrameError::Truncated));
            assert!(largest <= body.len(), "reserved {largest} bytes");
        }
    }

    const FRAME: Frame = Frame {
        magic: 0x4E52_5658,
        version: 3,
    };

    #[test]
    fn frame_layout_is_magic_version_body_crc() {
        let mut w = FRAME.writer();
        w.u8(0xAB);
        let sealed = w.seal();
        assert_eq!(&sealed[..7], &[0x58, 0x56, 0x52, 0x4E, 3, 0, 0xAB]);
        let crc = integrity::crc32(&sealed[..7]).to_be_bytes();
        assert_eq!(&sealed[7..], &crc);
        let mut r = FRAME.open(&sealed).unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.finish(), Ok(()));
    }

    /// Every refusal, in the order a decoder meets it: the CRC, the
    /// header, then the body's own reads and the finish check.
    #[test]
    fn frame_refusals_are_typed() {
        let sealed = |payload: &[u8]| integrity::seal(payload);
        let header = |magic: u32, version: u16| {
            let mut w = ByteWriter::new();
            w.u32(magic);
            w.u16(version);
            w.into_bytes()
        };
        let open = |bytes: &[u8]| FRAME.open(bytes).map(|r| r.remaining());

        assert_eq!(open(&[]), Err(FrameError::Corrupt));
        let mut flipped = sealed(&header(FRAME.magic, FRAME.version));
        flipped[2] ^= 0x10;
        assert_eq!(open(&flipped), Err(FrameError::Corrupt));
        assert_eq!(open(&sealed(&[0x58, 0x56])), Err(FrameError::Truncated));
        assert_eq!(
            open(&sealed(&header(0xDEAD_BEEF, FRAME.version))),
            Err(FrameError::BadMagic(0xDEAD_BEEF))
        );
        assert_eq!(
            open(&sealed(&header(FRAME.magic, FRAME.version + 1))),
            Err(FrameError::BadVersion(FRAME.version + 1))
        );
        let mut body = header(FRAME.magic, FRAME.version);
        body.extend_from_slice(&[1, 2]);
        let framed = sealed(&body);
        let mut r = FRAME.open(&framed).unwrap();
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(FrameError::TrailingBytes(1)));
        assert_eq!(
            FrameError::bad_field("phase", 7u8),
            FrameError::BadField {
                field: "phase",
                value: 7
            }
        );
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut w = ByteWriter::new();
        w.u32(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..2]);
        assert_eq!(r.u32(), Err(FrameError::Truncated));
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.u8(), Err(FrameError::Truncated));
        // Flags and option tags accept only their canonical bytes.
        let mut r = ByteReader::new(&[2, 1, 3, 2]);
        assert_eq!(bool::get(&mut r), Err(FrameError::bad_field("bool", 2u8)));
        assert_eq!(bool::get(&mut r), Ok(true));
        assert_eq!(
            Option::<usize>::get(&mut r),
            Err(FrameError::bad_field("bool", 3u8))
        );
        assert_eq!(
            Option::<f64>::get(&mut r),
            Err(FrameError::bad_field("bool", 2u8))
        );
    }
}
