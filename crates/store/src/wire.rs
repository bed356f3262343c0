//! Minimal binary wire format for store payloads and key identities.
//!
//! Fixed-width little-endian integers, `f64` as raw IEEE-754 bits (so a
//! decoded value is **bit-identical** to the encoded one — the store's
//! contract is that a disk hit reproduces the computed result exactly),
//! and length-prefixed byte strings. Decoding is total: every read
//! returns `Err(WireError)` instead of panicking on truncated or
//! malformed input, because payloads come from disk and disk lies.

use std::fmt;

/// Decode failure: the payload does not match the expected layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("malformed wire payload")
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes.push(v);
        self
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian `u128`.
    pub fn u128(&mut self, v: u128) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends an `f64` as its raw bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.u8(u8::from(v))
    }

    /// Appends a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u64(v.len() as u64);
        self.bytes.extend_from_slice(v);
        self
    }

    /// Appends a `u64`-count-prefixed array of little-endian `u32`s.
    pub fn u32s(&mut self, v: &[u32]) -> &mut Self {
        self.u64(v.len() as u64);
        self.bytes.reserve(v.len() * 4);
        for x in v {
            self.bytes.extend_from_slice(&x.to_le_bytes());
        }
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }
}

/// Sequential decoder over an encoded payload.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts decoding at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Whether every byte has been consumed — decoders should end with
    /// this to reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError)?;
        let slice = self.bytes.get(self.pos..end).ok_or(WireError)?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is malformed.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = usize::try_from(self.u64()?).map_err(|_| WireError)?;
        self.take(len)
    }

    /// Reads a count-prefixed array of little-endian `u32`s. A count the
    /// payload cannot hold fails before anything is allocated.
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let len = usize::try_from(self.u64()?).map_err(|_| WireError)?;
        let bytes = self.take(len.checked_mul(4).ok_or(WireError)?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| WireError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_type_round_trips() {
        let mut w = Writer::new();
        w.u8(7)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .u128(u128::MAX - 1)
            .f64(-0.1)
            .bool(true)
            .bool(false)
            .str("naïve ✓")
            .bytes(&[1, 2, 3])
            .u32s(&[0, 1, u32::MAX]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.u128(), Ok(u128::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-0.1f64).to_bits()));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.str(), Ok("naïve ✓"));
        assert_eq!(r.bytes(), Ok([1, 2, 3].as_ref()));
        assert_eq!(r.u32s(), Ok(vec![0, 1, u32::MAX]));
        assert!(r.is_exhausted());
    }

    #[test]
    fn nan_bits_survive_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut w = Writer::new();
        w.f64(weird);
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes).f64().unwrap();
        assert_eq!(got.to_bits(), weird.to_bits());
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.u32(), Err(WireError));
        let mut w = Writer::new();
        w.str("long string");
        let bytes = w.into_bytes();
        // Chop the string body: the length prefix now overruns.
        let mut r = Reader::new(&bytes[..bytes.len() - 3]);
        assert_eq!(r.str(), Err(WireError));
        // An array count the payload cannot hold (or whose byte size
        // overflows) errors before allocating.
        for count in [3, u64::MAX] {
            let mut w = Writer::new();
            w.u64(count).u32(7);
            assert_eq!(Reader::new(&w.into_bytes()).u32s(), Err(WireError));
        }
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        assert_eq!(Reader::new(&[2]).bool(), Err(WireError));
        let mut w = Writer::new();
        w.bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(Reader::new(&bytes).str(), Err(WireError));
    }
}
