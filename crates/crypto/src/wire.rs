//! The bounds-checked cursor under the workspace's binary decoders.
//!
//! Attestation evidence, migration frames and device measurement reports
//! all arrive from an untrusted peer as fixed-layout big-endian bytes. Each
//! decoder keeps its own magic, bounds and typed errors; what they share is
//! the one way a read can fail — the buffer ended — which is [`ShortRead`],
//! and every decoder's error type converts from it.

/// The buffer ended before a field was complete. Not an error type of its
/// own: each decoder converts it into its typed truncation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortRead {
    /// Bytes the field needed.
    pub needed: usize,
    /// Bytes that remained.
    pub have: usize,
}

/// A cursor over untrusted bytes: every read is checked against what is
/// left, and integers are big-endian.
///
/// # Example
///
/// ```
/// use confbench_crypto::wire::{Reader, ShortRead};
///
/// let mut r = Reader::new(&[0x01, 0x02, 0xff]);
/// assert_eq!(r.u16(), Ok(0x0102));
/// assert_eq!(r.u64(), Err(ShortRead { needed: 8, have: 1 }));
/// assert_eq!(r.remaining(), 1, "a failed read consumes nothing");
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Bytes not yet read. Decoders that forbid trailing bytes check this
    /// is zero once the body is read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`ShortRead`] (here and in every other read) when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ShortRead> {
        if self.rest.len() < n {
            return Err(ShortRead { needed: n, have: self.rest.len() });
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ShortRead> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ShortRead> {
        Ok(self.array::<1>()?[0])
    }

    /// The next big-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, ShortRead> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, ShortRead> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// The next big-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, ShortRead> {
        Ok(u64::from_be_bytes(self.array()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_big_endian_and_advance() {
        let bytes: Vec<u8> = (1..=19).collect();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0203));
        assert_eq!(r.u32(), Ok(0x0405_0607));
        assert_eq!(r.u64(), Ok(0x0809_0a0b_0c0d_0e0f));
        assert_eq!(r.array::<2>(), Ok([16, 17]));
        assert_eq!(r.take(2), Ok(&[18u8, 19][..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take(0), Ok(&[][..]));
    }

    #[test]
    fn a_short_read_says_what_was_missing_and_consumes_nothing() {
        let mut r = Reader::new(&[9, 9, 9]);
        assert_eq!(r.u32(), Err(ShortRead { needed: 4, have: 3 }));
        assert_eq!(r.array::<64>(), Err(ShortRead { needed: 64, have: 3 }));
        assert_eq!(r.take(usize::MAX), Err(ShortRead { needed: usize::MAX, have: 3 }));
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16(), Ok(0x0909));
        assert_eq!(r.u8(), Ok(9));
        assert_eq!(r.u8(), Err(ShortRead { needed: 1, have: 0 }));
    }
}
