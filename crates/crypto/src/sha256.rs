//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! Two compression kernels compute the same function. The SHA-NI kernel
//! (`ni`) runs when the CPU reports `sha`, `ssse3` and `sse4.1`; the
//! portable kernel runs everywhere else, and is the reference the tests
//! check the other against. Detection happens at run time on every
//! compression call (a cached flag), so one binary serves every x86-64 CPU
//! and no build setting is involved. Every digest is the same whichever
//! kernel computed it.

use std::fmt;

#[cfg(target_arch = "x86_64")]
mod ni;

/// A 32-byte SHA-256 digest.
///
/// Displays as lowercase hex.
///
/// # Example
///
/// ```
/// use confbench_crypto::Sha256;
///
/// let d = Sha256::digest(b"abc");
/// assert!(d.to_string().starts_with("ba7816bf"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Returns the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Folds the digest into a `u64` (first 8 bytes, big-endian). Handy for
    /// deriving deterministic scalars and seeds.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut hex = [0u8; 64];
        for (pair, b) in hex.chunks_exact_mut(2).zip(self.0) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0xf)];
        }
        f.write_str(std::str::from_utf8(&hex).expect("hex digits are ASCII"))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(bytes: [u8; 32]) -> Self {
        Digest(bytes)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use confbench_crypto::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0; 64], buf_len: 0, total_len: 0 }
    }

    /// One-shot convenience: hashes `data` and returns the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte slices (saves callers from
    /// building an intermediate buffer — common in attestation structures).
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Feeds more input into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] through a given kernel. Whole blocks go to the
    /// kernel in one call, so its state stays in registers between them.
    fn update_with(&mut self, mut data: &[u8], kernel: Kernel) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, std::slice::from_ref(&self.buf));
            self.buf_len = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Sha256::finalize`] through a given kernel. The padding — `0x80`,
    /// zeros, the 64-bit big-endian bit length — is written straight into
    /// the last one or two blocks.
    fn finalize_with(mut self, kernel: Kernel) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        let mut tail = [[0u8; 64]; 2];
        let used = self.buf_len;
        tail[0][..used].copy_from_slice(&self.buf[..used]);
        tail[0][used] = 0x80;
        let blocks = if used < 56 { 1 } else { 2 };
        tail[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &tail[..blocks]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// A compression kernel: folds whole 64-byte blocks into the state.
type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

/// The kernel every hasher uses: SHA-NI when the CPU has it, else the
/// portable one.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if ni::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable kernel: FIPS 180-4 §6.2.2 in scalar code. The only kernel
/// on CPUs without SHA-NI and off x86-64, and the tests' reference.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::sweep_iters;
    use crate::SplitMix64;

    fn hex(d: &Digest) -> String {
        d.to_string()
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update_with(data, kernel);
        h.finalize_with(kernel)
    }

    #[cfg(target_arch = "x86_64")]
    fn ni_only(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        assert!(ni::compress(state, blocks), "SHA-NI kernel called on a CPU without it");
    }

    /// Every kernel this CPU can run, by name: the portable one always, the
    /// SHA-NI one where detection finds it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if ni::detected() {
            kernels.push(("sha-ni", ni_only));
        }
        kernels
    }

    /// The kernel `Sha256::new()` dispatches to on this CPU.
    fn dispatched() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if ni::detected() {
            return "sha-ni";
        }
        "portable"
    }

    // NIST FIPS 180-4 / common known-answer tests, through each kernel and
    // through dispatch.
    fn known_answer(data: &[u8], want: &str) {
        assert_eq!(hex(&Sha256::digest(data)), want, "dispatched ({})", dispatched());
        for (name, kernel) in kernels() {
            assert_eq!(hex(&digest_with(kernel, data)), want, "{name} kernel");
        }
    }

    #[test]
    fn empty_string() {
        known_answer(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc() {
        known_answer(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_message() {
        known_answer(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        known_answer(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let want = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 299, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    /// Random messages of 0-4 KiB, fed in random splits, through the
    /// dispatching hasher and through the portable kernel: equal digests.
    #[test]
    fn fuzz_sweep_sha256_kernels_agree() {
        println!("SHA-256 kernel dispatched on this CPU: {}", dispatched());
        let mut rng = SplitMix64::new(0x5EA2_56A1);
        for case in 0..sweep_iters() {
            let len = rng.next_below(4097) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut dispatching = Sha256::new();
            let mut portable = Sha256::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let (part, tail) = rest.split_at(rng.next_below(rest.len() as u64 + 1) as usize);
                dispatching.update(part);
                portable.update_with(part, compress_portable);
                rest = tail;
            }
            assert_eq!(
                dispatching.finalize(),
                portable.finalize_with(compress_portable),
                "case {case}: {len} bytes"
            );
        }
    }

    #[test]
    fn table_hex_equals_formatted_bytes() {
        let mut rng = SplitMix64::new(0x4E8);
        for _ in 0..256 {
            let mut bytes = [0u8; 32];
            bytes.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
            let want: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(Digest(bytes).to_string(), want);
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = Sha256::digest_parts(&[b"foo", b"bar", b""]);
        let b = Sha256::digest(b"foobar");
        assert_eq!(a, b);
    }

    #[test]
    fn to_u64_is_prefix() {
        let d = Digest([
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0,
        ]);
        assert_eq!(d.to_u64(), 0x0102030405060708);
    }
}
