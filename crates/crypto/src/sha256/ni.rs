//! The SHA-NI compression kernel (x86-64 `sha256rnds2`, `sha256msg1`,
//! `sha256msg2`), used when the CPU reports the SHA extensions.
//!
//! The state lives in two registers in the order the round instruction
//! wants, `ABEF` and `CDGH` (high lane first); each `sha256rnds2` runs two
//! rounds, so four message words and their constants make two calls. Words
//! are loaded big-endian with `u32::from_be_bytes` and placed with
//! `_mm_set_epi32`, the state is read back with `_mm_extract_epi32`: no
//! pointer reaches an intrinsic, so the kernel itself is safe code, and the
//! one `unsafe` is the call made after detection.

#![allow(unsafe_code)]

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

use super::K;

/// Whether this CPU has every feature [`compress`] needs: `sha`, `ssse3`
/// and `sse4.1` (`sse2` is part of x86-64).
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses `blocks` into `state` with SHA-NI and returns `true`, or
/// returns `false` without touching `state` when the CPU lacks it.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` has just reported `sha`, `ssse3` and `sse4.1`,
    // and x86-64 always has `sse2`: every feature `compress_ni` enables.
    unsafe { compress_ni(state, blocks) };
    true
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Rounds `4q..4q + 4` on message words `w`.
    macro_rules! rounds {
        ($w:expr, $q:expr) => {{
            let wk = _mm_add_epi32($w, constants($q));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }};
    }
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let [mut w0, mut w1, mut w2, mut w3] = [0, 1, 2, 3].map(|q| load(block, q));
        rounds!(w0, 0);
        rounds!(w1, 1);
        rounds!(w2, 2);
        rounds!(w3, 3);
        for q in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds!(w0, q);
            w1 = schedule(w1, w2, w3, w0);
            rounds!(w1, q + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds!(w2, q + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds!(w3, q + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|w| w as u32);
}

/// The next four message words from the sixteen before them, `w[t-16..t]`
/// as `oldest..newest`: sigma0 over the oldest two quads, the `w[t-7]`
/// terms, then sigma1 over the newest.
#[target_feature(enable = "sha,sse2,ssse3")]
fn schedule(oldest: __m128i, older: __m128i, newer: __m128i, newest: __m128i) -> __m128i {
    let sum =
        _mm_add_epi32(_mm_sha256msg1_epu32(oldest, older), _mm_alignr_epi8::<4>(newest, newer));
    _mm_sha256msg2_epu32(sum, newest)
}

/// Round constants `4q..4q + 4`, constant `4q` in lane 0.
#[target_feature(enable = "sse2")]
fn constants(q: usize) -> __m128i {
    let k = |i: usize| K[4 * q + i] as i32;
    _mm_set_epi32(k(3), k(2), k(1), k(0))
}

/// Message words `4q..4q + 4` of `block`, big-endian, word `4q` in lane 0.
#[target_feature(enable = "sse2")]
fn load(block: &[u8; 64], q: usize) -> __m128i {
    let word = |i: usize| {
        let at = 4 * (4 * q + i);
        i32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
    };
    _mm_set_epi32(word(3), word(2), word(1), word(0))
}
