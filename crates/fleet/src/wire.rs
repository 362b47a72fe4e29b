//! The versioned migration wire stream (`CBMG` frames).
//!
//! A migration is transported as a sequence of self-delimiting frames,
//! each carrying the 4-byte magic, a version byte, and a kind byte:
//!
//! * `Begin` — platform/kind of the moving VM, its resident page count,
//!   and a transfer nonce;
//! * `Pages` — one dirty-page round (pre-copy or the stop-and-copy
//!   delta): round number and the guest-physical page ids;
//! * `State` — the architectural runtime state captured at stop-and-copy
//!   (virtual clock, jitter-PRNG state, heap accounting, exit/fault
//!   counters);
//! * `Commit` — the re-attestation session id minted on the target plus
//!   transfer totals; the last frame before resume.
//!
//! Decoding is strict: every length is bounds-checked *before* any
//! allocation, unknown kinds and versions are typed errors, and a frame
//! with trailing bytes is rejected — a corrupted stream can never be
//! silently accepted, and (fuzz-enforced) never panics.

use std::fmt;

use confbench_crypto::wire::{Reader, ShortRead};
use confbench_types::{TeePlatform, VmKind};
use confbench_vmm::VmRuntimeState;

/// Magic prefix of every migration frame.
pub const WIRE_MAGIC: [u8; 4] = *b"CBMG";

/// Current wire format version.
pub const WIRE_VERSION: u8 = 1;

/// Most guest pages one `Pages` frame may carry (checked before the page
/// vector is allocated, so a forged count cannot balloon memory).
pub const MAX_PAGES_PER_FRAME: usize = 4096;

/// Longest re-attestation session id a `Commit` frame may carry.
pub const MAX_SESSION_ID_LEN: usize = 128;

const KIND_BEGIN: u8 = 1;
const KIND_PAGES: u8 = 2;
const KIND_STATE: u8 = 3;
const KIND_COMMIT: u8 = 4;

/// Why a migration stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// First four bytes were not the `CBMG` magic.
    BadMagic([u8; 4]),
    /// Version byte this decoder does not speak.
    UnsupportedVersion(u8),
    /// Kind byte naming no known frame.
    UnknownKind(u8),
    /// The buffer ended before a fixed-width field.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// Bytes left over after a complete frame (strict single-frame mode).
    TrailingBytes(usize),
    /// A counted field exceeds its protocol bound.
    FieldTooLong {
        /// Field name.
        field: &'static str,
        /// Declared length.
        len: usize,
        /// Protocol maximum.
        max: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8(&'static str),
    /// An enumeration byte outside its defined range.
    BadValue {
        /// Field name.
        field: &'static str,
        /// Offending byte.
        value: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame"),
            WireError::FieldTooLong { field, len, max } => {
                write!(f, "field {field} length {len} exceeds maximum {max}")
            }
            WireError::BadUtf8(field) => write!(f, "field {field} is not valid UTF-8"),
            WireError::BadValue { field, value } => {
                write!(f, "field {field} has invalid value {value}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<ShortRead> for WireError {
    fn from(e: ShortRead) -> Self {
        WireError::Truncated { needed: e.needed, have: e.have }
    }
}

/// One frame of the migration stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationFrame {
    /// Transfer preamble.
    Begin {
        /// Platform of the moving VM.
        platform: TeePlatform,
        /// Secure or normal.
        kind: VmKind,
        /// Pages resident at migration start.
        resident: u64,
        /// Transfer nonce (binds the stream to one migration attempt).
        nonce: u64,
    },
    /// One dirty-page round.
    Pages {
        /// Round number (1-based; the stop-and-copy delta is the last).
        round: u16,
        /// Guest-physical ids of the pages in this round.
        gpas: Vec<u64>,
    },
    /// Architectural runtime state captured at stop-and-copy.
    State(VmRuntimeState),
    /// Final frame: re-attestation proof of the target plus totals.
    Commit {
        /// Session id minted by the verifier for the target.
        session: String,
        /// Total pages transferred across all rounds.
        pages_total: u64,
        /// Pre-copy rounds plus the stop-and-copy round.
        rounds: u32,
    },
}

impl MigrationFrame {
    /// Serializes the frame (header + body, big-endian).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Appends the frame's encoding to `out`, so a stream of frames is
    /// written into one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        match self {
            MigrationFrame::Begin { platform, kind, resident, nonce } => {
                out.push(KIND_BEGIN);
                out.push(platform_byte(*platform));
                out.push(vmkind_byte(*kind));
                out.extend_from_slice(&resident.to_be_bytes());
                out.extend_from_slice(&nonce.to_be_bytes());
            }
            MigrationFrame::Pages { round, gpas } => {
                out.push(KIND_PAGES);
                out.extend_from_slice(&round.to_be_bytes());
                out.extend_from_slice(&(gpas.len() as u32).to_be_bytes());
                for gpa in gpas {
                    out.extend_from_slice(&gpa.to_be_bytes());
                }
            }
            MigrationFrame::State(s) => {
                out.push(KIND_STATE);
                for word in [
                    s.cycles,
                    s.rng_state,
                    s.heap_pages,
                    s.high_water_pages,
                    s.next_gpa,
                    s.total_exits,
                    s.total_faults,
                ] {
                    out.extend_from_slice(&word.to_be_bytes());
                }
            }
            MigrationFrame::Commit { session, pages_total, rounds } => {
                out.push(KIND_COMMIT);
                out.extend_from_slice(&(session.len() as u16).to_be_bytes());
                out.extend_from_slice(session.as_bytes());
                out.extend_from_slice(&pages_total.to_be_bytes());
                out.extend_from_slice(&rounds.to_be_bytes());
            }
        }
    }

    /// Decodes exactly one frame; trailing bytes are an error.
    ///
    /// # Errors
    ///
    /// [`WireError`] naming the first malformation encountered.
    pub fn decode(buf: &[u8]) -> Result<MigrationFrame, WireError> {
        let mut r = Reader::new(buf);
        let frame = decode_one(&mut r)?;
        match r.remaining() {
            0 => Ok(frame),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

/// Decodes a whole stream of concatenated frames.
///
/// # Errors
///
/// [`WireError`] for the first malformed frame; earlier frames are
/// discarded (a migration stream is all-or-nothing).
pub fn decode_stream(buf: &[u8]) -> Result<Vec<MigrationFrame>, WireError> {
    let mut r = Reader::new(buf);
    let mut frames = Vec::new();
    while r.remaining() > 0 {
        frames.push(decode_one(&mut r)?);
    }
    Ok(frames)
}

fn platform_byte(p: TeePlatform) -> u8 {
    match p {
        TeePlatform::Tdx => 1,
        TeePlatform::SevSnp => 2,
        TeePlatform::Cca => 3,
    }
}

fn vmkind_byte(k: VmKind) -> u8 {
    match k {
        VmKind::Secure => 1,
        VmKind::Normal => 2,
    }
}

fn decode_one(r: &mut Reader<'_>) -> Result<MigrationFrame, WireError> {
    let magic = r.array::<4>()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    match r.u8()? {
        KIND_BEGIN => {
            let platform = match r.u8()? {
                1 => TeePlatform::Tdx,
                2 => TeePlatform::SevSnp,
                3 => TeePlatform::Cca,
                value => return Err(WireError::BadValue { field: "platform", value }),
            };
            let kind = match r.u8()? {
                1 => VmKind::Secure,
                2 => VmKind::Normal,
                value => return Err(WireError::BadValue { field: "vm-kind", value }),
            };
            Ok(MigrationFrame::Begin { platform, kind, resident: r.u64()?, nonce: r.u64()? })
        }
        KIND_PAGES => {
            let round = r.u16()?;
            let count = r.u32()? as usize;
            if count > MAX_PAGES_PER_FRAME {
                return Err(WireError::FieldTooLong {
                    field: "pages",
                    len: count,
                    max: MAX_PAGES_PER_FRAME,
                });
            }
            // Bound checked above, so this allocation is at most 32 KiB.
            let mut gpas = Vec::with_capacity(count);
            for _ in 0..count {
                gpas.push(r.u64()?);
            }
            Ok(MigrationFrame::Pages { round, gpas })
        }
        KIND_STATE => Ok(MigrationFrame::State(VmRuntimeState {
            cycles: r.u64()?,
            rng_state: r.u64()?,
            heap_pages: r.u64()?,
            high_water_pages: r.u64()?,
            next_gpa: r.u64()?,
            total_exits: r.u64()?,
            total_faults: r.u64()?,
        })),
        KIND_COMMIT => {
            let len = r.u16()? as usize;
            if len > MAX_SESSION_ID_LEN {
                return Err(WireError::FieldTooLong {
                    field: "session",
                    len,
                    max: MAX_SESSION_ID_LEN,
                });
            }
            let bytes = r.take(len)?;
            let session =
                std::str::from_utf8(bytes).map_err(|_| WireError::BadUtf8("session"))?.to_owned();
            Ok(MigrationFrame::Commit { session, pages_total: r.u64()?, rounds: r.u32()? })
        }
        kind => Err(WireError::UnknownKind(kind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::fuzz::{sweep_iters, Mutator};

    fn samples() -> Vec<MigrationFrame> {
        vec![
            MigrationFrame::Begin {
                platform: TeePlatform::Tdx,
                kind: VmKind::Secure,
                resident: 96,
                nonce: 0xDEAD_BEEF,
            },
            MigrationFrame::Pages { round: 1, gpas: (0..96).collect() },
            MigrationFrame::Pages { round: 2, gpas: vec![0x100, 0x105, 0x3F] },
            MigrationFrame::State(VmRuntimeState {
                cycles: 1_234_567,
                rng_state: 0x9E37_79B9,
                heap_pages: 40,
                high_water_pages: 48,
                next_gpa: 0x130,
                total_exits: 17,
                total_faults: 1,
            }),
            MigrationFrame::Commit { session: "sess-tdx-0001".into(), pages_total: 99, rounds: 3 },
        ]
    }

    /// A frame header, for bodies built by hand.
    fn header(kind: u8) -> Vec<u8> {
        let mut out = WIRE_MAGIC.to_vec();
        out.extend([WIRE_VERSION, kind]);
        out
    }

    #[test]
    fn roundtrip_every_frame_kind() {
        for frame in samples() {
            let bytes = frame.encode();
            assert_eq!(MigrationFrame::decode(&bytes).unwrap(), frame);
        }
    }

    #[test]
    fn stream_roundtrip() {
        let frames = samples();
        let mut bytes = Vec::new();
        for f in &frames {
            f.encode_into(&mut bytes);
        }
        // Appending is encoding frame by frame.
        assert_eq!(bytes, frames.iter().flat_map(MigrationFrame::encode).collect::<Vec<_>>());
        assert_eq!(decode_stream(&bytes).unwrap(), frames);
        bytes.push(0xAA);
        // A stream's final frame is still strictly delimited: the stray
        // byte reads as a new frame and fails on its magic.
        assert!(matches!(decode_stream(&bytes), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn typed_rejections() {
        let good = samples()[0].encode();
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(MigrationFrame::decode(&bad_magic), Err(WireError::BadMagic(_))));

        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert_eq!(MigrationFrame::decode(&bad_version), Err(WireError::UnsupportedVersion(9)));

        let mut bad_kind = good.clone();
        bad_kind[5] = 200;
        assert_eq!(MigrationFrame::decode(&bad_kind), Err(WireError::UnknownKind(200)));

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(MigrationFrame::decode(&trailing), Err(WireError::TrailingBytes(1)));

        // The cursor's short read, carried over count for count: the
        // 8-byte nonce is three bytes short.
        assert_eq!(
            MigrationFrame::decode(&good[..good.len() - 3]),
            Err(WireError::Truncated { needed: 8, have: 5 })
        );

        let mut bad_platform = good;
        bad_platform[6] = 7;
        assert_eq!(
            MigrationFrame::decode(&bad_platform),
            Err(WireError::BadValue { field: "platform", value: 7 })
        );
    }

    #[test]
    fn oversized_page_count_is_rejected_before_allocation() {
        let mut bytes = header(KIND_PAGES);
        bytes.extend_from_slice(&1u16.to_be_bytes());
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            MigrationFrame::decode(&bytes),
            Err(WireError::FieldTooLong {
                field: "pages",
                len: u32::MAX as usize,
                max: MAX_PAGES_PER_FRAME
            })
        );
    }

    #[test]
    fn oversized_session_id_is_rejected() {
        let frame = MigrationFrame::Commit { session: "x".repeat(129), pages_total: 0, rounds: 1 };
        assert_eq!(
            MigrationFrame::decode(&frame.encode()),
            Err(WireError::FieldTooLong { field: "session", len: 129, max: MAX_SESSION_ID_LEN })
        );
    }

    #[test]
    fn non_utf8_session_is_rejected() {
        let mut bytes = header(KIND_COMMIT);
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&0u64.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes());
        assert_eq!(MigrationFrame::decode(&bytes), Err(WireError::BadUtf8("session")));
    }

    /// Seeded fuzz sweep: mutants either fail with a typed error or decode
    /// to a frame whose canonical encoding is the mutant itself — no
    /// panics, no silent accepts.
    #[test]
    fn fuzz_sweep_never_panics_or_silently_accepts() {
        let mut mutator = Mutator::new(0xC0FF_BE7C_0010);
        let bases: Vec<Vec<u8>> = samples().iter().map(MigrationFrame::encode).collect();
        for i in 0..sweep_iters() {
            let mutant = mutator.mutate(&bases[i % bases.len()]);
            if let Ok(frame) = MigrationFrame::decode(&mutant) {
                assert_eq!(frame.encode(), mutant, "non-canonical accept at iter {i}");
            }
        }
    }
}
