//! SPDM-style signed device measurement reports.
//!
//! A device proves what firmware and interface configuration it is
//! running by returning a signed table of measurement blocks (SPDM
//! `GET_MEASUREMENTS` semantics). The codec here is deliberately strict:
//! every structural defect — truncation, duplicated blocks, trailing
//! bytes, version skew — decodes to a typed [`ReportError`], and content
//! corruption that survives the structural checks is caught by the
//! signature. Decoding never panics on any input.
//!
//! Wire layout (big-endian):
//!
//! ```text
//! magic "SPDM" (4) | version (2) | fw_svn (4) | block_count (1)
//! | blocks: { index (1) | kind (1) | digest (32) } × count
//! | nonce (32) | signature (16)
//! ```

use std::fmt;

use confbench_crypto::wire::{Reader, ShortRead};
use confbench_crypto::{Signature, SigningKey, VerifyingKey};

/// Report magic bytes.
pub const REPORT_MAGIC: [u8; 4] = *b"SPDM";
/// Supported report version.
pub const REPORT_VERSION: u16 = 0x0110;
/// Upper bound on measurement blocks per report.
pub const MAX_MEASUREMENT_BLOCKS: usize = 16;

/// Measurement kind: immutable device firmware.
pub const KIND_FIRMWARE: u8 = 0x01;
/// Measurement kind: the locked TDISP interface configuration.
pub const KIND_INTERFACE: u8 = 0x02;
/// Measurement kind: mutable configuration (VBIOS, fuses).
pub const KIND_CONFIG: u8 = 0x03;

/// Block index carrying the firmware measurement.
pub(crate) const FIRMWARE_INDEX: u8 = 0;
/// Block index carrying the interface-config measurement.
pub(crate) const INTERFACE_INDEX: u8 = 1;

const BLOCK_BYTES: usize = 1 + 1 + 32;
const HEADER_BYTES: usize = 4 + 2 + 4 + 1;
const NONCE_BYTES: usize = 32;
const SIGNATURE_BYTES: usize = 16;

/// One measurement block: an indexed digest of some device component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasurementBlock {
    /// Block index (unique within a report; index 0 is firmware, 1 the
    /// interface config).
    pub index: u8,
    /// What was measured ([`KIND_FIRMWARE`], [`KIND_INTERFACE`], ...).
    pub kind: u8,
    /// SHA-256 of the measured component.
    pub digest: [u8; 32],
}

/// A signed device measurement report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementReport {
    /// Security version number of the device firmware.
    pub fw_svn: u32,
    /// Measurement blocks, as returned by the device.
    pub blocks: Vec<MeasurementBlock>,
    /// Verifier-supplied freshness nonce echoed by the device.
    pub nonce: [u8; 32],
    /// Vendor signature over everything above.
    pub signature: Signature,
}

/// Typed decode/verify failure. Every malformed input maps to exactly one
/// of these; none of them panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportError {
    /// The input ends before the structure it promises.
    Truncated {
        /// Bytes the structure requires.
        needed: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The magic bytes are not `"SPDM"`.
    BadMagic([u8; 4]),
    /// The version field is not [`REPORT_VERSION`].
    UnsupportedVersion(u16),
    /// The block count exceeds [`MAX_MEASUREMENT_BLOCKS`].
    TooManyBlocks(usize),
    /// Two blocks share an index (a duplicated field).
    DuplicateBlock(u8),
    /// A required block (firmware or interface config) is absent.
    MissingBlock(u8),
    /// Bytes remain after the signature (an appended/duplicated field).
    TrailingBytes(usize),
    /// The vendor signature does not verify over the body.
    BadSignature,
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Truncated { needed, got } => {
                write!(f, "report truncated: needs {needed} bytes, got {got}")
            }
            ReportError::BadMagic(m) => write!(f, "bad report magic {m:02x?}"),
            ReportError::UnsupportedVersion(v) => {
                write!(f, "unsupported report version {v:#06x} (expected {REPORT_VERSION:#06x})")
            }
            ReportError::TooManyBlocks(n) => {
                write!(f, "{n} measurement blocks exceeds the limit {MAX_MEASUREMENT_BLOCKS}")
            }
            ReportError::DuplicateBlock(i) => write!(f, "duplicate measurement block index {i}"),
            ReportError::MissingBlock(i) => write!(f, "required measurement block {i} missing"),
            ReportError::TrailingBytes(n) => write!(f, "{n} trailing bytes after signature"),
            ReportError::BadSignature => write!(f, "vendor signature does not verify"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<ShortRead> for ReportError {
    fn from(e: ShortRead) -> Self {
        ReportError::Truncated { needed: e.needed, got: e.have }
    }
}

fn body_bytes(fw_svn: u32, blocks: &[MeasurementBlock], nonce: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + blocks.len() * BLOCK_BYTES + NONCE_BYTES);
    out.extend_from_slice(&REPORT_MAGIC);
    out.extend_from_slice(&REPORT_VERSION.to_be_bytes());
    out.extend_from_slice(&fw_svn.to_be_bytes());
    out.push(blocks.len() as u8);
    for block in blocks {
        out.push(block.index);
        out.push(block.kind);
        out.extend_from_slice(&block.digest);
    }
    out.extend_from_slice(nonce);
    out
}

impl MeasurementReport {
    /// Builds and signs a report with the vendor key.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_MEASUREMENT_BLOCKS`] blocks are given
    /// (a device never produces that; the *decoder* errors instead).
    pub fn sign(
        fw_svn: u32,
        blocks: Vec<MeasurementBlock>,
        nonce: [u8; 32],
        key: &SigningKey,
    ) -> Self {
        assert!(blocks.len() <= MAX_MEASUREMENT_BLOCKS, "too many measurement blocks");
        let signature = key.sign(&body_bytes(fw_svn, &blocks, &nonce));
        MeasurementReport { fw_svn, blocks, nonce, signature }
    }

    /// Serializes the report to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = body_bytes(self.fw_svn, &self.blocks, &self.nonce);
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// Parses a report from wire bytes, enforcing structure (not the
    /// signature — call [`verify`](Self::verify) with the vendor key).
    ///
    /// # Errors
    ///
    /// A [`ReportError`] describing the first structural defect found.
    pub fn decode(bytes: &[u8]) -> Result<Self, ReportError> {
        let min = HEADER_BYTES + NONCE_BYTES + SIGNATURE_BYTES;
        if bytes.len() < min {
            return Err(ReportError::Truncated { needed: min, got: bytes.len() });
        }
        let mut r = Reader::new(bytes);
        let magic: [u8; 4] = r.array()?;
        if magic != REPORT_MAGIC {
            return Err(ReportError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != REPORT_VERSION {
            return Err(ReportError::UnsupportedVersion(version));
        }
        let fw_svn = r.u32()?;
        let count = r.u8()? as usize;
        if count > MAX_MEASUREMENT_BLOCKS {
            return Err(ReportError::TooManyBlocks(count));
        }
        let total = HEADER_BYTES + count * BLOCK_BYTES + NONCE_BYTES + SIGNATURE_BYTES;
        if bytes.len() < total {
            return Err(ReportError::Truncated { needed: total, got: bytes.len() });
        }
        if bytes.len() > total {
            return Err(ReportError::TrailingBytes(bytes.len() - total));
        }
        let mut blocks = Vec::with_capacity(count);
        for _ in 0..count {
            let block = MeasurementBlock { index: r.u8()?, kind: r.u8()?, digest: r.array()? };
            if blocks.iter().any(|b: &MeasurementBlock| b.index == block.index) {
                return Err(ReportError::DuplicateBlock(block.index));
            }
            blocks.push(block);
        }
        for required in [FIRMWARE_INDEX, INTERFACE_INDEX] {
            if !blocks.iter().any(|b| b.index == required) {
                return Err(ReportError::MissingBlock(required));
            }
        }
        let nonce = r.array()?;
        let signature = Signature::from_bytes(r.array()?);
        Ok(MeasurementReport { fw_svn, blocks, nonce, signature })
    }

    /// Verifies the vendor signature over the report body.
    ///
    /// # Errors
    ///
    /// [`ReportError::BadSignature`] when the signature does not verify.
    pub fn verify(&self, key: &VerifyingKey) -> Result<(), ReportError> {
        key.verify(&body_bytes(self.fw_svn, &self.blocks, &self.nonce), &self.signature)
            .map_err(|_| ReportError::BadSignature)
    }

    /// The block at `index`, if present.
    pub fn block(&self, index: u8) -> Option<&MeasurementBlock> {
        self.blocks.iter().find(|b| b.index == index)
    }

    /// The firmware measurement (block 0).
    pub fn fw_digest(&self) -> Option<[u8; 32]> {
        self.block(FIRMWARE_INDEX).map(|b| b.digest)
    }

    /// The locked interface-config measurement (block 1).
    pub fn interface_digest(&self) -> Option<[u8; 32]> {
        self.block(INTERFACE_INDEX).map(|b| b.digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::SplitMix64;

    fn sample(nonce_seed: u8) -> MeasurementReport {
        let key = crate::device::vendor_signing_key();
        let blocks = vec![
            MeasurementBlock { index: 0, kind: KIND_FIRMWARE, digest: [0xAA; 32] },
            MeasurementBlock { index: 1, kind: KIND_INTERFACE, digest: [0xBB; 32] },
            MeasurementBlock { index: 2, kind: KIND_CONFIG, digest: [0xCC; 32] },
        ];
        MeasurementReport::sign(7, blocks, [nonce_seed; 32], &key)
    }

    #[test]
    fn roundtrip_and_signature_verify() {
        let report = sample(9);
        let bytes = report.encode();
        let back = MeasurementReport::decode(&bytes).unwrap();
        assert_eq!(back, report);
        back.verify(&crate::device::vendor_verifying_key()).unwrap();
        assert_eq!(back.fw_digest(), Some([0xAA; 32]));
        assert_eq!(back.interface_digest(), Some([0xBB; 32]));
    }

    #[test]
    fn structural_defects_decode_to_typed_errors() {
        let bytes = sample(1).encode();
        // Magic.
        let mut b = bytes.clone();
        b[0] = b'X';
        assert!(matches!(MeasurementReport::decode(&b), Err(ReportError::BadMagic(_))));
        // Version.
        let mut b = bytes.clone();
        b[4] = 0x7F;
        assert!(matches!(MeasurementReport::decode(&b), Err(ReportError::UnsupportedVersion(_))));
        // Block count claims more than present.
        let mut b = bytes.clone();
        b[10] = 12;
        assert!(matches!(MeasurementReport::decode(&b), Err(ReportError::Truncated { .. })));
        // Both length checks run before the cursor does, so its own short
        // read cannot surface; were one to, it would be the same rejection.
        assert_eq!(
            ReportError::from(ShortRead { needed: 32, have: 5 }),
            ReportError::Truncated { needed: 32, got: 5 }
        );
        // Block count over the limit.
        let mut b = bytes.clone();
        b[10] = 200;
        assert!(matches!(MeasurementReport::decode(&b), Err(ReportError::TooManyBlocks(200))));
        // Appended duplicate block without bumping the count: trailing.
        let mut b = bytes.clone();
        let dup: Vec<u8> = b[HEADER_BYTES..HEADER_BYTES + BLOCK_BYTES].to_vec();
        b.extend_from_slice(&dup);
        assert!(matches!(
            MeasurementReport::decode(&b),
            Err(ReportError::TrailingBytes(BLOCK_BYTES))
        ));
        // Duplicated index with the count bumped.
        let key = crate::device::vendor_signing_key();
        let dup_blocks = vec![
            MeasurementBlock { index: 0, kind: KIND_FIRMWARE, digest: [1; 32] },
            MeasurementBlock { index: 1, kind: KIND_INTERFACE, digest: [2; 32] },
            MeasurementBlock { index: 1, kind: KIND_CONFIG, digest: [3; 32] },
        ];
        let b = MeasurementReport::sign(7, dup_blocks, [0; 32], &key).encode();
        assert_eq!(MeasurementReport::decode(&b), Err(ReportError::DuplicateBlock(1)));
        // Missing required interface block.
        let only_fw = vec![MeasurementBlock { index: 0, kind: KIND_FIRMWARE, digest: [1; 32] }];
        let b = MeasurementReport::sign(7, only_fw, [0; 32], &key).encode();
        assert_eq!(MeasurementReport::decode(&b), Err(ReportError::MissingBlock(INTERFACE_INDEX)));
    }

    /// Satellite: deterministic structure-aware fuzz sweep. Truncations,
    /// duplicated fields and bit flips must all produce clean errors from
    /// decode + verify — never a panic, never a silently accepted report.
    #[test]
    fn fuzz_sweep_truncate_flip_duplicate() {
        let key = crate::device::vendor_verifying_key();
        let mut rng = SplitMix64::new(0xD3_710);
        let check = |bytes: &[u8]| {
            if let Ok(report) = MeasurementReport::decode(bytes) {
                assert_eq!(
                    report.verify(&key),
                    Err(ReportError::BadSignature),
                    "corrupted report must not verify"
                );
            }
        };
        for round in 0..400u64 {
            let base = sample((round % 251) as u8).encode();
            // Truncation at a random length (including zero).
            let cut = (rng.next_below(base.len() as u64 + 1)) as usize;
            if cut < base.len() {
                assert!(MeasurementReport::decode(&base[..cut]).is_err(), "cut at {cut}");
            }
            // Single bit flip anywhere.
            let mut flipped = base.clone();
            let bit = rng.next_below((base.len() * 8) as u64) as usize;
            flipped[bit / 8] ^= 1 << (bit % 8);
            check(&flipped);
            // Duplicated field: splice a random block's bytes back in.
            let mut dup = base.clone();
            let block = rng.next_below(3) as usize;
            let start = HEADER_BYTES + block * BLOCK_BYTES;
            let slice: Vec<u8> = dup[start..start + BLOCK_BYTES].to_vec();
            let at = HEADER_BYTES + (rng.next_below(3) as usize) * BLOCK_BYTES;
            for (i, byte) in slice.iter().enumerate() {
                dup.insert(at + i, *byte);
            }
            assert!(MeasurementReport::decode(&dup).is_err(), "duplicated block accepted");
        }
    }
}
