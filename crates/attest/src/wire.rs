//! Binary wire codec for attestation evidence.
//!
//! Quotes and reports are evidence from untrusted guests. No route decodes
//! these bytes today — the simulated flows pass quotes and reports as
//! values — but this is the form they take on a wire, and a verifier that
//! reads it faces whatever a guest sends. So the decoder is written to the
//! same standard as the HTTP parser — every malformed input must produce a
//! typed [`WireError`], never a panic and never a silently-corrected value.
//! The encoding is *canonical*: for every byte string, either decoding fails
//! or re-encoding the decoded value reproduces the input exactly. The fuzz
//! sweep in this module's tests enforces both properties.
//!
//! # Format
//!
//! ```text
//! magic   4 bytes  "CBAT"
//! version 1 byte   currently 1
//! kind    1 byte   1 = TD quote, 2 = SNP report
//! body    kind-specific, fixed layout, big-endian integers
//! ```
//!
//! A TD-quote body is `mrtd (32) ‖ rtmr[0..4] (4×32) ‖ report_data (64) ‖
//! tcb_version (u16 length + UTF-8, ≤ 256) ‖ tcb_level (u64) ‖
//! qe_signature (16)`. An SNP-report body is `measurement (32) ‖
//! report_data (64) ‖ chip_id (u64) ‖ tcb_version (u64) ‖ signature (16)`.
//! Trailing bytes after the body are rejected.

use std::fmt;

use confbench_crypto::wire::{Reader, ShortRead};
use confbench_crypto::{Digest, Signature};
use confbench_vmm::TdReport;

use crate::tdx_flow::TdQuote;
use confbench_vmm::SnpReport;

/// Magic prefix of every serialized attestation message.
pub const WIRE_MAGIC: [u8; 4] = *b"CBAT";
/// Wire format version this module reads and writes.
pub const WIRE_VERSION: u8 = 1;
/// Longest accepted `tcb_version` string in a TD quote.
pub const MAX_TCB_VERSION_LEN: usize = 256;

const KIND_TD_QUOTE: u8 = 1;
const KIND_SNP_REPORT: u8 = 2;

/// Errors from decoding an attestation wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The message does not start with [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte is not [`WIRE_VERSION`].
    UnsupportedVersion(u8),
    /// The kind byte names no known message type.
    UnknownKind(u8),
    /// The message ended before a field was complete.
    Truncated {
        /// Bytes the next field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// Bytes remain after the complete body (non-canonical framing).
    TrailingBytes(usize),
    /// A length-prefixed field exceeds its cap.
    FieldTooLong {
        /// Which field.
        field: &'static str,
        /// Declared length.
        len: usize,
        /// Maximum accepted length.
        max: usize,
    },
    /// A string field holds invalid UTF-8.
    BadUtf8(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "wire: bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "wire: unsupported version {v}"),
            WireError::UnknownKind(k) => write!(f, "wire: unknown message kind {k}"),
            WireError::Truncated { needed, have } => {
                write!(f, "wire: truncated message (need {needed} bytes, have {have})")
            }
            WireError::TrailingBytes(n) => write!(f, "wire: {n} trailing bytes after body"),
            WireError::FieldTooLong { field, len, max } => {
                write!(f, "wire: field {field} of {len} bytes exceeds {max}")
            }
            WireError::BadUtf8(field) => write!(f, "wire: field {field} is not valid utf-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// Either decodable attestation message, as returned by [`decode`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A TDX quote.
    TdQuote(TdQuote),
    /// An SEV-SNP report.
    SnpReport(SnpReport),
}

impl From<ShortRead> for WireError {
    fn from(e: ShortRead) -> Self {
        WireError::Truncated { needed: e.needed, have: e.have }
    }
}

/// The framing is canonical: nothing may follow the body.
fn finish(r: &Reader<'_>) -> Result<(), WireError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(WireError::TrailingBytes(n)),
    }
}

fn header(kind: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + 256);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    out
}

fn read_header(r: &mut Reader<'_>) -> Result<u8, WireError> {
    let magic: [u8; 4] = r.array()?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(r.u8()?)
}

/// Serializes a TD quote.
pub fn encode_td_quote(quote: &TdQuote) -> Vec<u8> {
    let mut out = header(KIND_TD_QUOTE);
    out.extend_from_slice(quote.report.mrtd.as_bytes());
    for r in &quote.report.rtmr {
        out.extend_from_slice(r.as_bytes());
    }
    out.extend_from_slice(&quote.report.report_data);
    let tcb = quote.report.tcb_version.as_bytes();
    debug_assert!(tcb.len() <= MAX_TCB_VERSION_LEN, "oversized tcb_version escaped validation");
    out.extend_from_slice(&(tcb.len() as u16).to_be_bytes());
    out.extend_from_slice(tcb);
    out.extend_from_slice(&quote.tcb_level.to_be_bytes());
    out.extend_from_slice(&quote.qe_signature.to_bytes());
    out
}

/// Serializes an SNP report.
pub fn encode_snp_report(report: &SnpReport) -> Vec<u8> {
    let mut out = header(KIND_SNP_REPORT);
    out.extend_from_slice(report.measurement.as_bytes());
    out.extend_from_slice(&report.report_data);
    out.extend_from_slice(&report.chip_id.to_be_bytes());
    out.extend_from_slice(&report.tcb_version.to_be_bytes());
    out.extend_from_slice(&report.signature.to_bytes());
    out
}

fn decode_td_quote_body(r: &mut Reader<'_>) -> Result<TdQuote, WireError> {
    let mrtd = Digest(r.array()?);
    let mut rtmr = [Digest([0u8; 32]); 4];
    for slot in &mut rtmr {
        *slot = Digest(r.array()?);
    }
    let report_data: [u8; 64] = r.array()?;
    let tcb_len = r.u16()? as usize;
    if tcb_len > MAX_TCB_VERSION_LEN {
        return Err(WireError::FieldTooLong {
            field: "tcb_version",
            len: tcb_len,
            max: MAX_TCB_VERSION_LEN,
        });
    }
    let tcb_version = std::str::from_utf8(r.take(tcb_len)?)
        .map_err(|_| WireError::BadUtf8("tcb_version"))?
        .to_owned();
    let tcb_level = r.u64()?;
    let qe_signature = Signature::from_bytes(r.array()?);
    Ok(TdQuote {
        report: TdReport { mrtd, rtmr, report_data, tcb_version },
        tcb_level,
        qe_signature,
    })
}

fn decode_snp_report_body(r: &mut Reader<'_>) -> Result<SnpReport, WireError> {
    let measurement = Digest(r.array()?);
    let report_data: [u8; 64] = r.array()?;
    let chip_id = r.u64()?;
    let tcb_version = r.u64()?;
    let signature = Signature::from_bytes(r.array()?);
    Ok(SnpReport { measurement, report_data, chip_id, tcb_version, signature })
}

/// Deserializes a TD quote; rejects any other kind.
///
/// # Errors
///
/// [`WireError`] on any framing, bound, or encoding violation.
pub fn decode_td_quote(bytes: &[u8]) -> Result<TdQuote, WireError> {
    let mut r = Reader::new(bytes);
    match read_header(&mut r)? {
        KIND_TD_QUOTE => {}
        other => return Err(WireError::UnknownKind(other)),
    }
    let quote = decode_td_quote_body(&mut r)?;
    finish(&r)?;
    Ok(quote)
}

/// Deserializes an SNP report; rejects any other kind.
///
/// # Errors
///
/// [`WireError`] on any framing, bound, or encoding violation.
pub fn decode_snp_report(bytes: &[u8]) -> Result<SnpReport, WireError> {
    let mut r = Reader::new(bytes);
    match read_header(&mut r)? {
        KIND_SNP_REPORT => {}
        other => return Err(WireError::UnknownKind(other)),
    }
    let report = decode_snp_report_body(&mut r)?;
    finish(&r)?;
    Ok(report)
}

/// Deserializes either attestation message by its kind byte.
///
/// # Errors
///
/// [`WireError`] on any framing, bound, or encoding violation.
pub fn decode(bytes: &[u8]) -> Result<WireMessage, WireError> {
    let mut r = Reader::new(bytes);
    let message = match read_header(&mut r)? {
        KIND_TD_QUOTE => WireMessage::TdQuote(decode_td_quote_body(&mut r)?),
        KIND_SNP_REPORT => WireMessage::SnpReport(decode_snp_report_body(&mut r)?),
        other => return Err(WireError::UnknownKind(other)),
    };
    finish(&r)?;
    Ok(message)
}

/// Serializes either attestation message.
pub fn encode(message: &WireMessage) -> Vec<u8> {
    match message {
        WireMessage::TdQuote(q) => encode_td_quote(q),
        WireMessage::SnpReport(r) => encode_snp_report(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_crypto::{Sha256, SigningKey};

    fn sample_quote() -> TdQuote {
        let report = TdReport {
            mrtd: Sha256::digest(b"mrtd"),
            rtmr: [
                Sha256::digest(b"r0"),
                Sha256::digest(b"r1"),
                Sha256::digest(b"r2"),
                Sha256::digest(b"r3"),
            ],
            report_data: [0xAB; 64],
            tcb_version: "1.5.06.00".to_owned(),
        };
        let mut quote =
            TdQuote { report, tcb_level: 7, qe_signature: Signature::from_bytes([0; 16]) };
        quote.qe_signature = SigningKey::from_seed(11).sign(&quote.signed_bytes());
        quote
    }

    fn sample_report() -> SnpReport {
        let mut report = SnpReport {
            measurement: Sha256::digest(b"image"),
            report_data: [0xCD; 64],
            chip_id: 0x1337,
            tcb_version: 12,
            signature: Signature::from_bytes([0; 16]),
        };
        report.signature = SigningKey::from_seed(13).sign(&report.signed_bytes());
        report
    }

    #[test]
    fn quote_roundtrips() {
        let quote = sample_quote();
        let bytes = encode_td_quote(&quote);
        assert_eq!(decode_td_quote(&bytes).unwrap(), quote);
        assert_eq!(decode(&bytes).unwrap(), WireMessage::TdQuote(quote));
    }

    #[test]
    fn report_roundtrips() {
        let report = sample_report();
        let bytes = encode_snp_report(&report);
        assert_eq!(decode_snp_report(&bytes).unwrap(), report);
        assert_eq!(decode(&bytes).unwrap(), WireMessage::SnpReport(report));
    }

    #[test]
    fn framing_violations_yield_typed_errors() {
        let bytes = encode_td_quote(&sample_quote());

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode(&bad_magic), Err(WireError::BadMagic(_))));

        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert!(matches!(decode(&bad_version), Err(WireError::UnsupportedVersion(9))));

        let mut bad_kind = bytes.clone();
        bad_kind[5] = 200;
        assert!(matches!(decode(&bad_kind), Err(WireError::UnknownKind(200))));

        // The cursor's short read, carried over count for count: the
        // 16-byte signature is one byte short.
        assert_eq!(
            decode(&bytes[..bytes.len() - 1]),
            Err(WireError::Truncated { needed: 16, have: 15 })
        );

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode(&trailing), Err(WireError::TrailingBytes(1))));

        // A kind-mismatched decode is rejected, not coerced.
        assert!(matches!(decode_snp_report(&bytes), Err(WireError::UnknownKind(KIND_TD_QUOTE))));
    }

    #[test]
    fn oversized_tcb_version_is_rejected_before_allocation() {
        let bytes = encode_td_quote(&sample_quote());
        let mut oversized = bytes.clone();
        // The length prefix sits after magic(4) + version(1) + kind(1) +
        // mrtd(32) + rtmr(128) + report_data(64).
        let len_at = 6 + 32 + 128 + 64;
        oversized[len_at..len_at + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(
            decode(&oversized),
            Err(WireError::FieldTooLong { field: "tcb_version", .. })
        ));
    }

    #[test]
    fn non_utf8_tcb_version_is_rejected() {
        let bytes = encode_td_quote(&sample_quote());
        let mut bad = bytes.clone();
        let tcb_at = 6 + 32 + 128 + 64 + 2;
        bad[tcb_at] = 0xFF;
        assert!(matches!(decode(&bad), Err(WireError::BadUtf8("tcb_version"))));
    }

    #[test]
    fn tampered_signed_fields_fail_verification_after_roundtrip() {
        // The codec is not the integrity boundary — the signature is. Flip
        // each signature-covered field on the wire and check the decoded
        // value no longer verifies.
        let quote = sample_quote();
        let key = SigningKey::from_seed(11);
        let bytes = encode_td_quote(&quote);
        // mrtd, each rtmr, report_data, tcb_level, signature itself.
        for offset in
            [6, 6 + 32, 6 + 64, 6 + 96, 6 + 128, 6 + 160, bytes.len() - 24, bytes.len() - 8]
        {
            let mut tampered = bytes.clone();
            tampered[offset] ^= 1;
            let decoded = decode_td_quote(&tampered).expect("framing is intact");
            assert_ne!(decoded, quote);
            assert!(
                key.verifying_key().verify(&decoded.signed_bytes(), &decoded.qe_signature).is_err(),
                "tamper at {offset} passed verification"
            );
        }
    }

    #[test]
    fn fuzz_sweep_wire_decoder() {
        let corpus = [encode_td_quote(&sample_quote()), encode_snp_report(&sample_report())];
        let mut mutator = confbench_crypto::fuzz::Mutator::new(0xC0FF_BE7C_0002);
        let iters = confbench_crypto::fuzz::sweep_iters();
        for base in &corpus {
            for _ in 0..iters {
                let mutant = mutator.mutate(base);
                // Property: decode never panics, and whatever it accepts is
                // canonical — re-encoding reproduces the mutant exactly, so
                // no corrupted framing is ever silently "repaired".
                if let Ok(message) = decode(&mutant) {
                    assert_eq!(encode(&message), mutant, "non-canonical accept");
                }
            }
        }
    }
}
