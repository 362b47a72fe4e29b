//! Remote attestation, end to end, on both hardware TEEs (paper §IV-C,
//! Fig. 5) — including what happens when evidence is tampered with and why
//! CCA sits this experiment out.
//!
//! Run with: `cargo run --example attestation_flow`

use std::error::Error;

use confbench_attest::{AttestError, SnpEcosystem, TdxEcosystem};
use confbench_types::{TeePlatform, VmTarget};
use confbench_vmm::TeeVmBuilder;

fn main() -> Result<(), Box<dyn Error>> {
    // --- TDX: TDREPORT -> QE quote -> DCAP verification with PCS fetches.
    let mut td = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).seed(1).try_build()?;
    let tdx = TdxEcosystem::new(1);
    let nonce = TdxEcosystem::report_data_for_nonce(0xfeed);

    let (quote, attest) = tdx.generate_quote(&mut td, nonce)?;
    println!("TDX attest: quote generated in {:.1} ms (TDCALL + QE signing)", attest.latency_ms);
    println!("  mrtd = {}", quote.report.mrtd);
    println!("  tcb  = {} ({})", quote.tcb_level, quote.report.tcb_version);

    let check = tdx.verify_quote(&quote, nonce)?;
    println!(
        "TDX check: verified in {:.1} ms ({:.1} ms of that in PCS round trips)",
        check.latency_ms, check.network_ms
    );

    // Tampered evidence is rejected.
    let mut forged = quote.clone();
    forged.tcb_level += 1;
    match tdx.verify_quote(&forged, nonce) {
        Err(AttestError::BadSignature(what)) => println!("  forged quote rejected ({what})"),
        other => panic!("forgery must fail, got {other:?}"),
    }

    // --- SEV-SNP: AMD-SP report + local VCEK chain (no network at all).
    let mut guest = TeeVmBuilder::new(VmTarget::secure(TeePlatform::SevSnp)).seed(1).try_build()?;
    let snp = SnpEcosystem::new(1);
    let mut snp_nonce = [0u8; 64];
    snp_nonce[..4].copy_from_slice(b"beef");

    let (report, attest) = snp.request_report(&mut guest, snp_nonce)?;
    println!("\nSNP attest: report in {:.1} ms (local AMD-SP firmware call)", attest.latency_ms);
    println!("  measurement = {}", report.measurement);

    let (chain, fetch_ms) = snp.fetch_chain(&mut guest)?;
    chain.verify()?;
    println!("  VCEK chain fetched from hardware in {fetch_ms:.1} ms and verified (ARK→ASK→VCEK)");

    let check = snp.verify_report_with_chain(&report, &chain, snp_nonce)?;
    println!("SNP check: verified in {:.1} ms, zero network", check.latency_ms);

    match snp.verify_report(&report, [9u8; 64]) {
        Err(AttestError::NonceMismatch) => println!("  stale-nonce replay rejected"),
        other => panic!("replay must fail, got {other:?}"),
    }

    // --- CCA: no attestation on the FVP testbed (paper §IV-B).
    let mut realm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Cca)).seed(1).try_build()?;
    let (rmm, rd) = realm.rmm_mut().expect("realm vm");
    match rmm.rsi_attestation_token(rd) {
        Err(e) => println!("\nCCA: {e} — exactly as in the paper's testbed"),
        Ok(_) => panic!("FVP model must not offer attestation"),
    }

    println!(
        "\nFig. 5 shape: SNP beats TDX in both phases; TDX 'check' is dominated\n\
         by the three PCS network requests (TCB info + two CRLs)."
    );
    Ok(())
}
