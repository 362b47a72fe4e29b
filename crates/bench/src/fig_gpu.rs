//! The TEE-IO figure: gpu-inference across all three platforms, with the
//! TDISP on/off ablation.
//!
//! The headline claim of confidential device I/O is that *attested* direct
//! DMA makes accelerator offload nearly free inside a TEE: once the GPU's
//! TDISP interface reaches `Run`, its DMA targets private memory directly
//! and the secure/normal ratio stays ≈ 1.0. Refusing (or skipping) device
//! attestation leaves the interface merely `Locked`, every DMA detours
//! through the swiotlb bounce pool, and the same workload pays a staging
//! tax well above the attested path. The figure reports both ratios per
//! platform, plus the DMA byte accounting that proves which path ran.

use std::io::Write;

use confbench::{ConfBench, GPU_INFERENCE};
use confbench_attest::{DeviceVerifier, Evidence, Verifier};
use confbench_types::{
    DeviceKind, Error, FunctionSpec, Language, OpTrace, Result, RunRequest, TeePlatform, VmKind,
    VmTarget,
};
use confbench_vmm::{TeeVmBuilder, Vm};
use confbench_workloads::GpuInferenceWorkload;

use crate::{mean, run_trace, ExperimentConfig};

/// One platform's row of the TEE-IO figure.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRow {
    /// The platform measured.
    pub platform: TeePlatform,
    /// Full-stack gateway ratio for `gpu-inference` with the attested GPU
    /// (supervisor bring-up, device session through the attestation cache).
    /// Includes the workload's host-side image load and memory traffic, so
    /// it sits above the pure DMA ratio on I/O-taxing platforms.
    pub gateway_ratio: f64,
    /// Device-DMA cycle ratio with an attested device (TDISP on): a
    /// DMA-dominated probe sized from the workload's real transfer volume,
    /// secure over normal. Near 1.0 — the TEE-IO headline.
    pub direct_ratio: f64,
    /// The same probe with a locked-but-unattested device (TDISP off):
    /// every DMA bounces through swiotlb, elevating the ratio.
    pub bounce_ratio: f64,
    /// Device DMA bytes that went direct-to-private on the attested run.
    pub dma_direct_bytes: u64,
    /// Device DMA bytes that staged through the bounce pool on the
    /// unattested run.
    pub dma_bounce_bytes: u64,
}

/// Brings the plugged GPU to `Run` the same way the production supervisor
/// does: signed SPDM report out, vendor-key verification in
/// `confbench-attest`, then interface start.
///
/// # Errors
///
/// A device fault while reporting or starting, or the vendor signature
/// being refused.
fn attest_device(vm: &mut Vm, platform: TeePlatform, nonce: [u8; 32]) -> Result<()> {
    let report = vm.device_report(nonce)?;
    let verifier = DeviceVerifier::new(platform);
    let evidence = Evidence::device(platform, report);
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&nonce);
    Verifier::verify(&verifier, &evidence, report_data)
        .map_err(|e| Error::Attestation(e.to_string()))?;
    Ok(vm.enable_device()?)
}

/// Runs the TEE-IO figure: one [`GpuRow`] per platform, deterministic in
/// the seed.
///
/// # Errors
///
/// A failed gateway run, device bring-up, or VM fault.
pub fn run(cfg: ExperimentConfig) -> Result<Vec<GpuRow>> {
    let bench = ConfBench::local(cfg.seed);
    let workload = GpuInferenceWorkload::new(cfg.seed);
    let trials = cfg.trials();
    let nonce = [0x5a; 32];

    // The DMA-path probe: the workload's real per-inference transfer
    // volume (weights + activations up, result down), scaled to a batch so
    // DMA dominates, with a sliver of CPU work framing it. This isolates
    // the path-selection effect from the workload's host-side I/O.
    let inference = workload.classify_device(0).trace;
    let upload = workload.weight_bytes();
    let download = inference.total_dev_dma_bytes() - upload;
    let batch = match cfg.scale {
        crate::Scale::Quick => 8,
        crate::Scale::Paper => 32,
    };
    let mut probe = OpTrace::new();
    probe.cpu(5_000);
    probe.dev_dma_in(upload * batch);
    probe.dev_dma_out(download * batch);

    let mut rows = Vec::new();
    for platform in TeePlatform::ALL {
        let request = RunRequest::new(
            FunctionSpec::new(GPU_INFERENCE, Language::Go),
            VmTarget::secure(platform),
        )
        .trials(trials)
        .seed(cfg.seed)
        .device(DeviceKind::Gpu);
        let gateway_ratio = bench.measure_ratio(request)?.ratio;

        let build = |kind| {
            TeeVmBuilder::new(VmTarget { platform, kind })
                .seed(cfg.seed)
                .device(DeviceKind::Gpu)
                .try_build()
        };
        let mut normal = build(VmKind::Normal)?;
        let mut attested = build(VmKind::Secure)?;
        attest_device(&mut attested, platform, nonce)?;
        let mut locked = build(VmKind::Secure)?;

        let measure = |vm: &mut Vm| {
            run_trace(vm, &probe, trials).map(|reports| {
                let cycles: Vec<f64> = reports.iter().map(|r| r.cycles.get() as f64).collect();
                let direct = reports.iter().map(|r| r.events.dma_direct_bytes).sum::<u64>();
                let bounce = reports.iter().map(|r| r.events.dma_bounce_bytes).sum::<u64>();
                (mean(&cycles), direct, bounce)
            })
        };
        let (base, _, _) = measure(&mut normal)?;
        let (direct_cycles, dma_direct_bytes, direct_leak) = measure(&mut attested)?;
        let (bounce_cycles, bounce_leak, dma_bounce_bytes) = measure(&mut locked)?;
        assert_eq!(direct_leak, 0, "attested DMA never bounces");
        assert_eq!(bounce_leak, 0, "unattested DMA never goes direct");

        rows.push(GpuRow {
            platform,
            gateway_ratio,
            direct_ratio: direct_cycles / base,
            bounce_ratio: bounce_cycles / base,
            dma_direct_bytes,
            dma_bounce_bytes,
        });
    }
    Ok(rows)
}

/// Prints the TEE-IO figure: gpu-inference secure/normal ratios on all
/// three platforms, attested (TDISP on, direct DMA) vs locked-only (TDISP
/// off, swiotlb bounce), with DMA byte accounting.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== gpu-inference with a TDISP GPU: secure/normal ratios ===\n")?;
    writeln!(
        out,
        "{:<10} {:>9} {:>11} {:>11} {:>14} {:>14}",
        "platform", "gateway", "attested", "tdisp-off", "direct bytes", "bounce bytes"
    )?;
    for row in run(cfg)? {
        writeln!(
            out,
            "{:<10} {:>8.2}x {:>10.2}x {:>10.2}x {:>14} {:>14}",
            row.platform.to_string(),
            row.gateway_ratio,
            row.direct_ratio,
            row.bounce_ratio,
            row.dma_direct_bytes,
            row.dma_bounce_bytes
        )?;
    }
    writeln!(out, "\n-> attested direct DMA keeps accelerator offload near-native inside")?;
    writeln!(out, "   the TEE; skipping device attestation leaves the interface Locked")?;
    writeln!(out, "   and every DMA pays the swiotlb staging tax.")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attested_offload_is_near_native_and_tdisp_off_is_not() {
        let rows = run(ExperimentConfig::quick(29)).unwrap();
        assert_eq!(rows.len(), TeePlatform::ALL.len());
        for row in &rows {
            let p = row.platform;
            assert!(
                (0.8..1.25).contains(&row.direct_ratio),
                "{p}: attested DMA should be near-native, got {:.2}",
                row.direct_ratio
            );
            assert!(
                row.bounce_ratio > row.direct_ratio * 1.5,
                "{p}: TDISP-off must pay the staging tax ({:.2} vs {:.2})",
                row.bounce_ratio,
                row.direct_ratio
            );
            assert!(
                row.gateway_ratio.is_finite() && row.gateway_ratio > 0.0,
                "{p}: gateway ratio {}",
                row.gateway_ratio
            );
            assert!(row.dma_direct_bytes > 0, "{p}: attested run moved real DMA");
            assert_eq!(
                row.dma_direct_bytes, row.dma_bounce_bytes,
                "{p}: same trace, same bytes — only the path differs"
            );
        }
    }

    #[test]
    fn figure_is_deterministic_in_the_seed() {
        let a = run(ExperimentConfig::quick(31)).unwrap();
        let b = run(ExperimentConfig::quick(31)).unwrap();
        assert_eq!(a, b);
    }
}
