//! Confidential ML inference (the paper's §IV-C ML experiment, scaled
//! down): classify synthetic 1-MB images with a MobileNet-class model in
//! secure and normal VMs of every TEE, and report timing distributions.
//! Then repeat the same inferences offloaded to the TDISP GPU and check
//! the accelerator path is bit-identical to the host path.
//!
//! Run with: `cargo run --example ml_inference`

use confbench_stats::{stacked_percentiles, Summary};
use confbench_types::{DeviceKind, OpTrace, TeePlatform, VmKind, VmTarget};
use confbench_vmm::{TeeFault, TeeVmBuilder};
use confbench_workloads::{GpuInferenceWorkload, MlWorkload};

fn main() -> Result<(), TeeFault> {
    let ml = MlWorkload::new(7);
    println!("classifying {} synthetic 1-MB images (MobileNet-shaped model)\n", 8);
    let runs: Vec<_> = (0..8).map(|i| ml.classify(i)).collect();
    for run in &runs {
        println!(
            "  image {:>2} -> class {} ({} KiB read, {} float ops)",
            run.image_index,
            run.class,
            run.trace.total_io_bytes() / 1024,
            run.trace.total_float_ops()
        );
    }

    println!("\nper-inference wall times (ms), 5 trials per image:");
    let mut entries = Vec::new();
    for platform in TeePlatform::ALL {
        for kind in VmKind::ALL {
            let target = VmTarget { platform, kind };
            let mut vm = TeeVmBuilder::new(target).seed(7).try_build()?;
            let mut samples = Vec::new();
            for _ in 0..5 {
                for run in &runs {
                    samples.push(vm.try_execute(&run.trace)?.wall_ms);
                }
            }
            entries.push((target.to_string(), Summary::from_samples(&samples)));
        }
    }
    println!("{}", stacked_percentiles(&entries));
    println!(
        "note the paper's Fig. 3 shape: TDX ≈ SEV-SNP near native, CCA slower\n\
         in ratio and much slower in absolute time (the FVP simulation layer)."
    );

    // The same inferences, offloaded to the TDISP GPU. The device engine
    // runs the same layer kernels as the host, so probabilities and
    // predictions must match bit for bit; only the recorded operations
    // (DMA + device kernels instead of guest float work) differ.
    println!("\noffloading the forward pass to the attested TDISP GPU:");
    let gpu = GpuInferenceWorkload::new(7);
    for index in 0..8 {
        let mut host_trace = OpTrace::new();
        let mut dev_trace = OpTrace::new();
        let host_probs = gpu.forward_host(index, &mut host_trace);
        let dev_probs = gpu.forward_device(index, &mut dev_trace);
        assert_eq!(
            host_probs.data(),
            dev_probs.data(),
            "image {index}: host and device tensors must be bit-identical"
        );
        assert_eq!(host_probs.argmax(), dev_probs.argmax());
        println!(
            "  image {:>2} -> class {} on both paths ({} KiB DMA, {} float ops on device)",
            index,
            dev_probs.argmax(),
            dev_trace.total_dev_dma_bytes() / 1024,
            dev_trace.total_float_ops()
        );
    }

    // Replay one offloaded inference on a secure VM with the GPU attached:
    // after TDISP bring-up the DMA goes direct to private memory.
    let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx))
        .seed(7)
        .device(DeviceKind::Gpu)
        .try_build()?;
    let nonce = [7u8; 32];
    let report = vm.device_report(nonce)?;
    let verifier = confbench_attest::DeviceVerifier::new(TeePlatform::Tdx);
    let evidence = confbench_attest::Evidence::device(TeePlatform::Tdx, report);
    let mut report_data = [0u8; 64];
    report_data[..32].copy_from_slice(&nonce);
    confbench_attest::Verifier::verify(&verifier, &evidence, report_data)
        .expect("vendor signature verifies");
    vm.enable_device()?;
    let replay = vm.try_execute(&gpu.classify_device(0).trace)?;
    println!(
        "\nattested replay on tdx/secure: {} bytes direct DMA, {} bounced",
        replay.events.dma_direct_bytes, replay.events.dma_bounce_bytes
    );
    assert_eq!(replay.events.dma_bounce_bytes, 0, "attested DMA never bounces");
    Ok(())
}
