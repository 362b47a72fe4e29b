//! The confidential-DBMS stress test (paper §IV-C): run the speedtest suite
//! for real against the embedded engine, then replay each test's trace on a
//! chosen TEE's secure and normal VM.
//!
//! Run with: `cargo run --example dbms_stress [tdx|sev-snp|cca]`

use std::error::Error;

use confbench_minidb::run_speedtest;
use confbench_types::{OpTrace, TeePlatform, VmTarget};
use confbench_vmm::{TeeFault, TeeVmBuilder, Vm};

/// Mean wall milliseconds of five executions of `trace`.
fn mean_ms(vm: &mut Vm, trace: &OpTrace) -> Result<f64, TeeFault> {
    let mut total = 0.0;
    for _ in 0..5 {
        total += vm.try_execute(trace)?.wall_ms;
    }
    Ok(total / 5.0)
}

fn main() -> Result<(), Box<dyn Error>> {
    let platform: TeePlatform =
        std::env::args().nth(1).unwrap_or_else(|| "tdx".to_owned()).parse()?;
    println!("speedtest suite at relative size 20, platform {platform}\n");

    let reports = run_speedtest(20, 5)?;
    let mut secure_vm = TeeVmBuilder::new(VmTarget::secure(platform)).seed(5).try_build()?;
    let mut normal_vm = TeeVmBuilder::new(VmTarget::normal(platform)).seed(5).try_build()?;

    println!("{:<34} {:>6} {:>12} {:>12} {:>7}", "test", "rows", "secure ms", "normal ms", "ratio");
    for report in &reports {
        let secure = mean_ms(&mut secure_vm, &report.trace)?;
        let normal = mean_ms(&mut normal_vm, &report.trace)?;
        println!(
            "{:<34} {:>6} {:>12.3} {:>12.3} {:>6.2}x",
            report.case.name(),
            report.rows,
            secure,
            normal,
            secure / normal
        );
    }
    println!(
        "\npaper shape: on TDX and SEV-SNP these ratios sit near 1 (fsync is\n\
         device-bound); on CCA they blow up (run with `cca` to see why the\n\
         paper calls its DBMS overhead the largest)."
    );
    Ok(())
}
