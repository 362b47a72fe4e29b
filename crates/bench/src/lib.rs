//! The ConfBench-RS experiment harness: one driver per table/figure in the
//! paper's evaluation (§IV), regenerating the same rows and series, behind
//! one front-end — `confbench-bench <figure> [--smoke] [--seed N]` prints a
//! figure, `confbench-bench reproduce` rewrites every golden
//! `results/<figure>.txt`. [`FIGURES`] is the table both commands read.
//!
//! All drivers are deterministic in the seed; `Scale::Quick` (`--smoke`)
//! shrinks workload arguments and trial counts for tests and CI,
//! `Scale::Paper` matches the paper's configuration (10 trials, default
//! sizes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;

use confbench_faasrt::{FaasFunction, FunctionLauncher};
use confbench_types::{Error, Language, OpTrace, Result, TeePlatform, VmKind, VmTarget};
use confbench_vmm::{ExecutionReport, TeeVmBuilder, Vm};
use confbench_workloads::FaasWorkload;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small arguments, 3 trials — for tests and `--smoke` runs.
    Quick,
    /// The paper's configuration: default arguments, 10 trials.
    Paper,
}

/// Common experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Scale of arguments and trials.
    pub scale: Scale,
}

impl ExperimentConfig {
    /// Quick configuration at `seed`.
    pub fn quick(seed: u64) -> Self {
        ExperimentConfig { seed, scale: Scale::Quick }
    }

    /// Paper configuration at `seed`.
    pub fn paper(seed: u64) -> Self {
        ExperimentConfig { seed, scale: Scale::Paper }
    }

    /// Arguments for a suite workload: its defaults at paper scale; at quick
    /// scale, ones small enough for tests yet large enough that ratios are
    /// stable.
    pub fn args_for(&self, workload: &FaasWorkload) -> Vec<String> {
        match self.scale {
            Scale::Quick => quick_args(workload.name()),
            Scale::Paper => workload.default_args(),
        }
    }

    /// Trials per measurement (paper: 10 independent runs).
    pub fn trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 3,
            Scale::Paper => 10,
        }
    }
}

/// One entry of the `confbench-bench` front-end.
pub struct Figure {
    /// Subcommand name; for golden figures also the stem of
    /// `results/<name>.txt`.
    pub name: &'static str,
    /// Seed used unless `--seed` overrides it.
    pub seed: u64,
    /// Whether `reproduce` rewrites `results/<name>.txt` from it, which
    /// takes output free of wall-clock measurements.
    pub golden: bool,
    /// Runs the experiment and writes the figure as text; fails with
    /// whatever the experiment surfaces (a VM fault, a refused run) or with
    /// the write's I/O error.
    pub render: fn(ExperimentConfig, &mut dyn Write) -> Result<()>,
}

/// Every figure `confbench-bench` can print.
pub const FIGURES: [Figure; 12] = [
    Figure { name: "fig3_ml", seed: 7, golden: true, render: fig3::render },
    Figure { name: "dbms_table", seed: 5, golden: true, render: dbms::render },
    Figure { name: "fig4_unixbench", seed: 9, golden: true, render: fig4::render },
    Figure { name: "fig5_attestation", seed: 11, golden: true, render: fig5::render },
    Figure { name: "fig6_heatmap", seed: 13, golden: true, render: heatmap::render_fig6 },
    Figure { name: "fig7_cca_heatmap", seed: 13, golden: true, render: heatmap::render_fig7 },
    Figure { name: "fig8_cca_box", seed: 17, golden: true, render: fig8::render },
    Figure { name: "ablations", seed: 23, golden: true, render: ablations::render },
    Figure { name: "colocation", seed: 31, golden: true, render: colocation::render },
    Figure { name: "fig_gpu", seed: 29, golden: false, render: fig_gpu::render },
    Figure { name: "fig_migration", seed: 11, golden: false, render: fig_migration::render },
    Figure { name: "c10k", seed: 0, golden: false, render: c10k::render },
];

/// Runs `trials` (at least one) independent executions of `trace` on `vm`.
///
/// # Errors
///
/// The first [`Error::TeeFault`] an execution surfaces.
pub fn run_trace(vm: &mut Vm, trace: &OpTrace, trials: u32) -> Result<Vec<ExecutionReport>> {
    (0..trials.max(1)).map(|_| Ok(vm.try_execute(trace)?)).collect()
}

/// Boots a fresh VM from `builder`, replays the unmeasured `startup` trace,
/// then measures `trials` executions of `trace`.
///
/// # Errors
///
/// An [`Error::TeeFault`] from boot or any execution.
pub fn measure_trace(
    builder: TeeVmBuilder,
    startup: &OpTrace,
    trace: &OpTrace,
    trials: u32,
) -> Result<Vec<ExecutionReport>> {
    let mut vm = builder.try_build()?;
    vm.try_execute(startup)?;
    run_trace(&mut vm, trace, trials)
}

/// Per-trial wall milliseconds of a measured series.
pub fn wall_ms(reports: &[ExecutionReport]) -> Vec<f64> {
    reports.iter().map(|r| r.wall_ms).collect()
}

/// Launches `function` under `language` once (launch is deterministic) and
/// measures it on the secure and normal VM of `platform`.
/// Returns (secure ms trials, normal ms trials).
///
/// # Errors
///
/// [`Error::Workload`] when the launch fails, [`Error::TeeFault`] when a VM
/// faults.
pub fn measure_function(
    function: &dyn FaasFunction,
    args: &[String],
    language: Language,
    platform: TeePlatform,
    trials: u32,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>)> {
    let output = FunctionLauncher::new(language)
        .launch(function, args)
        .map_err(|e| Error::Workload(e.to_string()))?;
    let seed = mix_seed(seed, &format!("{}/{}", function.name(), language));
    let measure = |kind| {
        let builder = TeeVmBuilder::new(VmTarget { platform, kind }).seed(seed);
        measure_trace(builder, &output.startup_trace, &output.trace, trials)
    };
    Ok((wall_ms(&measure(VmKind::Secure)?), wall_ms(&measure(VmKind::Normal)?)))
}

/// Mean of a slice (helper used across drivers).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mixes a measurement label into a seed (FNV-1a), so each experiment cell
/// gets an independent jitter stream; a shared seed would correlate the
/// noise of every cell and bias whole figures.
pub fn mix_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn quick_args(name: &str) -> Vec<String> {
    let args: &[&str] = match name {
        "cpustress" => &["8000"],
        "memstress" => &["6"],
        "iostress" => &["2"],
        "logging" => &["150"],
        "factors" => &["360360"],
        "filesystem" => &["1"],
        "ack" => &["4", "16"],
        "fib" => &["13"],
        "primes" => &["4000"],
        "matrix" => &["12"],
        "quicksort" => &["600"],
        "mergesort" => &["600"],
        "base64" => &["1500"],
        "json" => &["40"],
        "checksum" => &["4000"],
        "compress" => &["4000"],
        "mandelbrot" => &["20"],
        "nbody" => &["200"],
        "binarytrees" => &["9"],
        "spectralnorm" => &["20", "2"],
        "dijkstra" => &["10"],
        "wordcount" => &["4000"],
        "histogram" => &["4000"],
        "montecarlo" => &["3000"],
        "strings" => &["400"],
        other => panic!("no quick args for {other}"),
    };
    args.iter().map(|s| (*s).to_owned()).collect()
}

pub mod ablations;
pub mod c10k;
pub mod colocation;
pub mod dbms;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig8;
pub mod fig_gpu;
pub mod fig_migration;
pub mod heatmap;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `reproduce` and `results/` must agree on what is checked in:
    /// a golden entry without a file is never diffed by CI, and a file
    /// without an entry is never regenerated.
    #[test]
    fn golden_figures_are_exactly_the_files_under_results() {
        let golden: BTreeSet<String> =
            FIGURES.iter().filter(|f| f.golden).map(|f| format!("{}.txt", f.name)).collect();
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let files: BTreeSet<String> = std::fs::read_dir(results)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(golden, files);
    }
}
