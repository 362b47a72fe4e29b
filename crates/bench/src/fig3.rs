//! Fig. 3 — Confidential ML: distribution (stacked percentiles) of observed
//! inference times, secure vs normal, for all three TEEs, log scale.
//!
//! Paper shape: TDX ≈ SEV-SNP at close-to-native speed (TDX with a limited
//! advantage); CCA up to ~1.33× its own baseline and far slower in absolute
//! terms (the FVP tax).

use std::io::Write;

use confbench_stats::{stacked_percentiles, Summary};
use confbench_types::{Result, TeePlatform, VmKind, VmTarget};
use confbench_vmm::TeeVmBuilder;
use confbench_workloads::MlWorkload;

use crate::{ExperimentConfig, Scale};

/// One series of Fig. 3: the per-inference wall times of a target.
#[derive(Debug, Clone)]
pub struct MlSeries {
    /// Which VM this series measures.
    pub target: VmTarget,
    /// One sample per (image × trial): inference wall ms.
    pub inference_ms: Vec<f64>,
}

impl MlSeries {
    /// Summary of the series.
    pub fn summary(&self) -> Summary {
        Summary::from_samples(&self.inference_ms)
    }
}

/// Results for the figure: six series (3 platforms × 2 kinds).
#[derive(Debug, Clone)]
pub struct MlFigure {
    /// Series in plotting order (per platform: secure then normal).
    pub series: Vec<MlSeries>,
}

impl MlFigure {
    /// Secure/normal mean-time ratio for a platform.
    ///
    /// # Panics
    ///
    /// Panics if the platform's series are missing.
    pub fn ratio(&self, platform: TeePlatform) -> f64 {
        let get = |kind| {
            self.series
                .iter()
                .find(|s| s.target == VmTarget { platform, kind })
                .expect("series present")
                .summary()
                .mean
        };
        get(VmKind::Secure) / get(VmKind::Normal)
    }
}

/// Runs the experiment: a MobileNet-class model classifying the 40-image
/// dataset in every VM (subset of images under `Scale::Quick`).
///
/// # Errors
///
/// A VM fault.
pub fn run(cfg: ExperimentConfig) -> Result<MlFigure> {
    let ml = MlWorkload::new(cfg.seed);
    let images = match cfg.scale {
        Scale::Quick => 6,
        Scale::Paper => ml.dataset_size(),
    };
    let runs: Vec<_> = (0..images).map(|i| ml.classify(i)).collect();

    let mut series = Vec::new();
    for platform in TeePlatform::ALL {
        for kind in VmKind::ALL {
            let target = VmTarget { platform, kind };
            let mut vm = TeeVmBuilder::new(target).seed(cfg.seed).try_build()?;
            let mut inference_ms = Vec::new();
            for _trial in 0..cfg.trials() {
                for run in &runs {
                    inference_ms.push(vm.try_execute(&run.trace)?.wall_ms);
                }
            }
            series.push(MlSeries { target, inference_ms });
        }
    }
    Ok(MlFigure { series })
}

/// Prints **Fig. 3** — Confidential ML workloads: distribution (as stacked
/// percentiles) of the observed inference times.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== Fig. 3: Confidential ML — inference time distributions (ms) ===\n")?;
    let fig = run(cfg)?;

    let entries: Vec<(String, Summary)> =
        fig.series.iter().map(|s| (s.target.to_string(), s.summary())).collect();
    writeln!(out, "{}", stacked_percentiles(&entries))?;

    writeln!(out, "secure/normal mean ratios:")?;
    for platform in TeePlatform::ALL {
        writeln!(out, "  {:8} {:.3}", platform.to_string(), fig.ratio(platform))?;
    }
    writeln!(
        out,
        "\npaper shape: TDX ≈ SEV-SNP at close-to-native speed (TDX slightly ahead);\n\
         CCA up to ~1.33x its own baseline and far slower in absolute terms (FVP)."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_shape_matches_paper() {
        let fig = run(ExperimentConfig::quick(7)).unwrap();
        assert_eq!(fig.series.len(), 6);

        // TDX and SNP near-native; TDX with a limited advantage.
        let tdx = fig.ratio(TeePlatform::Tdx);
        let snp = fig.ratio(TeePlatform::SevSnp);
        assert!((0.93..1.18).contains(&tdx), "tdx ml ratio {tdx}");
        assert!((0.93..1.22).contains(&snp), "snp ml ratio {snp}");

        // CCA overhead larger, up to ~1.33x.
        let cca = fig.ratio(TeePlatform::Cca);
        assert!((1.02..1.5).contains(&cca), "cca ml ratio {cca}");
        assert!(cca > tdx && cca > snp);

        // Absolute CCA times dwarf the hardware TEEs (log scale in the
        // paper for this reason).
        let mean_of = |platform, kind| {
            fig.series
                .iter()
                .find(|s| s.target == VmTarget { platform, kind })
                .unwrap()
                .summary()
                .mean
        };
        assert!(
            mean_of(TeePlatform::Cca, VmKind::Normal)
                > 4.0 * mean_of(TeePlatform::Tdx, VmKind::Normal)
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run(ExperimentConfig::quick(3)).unwrap();
        let b = run(ExperimentConfig::quick(3)).unwrap();
        assert_eq!(a.series[0].inference_ms, b.series[0].inference_ms);
    }
}
