//! Fig. 8 — CCA: box-and-whiskers of raw execution times, secure realm vs
//! normal VM, per (function, language).
//!
//! Paper shape: the confidential series have visibly longer whiskers
//! (higher trial variance) — the simulator's timing noise plus realm
//! overheads — and higher medians. The paper plots this detail because it
//! is the first CCA baseline in the literature.

use std::io::Write;

use confbench_faasrt::FaasFunction as _;
use confbench_stats::{boxplot, Summary};
use confbench_types::{Language, Result, TeePlatform};
use confbench_workloads::find_workload;

use crate::{measure_function, ExperimentConfig};

/// One (function, language) pair's raw distributions on CCA.
#[derive(Debug, Clone)]
pub struct CcaDistribution {
    /// Function name.
    pub workload: String,
    /// Language measured.
    pub language: Language,
    /// Raw secure-realm trial times (ms).
    pub secure_ms: Vec<f64>,
    /// Raw normal-VM trial times (ms).
    pub normal_ms: Vec<f64>,
}

impl CcaDistribution {
    /// Summaries (secure, normal).
    pub fn summaries(&self) -> (Summary, Summary) {
        (Summary::from_samples(&self.secure_ms), Summary::from_samples(&self.normal_ms))
    }
}

/// The functions Fig. 8 details (a representative subset spanning the
/// resource classes).
pub const FIG8_WORKLOADS: [&str; 6] =
    ["cpustress", "memstress", "iostress", "logging", "factors", "filesystem"];

/// Languages shown in the figure's panels.
pub const FIG8_LANGUAGES: [Language; 3] = [Language::Python, Language::Lua, Language::Go];

/// Runs the distributions.
///
/// # Errors
///
/// As [`measure_function`].
pub fn run(cfg: ExperimentConfig) -> Result<Vec<CcaDistribution>> {
    let mut out = Vec::new();
    for name in FIG8_WORKLOADS {
        let workload = find_workload(name).expect("known workload");
        let args = cfg.args_for(&workload);
        for language in FIG8_LANGUAGES {
            let (secure_ms, normal_ms) = measure_function(
                &workload,
                &args,
                language,
                TeePlatform::Cca,
                cfg.trials().max(10), // distributions need samples
                cfg.seed,
            )?;
            out.push(CcaDistribution {
                workload: workload.name().to_owned(),
                language,
                secure_ms,
                normal_ms,
            });
        }
    }
    Ok(out)
}

/// Prints **Fig. 8** — CCA: distribution of execution times from secure
/// and normal VMs per (function, language), box-and-whiskers.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== Fig. 8 (cca): execution-time distributions, secure vs normal (ms) ===\n")?;
    for d in &run(cfg)? {
        let (secure, normal) = d.summaries();
        writeln!(out, "--- {} / {} ---", d.workload, d.language)?;
        writeln!(
            out,
            "{}",
            boxplot(&[("secure".to_owned(), secure), ("normal".to_owned(), normal)], 64)
        )?;
    }
    writeln!(
        out,
        "paper shape: confidential series have longer whiskers (more trial\n\
         variance) and higher medians; these plots are the first CCA baseline\n\
         in the literature, to be revisited on real silicon."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_longer_whiskers_in_realms() {
        let dists = run(ExperimentConfig::quick(17)).unwrap();
        assert_eq!(dists.len(), FIG8_WORKLOADS.len() * FIG8_LANGUAGES.len());

        let mut secure_wider = 0usize;
        for d in &dists {
            let (secure, normal) = d.summaries();
            assert!(secure.n >= 10 && normal.n >= 10);
            if secure.rel_spread() > normal.rel_spread() {
                secure_wider += 1;
            }
            // Realms are slower in the median for the vast majority of
            // cells (checked in aggregate below via means).
        }
        // "The length of the whiskers tends to be larger" — a strong
        // majority, not necessarily every single cell.
        assert!(
            secure_wider * 3 >= dists.len() * 2,
            "only {secure_wider}/{} cells had wider secure whiskers",
            dists.len()
        );

        let mean_ratio: f64 = dists
            .iter()
            .map(|d| {
                let (s, n) = d.summaries();
                s.median() / n.median()
            })
            .sum::<f64>()
            / dists.len() as f64;
        assert!(mean_ratio > 1.3, "cca medians must sit well above normal: {mean_ratio}");
    }
}
