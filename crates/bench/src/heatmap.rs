//! Figs. 6 and 7 — FaaS heatmaps: secure/normal mean-execution-time ratios
//! for every (language × function) cell, per platform.
//!
//! Paper shape (Fig. 6, TDX & SEV-SNP): overheads very similar between the
//! two; TDX faster on CPU/memory-intensive cells, SEV-SNP faster on I/O
//! cells (`iostress`); heavier managed runtimes (Python, Node, Ruby) show
//! larger ratios than Lua/LuaJIT/Go/Wasm; a few cells dip below 1.0
//! (cache-hit differences). Fig. 7 (CCA): much lighter cells overall —
//! larger overheads everywhere.

use std::io::Write;

use confbench_faasrt::FaasFunction as _;
use confbench_types::{Language, Result, TeePlatform};
use confbench_workloads::faas_registry;

use crate::{mean, measure_function, ExperimentConfig};

/// A complete heatmap for one platform.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// The platform measured.
    pub platform: TeePlatform,
    /// Row labels (languages, the paper's row axis).
    pub languages: Vec<Language>,
    /// Column labels (function names).
    pub workloads: Vec<String>,
    /// Ratios, row-major (`languages.len() * workloads.len()`).
    pub ratios: Vec<f64>,
}

impl Heatmap {
    /// The ratio for a cell.
    ///
    /// # Panics
    ///
    /// Panics if the language or workload is not in the map.
    pub fn cell(&self, language: Language, workload: &str) -> f64 {
        let r = self.languages.iter().position(|&l| l == language).expect("language row");
        let c = self.workloads.iter().position(|w| w == workload).expect("workload column");
        self.ratios[r * self.workloads.len() + c]
    }

    /// Mean ratio of a language's row.
    pub fn row_mean(&self, language: Language) -> f64 {
        let r = self.languages.iter().position(|&l| l == language).expect("language row");
        let w = self.workloads.len();
        mean(&self.ratios[r * w..(r + 1) * w])
    }

    /// Mean ratio of a workload's column.
    pub fn col_mean(&self, workload: &str) -> f64 {
        let c = self.workloads.iter().position(|w| w == workload).expect("workload column");
        let w = self.workloads.len();
        let vals: Vec<f64> = (0..self.languages.len()).map(|r| self.ratios[r * w + c]).collect();
        mean(&vals)
    }

    /// Mean over every cell.
    pub fn overall_mean(&self) -> f64 {
        mean(&self.ratios)
    }

    /// Number of cells with ratio < 1.0 (the counter-intuitive ones).
    pub fn sub_unity_cells(&self) -> usize {
        self.ratios.iter().filter(|&&r| r < 1.0).count()
    }
}

/// Builds the heatmap for one platform; `workload_filter` optionally
/// restricts columns (used by quick tests and Fig. 8's subset).
///
/// # Errors
///
/// As [`measure_function`].
pub fn run(
    cfg: ExperimentConfig,
    platform: TeePlatform,
    workload_filter: Option<&[&str]>,
) -> Result<Heatmap> {
    let languages: Vec<Language> = Language::ALL.to_vec();
    let registry = faas_registry();
    let workloads: Vec<_> = registry
        .into_iter()
        .filter(|w| workload_filter.map(|names| names.contains(&w.name())).unwrap_or(true))
        .collect();
    let names: Vec<String> = workloads.iter().map(|w| w.name().to_owned()).collect();

    let mut ratios = Vec::with_capacity(languages.len() * workloads.len());
    for &language in &languages {
        for workload in &workloads {
            let args = cfg.args_for(workload);
            let (secure, normal) =
                measure_function(workload, &args, language, platform, cfg.trials(), cfg.seed)?;
            ratios.push(mean(&secure) / mean(&normal));
        }
    }
    Ok(Heatmap { platform, languages, workloads: names, ratios })
}

/// Writes a language × workload ratio grid.
pub(crate) fn write_heatmap(
    out: &mut dyn Write,
    languages: &[Language],
    workloads: &[String],
    ratios: &[f64],
) -> Result<()> {
    let rows: Vec<String> = languages.iter().map(|l| l.to_string()).collect();
    Ok(writeln!(out, "{}", confbench_stats::heatmap(&rows, workloads, ratios))?)
}

/// Prints **Fig. 6** — TDX and SEV-SNP: ratios between mean execution
/// times from secure and normal VMs for the 25 FaaS functions in 7
/// languages (heatmap).
pub fn render_fig6(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
        writeln!(out, "=== Fig. 6 ({platform}): secure/normal mean-time ratios ===\n")?;
        let hm = run(cfg, platform, None)?;
        write_heatmap(out, &hm.languages, &hm.workloads, &hm.ratios)?;
        writeln!(
            out,
            "overall mean {:.3}; sub-1.0 cells: {}\n",
            hm.overall_mean(),
            hm.sub_unity_cells()
        )?;
    }
    writeln!(
        out,
        "paper shape: the two TEEs are very similar; TDX faster on CPU/memory\n\
         cells, SEV-SNP faster on I/O (iostress); heavier managed runtimes\n\
         show larger ratios; a few cells dip below 1.0 (cache-hit effects)."
    )?;
    Ok(())
}

/// Prints **Fig. 7** — CCA: ratios between mean execution times from
/// secure (realm) and normal VMs for the FaaS suite (heatmap).
pub fn render_fig7(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== Fig. 7 (cca): secure/normal mean-time ratios ===\n")?;
    let hm = run(cfg, TeePlatform::Cca, None)?;
    write_heatmap(out, &hm.languages, &hm.workloads, &hm.ratios)?;
    writeln!(out, "overall mean {:.3}\n", hm.overall_mean())?;
    writeln!(
        out,
        "paper shape: much higher overheads than TDX/SEV-SNP across the board\n\
         (visually, more light/red cells), attributed to the FVP-simulated\n\
         environment; only intra-CCA comparisons are considered sound."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK_SET: &[&str] =
        &["cpustress", "memstress", "iostress", "logging", "factors", "checksum"];

    #[test]
    fn fig6_shape_tdx_vs_snp() {
        let cfg = ExperimentConfig::quick(13);
        let tdx = run(cfg, TeePlatform::Tdx, Some(QUICK_SET)).unwrap();
        let snp = run(cfg, TeePlatform::SevSnp, Some(QUICK_SET)).unwrap();

        // Overall overheads "very similar" between the two.
        assert!((tdx.overall_mean() - snp.overall_mean()).abs() < 0.4);

        // SEV-SNP faster with I/O tasks.
        assert!(
            snp.col_mean("iostress") < tdx.col_mean("iostress"),
            "snp io {} vs tdx io {}",
            snp.col_mean("iostress"),
            tdx.col_mean("iostress")
        );
        // I/O-bound cells sit clearly above CPU-bound ones on TDX.
        assert!(tdx.col_mean("iostress") > tdx.col_mean("checksum"));
        // TDX at least as good on the CPU-bound columns.
        assert!(tdx.col_mean("checksum") < snp.col_mean("checksum") + 0.08);

        // Heavier managed runtimes impose larger ratios on compute-bound
        // cells (the paper's FaaS finding; I/O columns are dominated by
        // the identical device path in every language). Measured at a
        // size where the runtimes' GC behaviour is active.
        let wl = confbench_workloads::find_workload("cpustress").unwrap();
        let args = vec!["60000".to_owned()];
        for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
            let ratio = |language| {
                let (s, n) =
                    crate::measure_function(&wl, &args, language, platform, 6, cfg.seed).unwrap();
                mean(&s) / mean(&n)
            };
            let python = ratio(Language::Python);
            let go = ratio(Language::Go);
            assert!(python > go, "python {python} vs go {go} on {platform:?}");
        }
    }

    #[test]
    fn fig7_cca_is_much_worse() {
        let cfg = ExperimentConfig::quick(13);
        let tdx = run(cfg, TeePlatform::Tdx, Some(QUICK_SET)).unwrap();
        let cca = run(cfg, TeePlatform::Cca, Some(QUICK_SET)).unwrap();
        assert!(
            cca.overall_mean() > 1.5 * tdx.overall_mean(),
            "cca {} vs tdx {}",
            cca.overall_mean(),
            tdx.overall_mean()
        );
        // I/O-ish cells go deep red on CCA.
        assert!(cca.col_mean("iostress") > 2.0);
    }

    #[test]
    fn heatmap_indexing_consistent() {
        let cfg = ExperimentConfig::quick(1);
        let hm = run(cfg, TeePlatform::Tdx, Some(&["factors", "iostress"])).unwrap();
        assert_eq!(hm.ratios.len(), 7 * 2);
        // Columns keep registry order; cell() must agree with the raw grid.
        let first_col = hm.workloads[0].clone();
        assert_eq!(hm.cell(Language::Python, &first_col), hm.ratios[0]);
        assert!(hm.cell(Language::Go, "iostress") > 1.0);
    }
}
