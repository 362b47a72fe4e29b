//! Fig. 6 through the scheduler: the same FaaS heatmap matrix, submitted as
//! one [`CampaignSpec`] to `confbench-sched` instead of a hand-rolled loop.
//!
//! The driver runs the campaign twice on the same scheduler. The first
//! (cold) pass executes every cell on the VMs; the second, identical
//! submission is answered entirely from the content-addressed result cache.
//! Comparing the two wall-clock times is the scheduler's memoization
//! headline number (EXPERIMENTS.md "cold vs memoized").

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use confbench::Gateway;
use confbench_faasrt::FaasFunction as _;
use confbench_sched::{Scheduler, SchedulerConfig};
use confbench_types::{
    CampaignFunction, CampaignSpec, CampaignStatus, Language, Priority, Result, SystemClock,
    TeePlatform, VmKind,
};
use confbench_workloads::faas_registry;

use crate::ExperimentConfig;

/// One scheduler-driven heatmap pass pair (cold + memoized).
#[derive(Debug)]
pub struct CampaignHeatmap {
    /// The platform measured.
    pub platform: TeePlatform,
    /// Row labels (languages).
    pub languages: Vec<Language>,
    /// Column labels (function names).
    pub workloads: Vec<String>,
    /// Secure/normal mean-time ratios, row-major.
    pub ratios: Vec<f64>,
    /// Wall-clock of the cold pass (every cell executed).
    pub cold_wall_ms: f64,
    /// Wall-clock of the identical resubmission (every cell memoized).
    pub memo_wall_ms: f64,
    /// Final status of the memoized pass (for cache-hit accounting).
    pub memo_status: CampaignStatus,
}

impl CampaignHeatmap {
    /// Cold-over-memoized wall-clock speedup.
    pub fn speedup(&self) -> f64 {
        self.cold_wall_ms / self.memo_wall_ms.max(f64::EPSILON)
    }
}

/// The Fig. 6 matrix as a campaign spec: every suite workload × every
/// language × both VM kinds on `platform`.
pub fn fig6_spec(
    cfg: ExperimentConfig,
    platform: TeePlatform,
    workload_filter: Option<&[&str]>,
) -> CampaignSpec {
    let functions = faas_registry()
        .into_iter()
        .filter(|w| workload_filter.map(|names| names.contains(&w.name())).unwrap_or(true))
        .map(|w| {
            let mut f = CampaignFunction::new(w.name());
            f.args = cfg.args_for(&w);
            f
        })
        .collect();
    CampaignSpec {
        functions,
        languages: Language::ALL.to_vec(),
        platforms: vec![platform],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: cfg.trials(),
        seed: cfg.seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    }
}

/// Runs the Fig. 6 matrix twice through one scheduler (cold, then fully
/// memoized) and folds the secure/normal cells into heatmap ratios.
///
/// # Panics
///
/// Panics if any cell fails to execute (the suite workloads never do).
pub fn run(
    cfg: ExperimentConfig,
    platform: TeePlatform,
    workload_filter: Option<&[&str]>,
) -> CampaignHeatmap {
    let gateway = Arc::new(Gateway::builder().seed(cfg.seed).local_host(platform).build());
    let spec = fig6_spec(cfg, platform, workload_filter);
    let sched = Scheduler::with_metrics(
        Arc::clone(&gateway) as Arc<dyn confbench_sched::Executor>,
        Arc::new(SystemClock),
        SchedulerConfig::default(),
        Arc::clone(gateway.metrics()),
    );

    let (cold_status, cold_wall_ms) = drain_one(&sched, &spec);
    assert_eq!(cold_status.failed, 0, "suite cells must not fail: {cold_status:?}");
    let (memo_status, memo_wall_ms) = drain_one(&sched, &spec);
    assert_eq!(memo_status.cache_hits, memo_status.total_jobs, "second pass fully memoized");

    let languages = spec.languages.clone();
    let workloads: Vec<String> = spec.functions.iter().map(|f| f.name.clone()).collect();
    let mut ratios = Vec::with_capacity(languages.len() * workloads.len());
    for &language in &languages {
        for workload in &workloads {
            let mean_of = |kind: VmKind| {
                cold_status
                    .cells
                    .iter()
                    .find(|c| {
                        c.cell.function.name == *workload
                            && c.cell.language == language
                            && c.cell.kind == kind
                    })
                    .unwrap_or_else(|| panic!("missing cell {workload}/{language}/{kind}"))
                    .mean_ms
            };
            ratios.push(mean_of(VmKind::Secure) / mean_of(VmKind::Normal));
        }
    }
    CampaignHeatmap {
        platform,
        languages,
        workloads,
        ratios,
        cold_wall_ms,
        memo_wall_ms,
        memo_status,
    }
}

/// Prints **Fig. 6** through the campaign scheduler: the full FaaS heatmap
/// matrix submitted as one `CampaignSpec` per platform, executed cold and
/// then resubmitted to measure the content-addressed result cache's
/// wall-clock savings.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    for platform in [TeePlatform::Tdx, TeePlatform::SevSnp] {
        writeln!(out, "=== Fig. 6 via confbench-sched ({platform}) ===\n")?;
        let hm = run(cfg, platform, None);
        crate::heatmap::write_heatmap(out, &hm.languages, &hm.workloads, &hm.ratios)?;
        writeln!(
            out,
            "cold pass      : {:>10.1} ms wall ({} cells executed)",
            hm.cold_wall_ms, hm.memo_status.total_jobs
        )?;
        writeln!(
            out,
            "memoized pass  : {:>10.1} ms wall ({} cache hits)",
            hm.memo_wall_ms, hm.memo_status.cache_hits
        )?;
        writeln!(out, "speedup        : {:>10.1}x\n", hm.speedup())?;
    }
    writeln!(
        out,
        "paper shape preserved: the scheduler-driven matrix reproduces the\n\
         loop-driven Fig. 6 cells exactly (same per-cell seeds), and the\n\
         identical resubmission never touches a VM."
    )?;
    Ok(())
}

fn drain_one(sched: &Scheduler, spec: &CampaignSpec) -> (CampaignStatus, f64) {
    let start = Instant::now();
    let receipt = sched.submit(spec.clone()).expect("campaign admitted");
    sched.drain();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    (sched.campaign_status(&receipt.id).expect("campaign exists"), wall_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK_SET: &[&str] = &["cpustress", "iostress", "factors", "checksum"];

    #[test]
    fn scheduler_heatmap_matches_fig6_shape() {
        let cfg = ExperimentConfig::quick(13);
        let hm = run(cfg, TeePlatform::Tdx, Some(QUICK_SET));
        assert_eq!(hm.workloads.len(), QUICK_SET.len());
        assert_eq!(hm.ratios.len(), hm.languages.len() * hm.workloads.len());
        assert!(hm.ratios.iter().all(|r| r.is_finite() && *r > 0.0));
        // I/O-bound cells sit clearly above CPU-bound ones on TDX.
        let io = hm.workloads.iter().position(|w| w == "iostress").unwrap();
        let cpu = hm.workloads.iter().position(|w| w == "checksum").unwrap();
        let w = hm.workloads.len();
        let io_mean = crate::mean(
            &(0..hm.languages.len()).map(|r| hm.ratios[r * w + io]).collect::<Vec<_>>(),
        );
        let cpu_mean = crate::mean(
            &(0..hm.languages.len()).map(|r| hm.ratios[r * w + cpu]).collect::<Vec<_>>(),
        );
        assert!(io_mean > cpu_mean, "iostress {io_mean} vs checksum {cpu_mean}");
        // Every cell of the second pass came from the cache.
        assert_eq!(hm.memo_status.cache_hits, hm.memo_status.total_jobs);
        assert!(hm.memo_status.cells.iter().all(|c| c.from_cache));
    }
}
