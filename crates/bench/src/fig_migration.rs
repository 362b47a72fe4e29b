//! Fleet & migration experiment: measured live-migration downtime per
//! platform (stop-and-copy + re-attest blackout), pre-copy convergence
//! (rounds, pages, wire bytes), and a fleet rebalance run counting
//! cross-shard work steals.
//!
//! Downtime here is the wall-clock window between pausing the source and
//! resuming the target — the interval a caller would observe the VM
//! unresponsive. Re-attestation rides the fleet-shared session cache, so
//! only the first migration of an identity pays a collateral cycle; the
//! figure reports both the cold and the warm downtime.

use std::io::Write;
use std::sync::Arc;

use confbench::{AttestConfig, AttestService, ManualClock};
use confbench_fleet::{migrate, Fleet, FleetConfig, MigrationConfig};
use confbench_types::{
    CampaignFunction, CampaignSpec, Error, Language, OpTrace, Priority, Result, TeePlatform,
    VmKind, VmTarget,
};
use confbench_vmm::TeeVmBuilder;

use crate::{ExperimentConfig, Scale};

/// One measured migration series (a platform/kind pair over N trials).
#[derive(Debug, Clone)]
pub struct MigrationRow {
    /// Display label, e.g. `tdx/secure`.
    pub label: String,
    /// Measured stop-and-copy + re-attest blackout per trial, microseconds.
    pub downtime_us: Vec<u64>,
    /// Pre-copy rounds of the last trial.
    pub precopy_rounds: u32,
    /// Pages moved (all rounds + stop-and-copy) in the last trial.
    pub pages_total: u64,
    /// Encoded wire-stream size of the last trial, bytes.
    pub wire_bytes: usize,
    /// Re-attestation session id of the last trial.
    pub session: String,
}

impl MigrationRow {
    /// Median downtime of the series, microseconds.
    pub fn median_us(&self) -> u64 {
        let mut sorted = self.downtime_us.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }
}

/// Outcome of the fleet rebalance run.
#[derive(Debug, Clone, Copy)]
pub struct RebalanceRow {
    /// Cells placed on the fleet.
    pub jobs: u64,
    /// Cross-shard steals observed while draining.
    pub steals: u64,
    /// Total executions fleet-wide (dedup exact: equals `jobs`).
    pub executions: u64,
}

/// The full figure: per-platform migration series plus the rebalance run.
#[derive(Debug, Clone)]
pub struct MigrationFigure {
    /// Migration series.
    pub rows: Vec<MigrationRow>,
    /// Fleet rebalance outcome.
    pub rebalance: RebalanceRow,
}

fn warm_trace(scale: Scale) -> OpTrace {
    let mut warm = OpTrace::new();
    match scale {
        Scale::Quick => {
            warm.cpu(1_000_000);
            warm.alloc(16 * 4096);
        }
        Scale::Paper => {
            warm.cpu(10_000_000);
            warm.alloc(64 * 4096);
            warm.cpu(2_000_000);
        }
    }
    warm
}

/// A workload arriving while pre-copy runs: it dirties pages, forcing
/// extra copy rounds before convergence.
fn midstream_trace(scale: Scale) -> OpTrace {
    let mut mid = OpTrace::new();
    match scale {
        Scale::Quick => {
            mid.alloc(8 * 4096);
            mid.cpu(250_000);
        }
        Scale::Paper => {
            mid.alloc(32 * 4096);
            mid.cpu(1_000_000);
        }
    }
    mid
}

/// Runs the migration series and the rebalance run at `cfg`.
///
/// # Errors
///
/// A VM fault, an aborted migration, or a refused rebalance campaign.
pub fn run(cfg: ExperimentConfig) -> Result<MigrationFigure> {
    let attest =
        AttestService::new(cfg.seed, AttestConfig::default(), Arc::new(ManualClock::new()), None);
    let warm = warm_trace(cfg.scale);
    let mid = midstream_trace(cfg.scale);

    let series = [
        ("tdx/secure", TeePlatform::Tdx, VmKind::Secure),
        ("snp/secure", TeePlatform::SevSnp, VmKind::Secure),
        ("tdx/normal", TeePlatform::Tdx, VmKind::Normal),
    ];
    let mut rows = Vec::new();
    for (label, platform, kind) in series {
        let target = VmTarget { platform, kind };
        let mut downtime_us = Vec::new();
        let mut last = None;
        for trial in 0..cfg.trials() {
            let seed = cfg.seed + u64::from(trial);
            let mut source = TeeVmBuilder::new(target).seed(seed).try_build()?;
            source.try_execute(&warm)?;
            let (_vm, report) = migrate(
                source,
                TeeVmBuilder::new(target).seed(seed ^ 0x5EED),
                &attest,
                std::slice::from_ref(&mid),
                &MigrationConfig::default(),
            )
            .map_err(|e| Error::Workload(format!("{label} migration aborted: {e}")))?;
            downtime_us.push(report.downtime_us);
            last = Some(report);
        }
        let last = last.expect("at least one trial");
        rows.push(MigrationRow {
            label: label.to_owned(),
            downtime_us,
            precopy_rounds: last.precopy_rounds,
            pages_total: last.pages_total,
            wire_bytes: last.wire_bytes,
            session: last.session,
        });
    }

    Ok(MigrationFigure { rows, rebalance: rebalance(cfg)? })
}

/// The rebalance run: a single-platform campaign leaves two of three
/// shards idle on that lane, so they steal from the hot shard's queue.
fn rebalance(cfg: ExperimentConfig) -> Result<RebalanceRow> {
    let fleet = Fleet::new(FleetConfig {
        shards: 3,
        seed: cfg.seed,
        clock: Arc::new(ManualClock::new()),
        ..FleetConfig::default()
    });
    let spec = CampaignSpec {
        functions: vec![
            CampaignFunction::new("factors").arg("360360"),
            CampaignFunction::new("factors").arg("720720"),
            CampaignFunction::new("factors").arg("30030"),
            CampaignFunction::new("checksum").arg("30000"),
        ],
        languages: vec![Language::Go],
        platforms: vec![TeePlatform::Tdx],
        modes: vec![VmKind::Secure, VmKind::Normal],
        trials: cfg.trials(),
        seed: cfg.seed,
        priority: Priority::Normal,
        deadline_ms: None,
        device: None,
    };
    let receipt = fleet.submit(spec)?;
    fleet.drain();
    Ok(RebalanceRow {
        jobs: receipt.jobs as u64,
        steals: fleet.steals(),
        executions: fleet.total_executions(),
    })
}

/// Prints the **fleet & migration** figure — live-migration downtime per
/// platform (stop-and-copy + re-attest blackout), pre-copy convergence,
/// and cross-shard work-steal counts for a hot-shard rebalance.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== Fleet & migration: downtime, convergence, stealing ===\n")?;
    let fig = run(cfg)?;

    for row in &fig.rows {
        let min = row.downtime_us.iter().min().copied().unwrap_or(0);
        let max = row.downtime_us.iter().max().copied().unwrap_or(0);
        writeln!(
            out,
            "{:<12} downtime median {:>6} us (min {} / max {}), {} pre-copy rounds, \
             {} pages, {} wire bytes, session {}",
            row.label,
            row.median_us(),
            min,
            max,
            row.precopy_rounds,
            row.pages_total,
            row.wire_bytes,
            row.session,
        )?;
    }

    let r = &fig.rebalance;
    writeln!(
        out,
        "\nrebalance: {} jobs on a 3-shard fleet, {} cross-shard steals, \
         {} executions (dedup exact)",
        r.jobs, r.steals, r.executions
    )?;
    assert_eq!(r.executions, r.jobs, "stealing must never duplicate work");
    writeln!(
        out,
        "\npaper shape: downtime is dominated by the re-attest leg on the\n\
         cold identity and collapses once the fleet session cache is warm;\n\
         pre-copy converges in one or two rounds for these working sets."
    )?;
    Ok(())
}
