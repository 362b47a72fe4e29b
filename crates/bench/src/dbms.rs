//! §IV-C "Confidential DBMS" — the speedtest suite's secure/normal ratios
//! per TEE (the paper reports these textually: TDX and SEV-SNP ≈ 1, CCA up
//! to ~10× on average).

use std::io::Write;

use confbench_minidb::SpeedTestCase;
use confbench_stats::table;
use confbench_types::{Error, Result, TeePlatform, VmKind, VmTarget};
use confbench_vmm::TeeVmBuilder;
use confbench_workloads::dbms_speedtest;

use crate::{mean, measure_trace, wall_ms, ExperimentConfig, Scale};

/// One row of the DBMS table: a speedtest case's ratio on each platform.
#[derive(Debug, Clone)]
pub struct DbmsRow {
    /// The test case.
    pub case: SpeedTestCase,
    /// Rows the test touched.
    pub rows: u64,
    /// Secure/normal mean ratio per platform, in [`TeePlatform::ALL`] order.
    pub ratios: [f64; 3],
}

/// The full DBMS experiment result.
#[derive(Debug, Clone)]
pub struct DbmsResults {
    /// One row per speedtest case.
    pub rows: Vec<DbmsRow>,
}

impl DbmsResults {
    /// Mean ratio across all cases for a platform.
    pub fn average_ratio(&self, platform: TeePlatform) -> f64 {
        let idx = TeePlatform::ALL.iter().position(|&p| p == platform).expect("known platform");
        mean(&self.rows.iter().map(|r| r.ratios[idx]).collect::<Vec<_>>())
    }

    /// Worst-case ratio across all cases for a platform (the paper's "up
    /// to" figure).
    pub fn max_ratio(&self, platform: TeePlatform) -> f64 {
        let idx = TeePlatform::ALL.iter().position(|&p| p == platform).expect("known platform");
        self.rows.iter().map(|r| r.ratios[idx]).fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Runs the speedtest suite once to record traces, then measures each test's
/// trace on every target.
///
/// # Errors
///
/// The suite itself failing, or a VM fault.
pub fn run(cfg: ExperimentConfig) -> Result<DbmsResults> {
    let size = match cfg.scale {
        Scale::Quick => 10,
        Scale::Paper => 100, // speedtest1's default relative size, per the paper
    };
    let reports =
        dbms_speedtest(size, cfg.seed).map_err(|e| Error::Workload(format!("speedtest: {e}")))?;
    let empty = confbench_types::OpTrace::new();

    let mut rows = Vec::new();
    for report in reports {
        let mut ratios = [0.0f64; 3];
        for (i, platform) in TeePlatform::ALL.iter().enumerate() {
            let seed = crate::mix_seed(cfg.seed, report.case.name());
            let mean_ms = |kind| {
                let builder = TeeVmBuilder::new(VmTarget { platform: *platform, kind }).seed(seed);
                measure_trace(builder, &empty, &report.trace, cfg.trials())
                    .map(|reports| mean(&wall_ms(&reports)))
            };
            ratios[i] = mean_ms(VmKind::Secure)? / mean_ms(VmKind::Normal)?;
        }
        rows.push(DbmsRow { case: report.case, rows: report.rows, ratios });
    }
    Ok(DbmsResults { rows })
}

/// Prints the **§IV-C Confidential DBMS** findings: per-speedtest-case
/// secure/normal ratios for every TEE (the paper reports these textually
/// and omits the plot for space).
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== §IV-C: Confidential DBMS — speedtest secure/normal ratios ===\n")?;
    let results = run(cfg)?;

    let headers: Vec<String> =
        ["test", "rows", "tdx", "sev-snp", "cca"].iter().map(|s| s.to_string()).collect();
    let rows: Vec<Vec<String>> = results
        .rows
        .iter()
        .map(|r| {
            vec![
                r.case.name().to_owned(),
                r.rows.to_string(),
                format!("{:.2}", r.ratios[0]),
                format!("{:.2}", r.ratios[1]),
                format!("{:.2}", r.ratios[2]),
            ]
        })
        .collect();
    writeln!(out, "{}", table(&headers, &rows))?;

    writeln!(out, "averages:")?;
    for platform in TeePlatform::ALL {
        writeln!(
            out,
            "  {:8} avg {:.2}  worst {:.2}",
            platform.to_string(),
            results.average_ratio(platform),
            results.max_ratio(platform)
        )?;
    }
    writeln!(
        out,
        "\npaper shape: TDX and SEV-SNP very similar and close to 1;\n\
         CCA the largest by far (the paper reports up to ~10x on average),\n\
         which we attribute to realm kernel entries under the FVP's RME model."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbms_shape_matches_paper() {
        let results = run(ExperimentConfig::quick(5)).unwrap();
        assert_eq!(results.rows.len(), 15);

        // TDX and SEV-SNP: "overheads very similar and close to 1".
        let tdx = results.average_ratio(TeePlatform::Tdx);
        let snp = results.average_ratio(TeePlatform::SevSnp);
        assert!((0.95..1.35).contains(&tdx), "tdx dbms avg {tdx}");
        assert!((0.95..1.35).contains(&snp), "snp dbms avg {snp}");
        assert!((tdx - snp).abs() < 0.25, "tdx {tdx} vs snp {snp} should be similar");

        // CCA: "the largest, on average up to 10x" — a worst case far
        // above the hardware TEEs.
        let cca = results.average_ratio(TeePlatform::Cca);
        assert!(cca > 2.2, "cca dbms avg {cca}");
        assert!(
            results.max_ratio(TeePlatform::Cca) > 3.0,
            "cca worst case {}",
            results.max_ratio(TeePlatform::Cca)
        );
        assert!(results.max_ratio(TeePlatform::Cca) < 14.0);
        assert!(cca > 2.0 * tdx.max(snp));
    }

    #[test]
    fn autocommit_ratio_highest_on_cca() {
        // The fsync-per-statement test is the most syscall-bound — CCA's
        // worst case should be an fsync-heavy or I/O-heavy case.
        let results = run(ExperimentConfig::quick(5)).unwrap();
        let idx = 2; // CCA column
        let auto =
            results.rows.iter().find(|r| r.case == SpeedTestCase::InsertAutocommit).unwrap().ratios
                [idx];
        let txn = results
            .rows
            .iter()
            .find(|r| r.case == SpeedTestCase::InsertTransaction)
            .unwrap()
            .ratios[idx];
        assert!(auto > txn, "autocommit {auto} should exceed batched {txn} on CCA");
    }
}
