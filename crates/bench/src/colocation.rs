//! Extension experiment — multi-tenant co-location (the paper's §VI future
//! work: "study the overheads of co-locating and executing several
//! TEE-aware VMs inside the same host, as it happens in a typical
//! cloud-based multi-tenant scenario").
//!
//! For each platform and tenant count, runs a workload on every co-resident
//! VM simultaneously and reports the slowdown relative to running alone.

use std::io::Write;

use confbench_faasrt::{FaasFunction, FunctionLauncher};
use confbench_stats::table;
use confbench_types::{Language, Result, TeePlatform, VmTarget};
use confbench_vmm::SharedHost;
use confbench_workloads::find_workload;

use crate::ExperimentConfig;

/// One row: a platform's co-location slowdowns per tenant count.
#[derive(Debug, Clone)]
pub struct ColocationRow {
    /// Platform measured (secure VMs).
    pub platform: TeePlatform,
    /// Workload name.
    pub workload: String,
    /// `(tenants, slowdown)` pairs.
    pub slowdowns: Vec<(usize, f64)>,
}

/// Tenant counts swept by the experiment.
pub const TENANT_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Workloads spanning the contention channels: memory-bound, exit-bound,
/// and CPU-bound (the control).
pub const COLOCATION_WORKLOADS: [&str; 3] = ["memstress", "iostress", "checksum"];

/// Runs the sweep.
///
/// # Errors
///
/// A VM fault.
pub fn run(cfg: ExperimentConfig) -> Result<Vec<ColocationRow>> {
    let mut rows = Vec::new();
    for name in COLOCATION_WORKLOADS {
        let workload = find_workload(name).expect("known workload");
        let args = cfg.args_for(&workload);
        let output = FunctionLauncher::new(Language::Go)
            .launch(&workload, &args)
            .expect("workload launches");
        for platform in TeePlatform::ALL {
            let mut slowdowns = Vec::new();
            for &tenants in &TENANT_COUNTS {
                let mut host = SharedHost::new(VmTarget::secure(platform), tenants, cfg.seed);
                host.run_solo(&output.startup_trace)?;
                slowdowns.push((tenants, host.colocation_slowdown(&output.trace, cfg.trials())?));
            }
            rows.push(ColocationRow { platform, workload: workload.name().to_owned(), slowdowns });
        }
    }
    Ok(rows)
}

/// Prints the multi-tenant co-location extension experiment (the paper's
/// §VI future work): slowdown of secure VMs as co-residents increase.
pub fn render(cfg: ExperimentConfig, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "=== Extension: multi-tenant co-location slowdowns (secure VMs) ===\n")?;
    let rows = run(cfg)?;

    let mut headers = vec!["workload".to_owned(), "platform".to_owned()];
    headers.extend(TENANT_COUNTS.iter().map(|t| format!("{t} vm")));
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            let mut cells = vec![row.workload.clone(), row.platform.to_string()];
            cells.extend(row.slowdowns.iter().map(|(_, s)| format!("{s:.2}x")));
            cells
        })
        .collect();
    writeln!(out, "{}", table(&headers, &table_rows))?;
    writeln!(
        out,
        "memory- and exit-bound workloads contend on the shared memory system\n\
         and hypervisor path; CPU-bound tenants co-locate almost for free."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colocation_sweep_shapes() {
        let rows = run(ExperimentConfig::quick(31)).unwrap();
        assert_eq!(rows.len(), COLOCATION_WORKLOADS.len() * 3);
        for row in &rows {
            // A single tenant sees no contention, and slowdown grows with
            // tenant count.
            let single = row.slowdowns[0].1;
            assert!((0.99..1.01).contains(&single), "{row:?}");
            let pairs = &row.slowdowns;
            assert!(pairs.windows(2).all(|w| w[1].1 >= w[0].1 - 0.02), "monotone: {row:?}");
            if row.workload == "memstress" {
                assert!(pairs.last().unwrap().1 > 1.15, "memstress contends: {row:?}");
            }
        }
        // The CPU-bound control contends the least at full occupancy.
        for platform in [TeePlatform::Tdx, TeePlatform::SevSnp, TeePlatform::Cca] {
            let at8 = |name: &str| {
                rows.iter()
                    .find(|r| r.platform == platform && r.workload == name)
                    .unwrap()
                    .slowdowns
                    .last()
                    .unwrap()
                    .1
            };
            assert!(
                at8("checksum") <= at8("memstress") + 0.02,
                "{platform:?}: cpu control {} vs memstress {}",
                at8("checksum"),
                at8("memstress")
            );
        }
    }
}
