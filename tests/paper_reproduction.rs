//! The paper's headline claims, asserted end to end at quick scale. Each
//! test mirrors a sentence from §IV/§V/§VI of the paper; the figure
//! binaries regenerate the full artifacts.

use confbench_bench::{dbms, fig3, fig4, fig5, heatmap, mean, ExperimentConfig};
use confbench_types::{Language, TeePlatform};

const SEED: u64 = 2026;

#[test]
fn claim_tdx_is_most_efficient_overall_for_compute() {
    // "Our experiments indicate that TDX is the most efficient technology
    //  overall, in particular for computational workloads."
    let cfg = ExperimentConfig::quick(SEED);
    let cols = ["cpustress", "factors", "checksum", "mandelbrot"];
    let tdx = heatmap::run(cfg, TeePlatform::Tdx, Some(&cols)).unwrap();
    let snp = heatmap::run(cfg, TeePlatform::SevSnp, Some(&cols)).unwrap();
    let cca = heatmap::run(cfg, TeePlatform::Cca, Some(&cols)).unwrap();
    assert!(
        tdx.overall_mean() <= snp.overall_mean() + 0.02,
        "tdx {} snp {}",
        tdx.overall_mean(),
        snp.overall_mean()
    );
    assert!(tdx.overall_mean() < cca.overall_mean());
}

#[test]
fn claim_tdx_pays_more_for_io_and_attestation_than_snp() {
    // "Compared to SEV-SNP, though, it exposes higher costs with I/O
    //  operations and attestation."
    let cfg = ExperimentConfig::quick(SEED);
    let io_cols = ["iostress", "filesystem"];
    let tdx = heatmap::run(cfg, TeePlatform::Tdx, Some(&io_cols)).unwrap();
    let snp = heatmap::run(cfg, TeePlatform::SevSnp, Some(&io_cols)).unwrap();
    assert!(
        tdx.overall_mean() > snp.overall_mean(),
        "tdx io {} vs snp {}",
        tdx.overall_mean(),
        snp.overall_mean()
    );

    let att = fig5::run(cfg);
    assert!(mean(&att.tdx_attest_ms) > mean(&att.snp_attest_ms));
    assert!(mean(&att.tdx_check_ms) > mean(&att.snp_check_ms));
}

#[test]
fn claim_cca_shows_high_overheads_for_every_workload() {
    // "The simulated CCA implementation instead consistently shows high
    //  overheads for every workload."
    let cfg = ExperimentConfig::quick(SEED);
    let cols = ["cpustress", "iostress", "logging", "factors"];
    let cca = heatmap::run(cfg, TeePlatform::Cca, Some(&cols)).unwrap();
    for workload in &cca.workloads {
        assert!(
            cca.col_mean(workload) > 1.1,
            "{workload} on CCA should be visibly slow: {}",
            cca.col_mean(workload)
        );
    }
}

#[test]
fn claim_complex_runtimes_burden_tee_operation() {
    // "With FaaS workloads, the more complex language runtimes seem to
    //  impose a heavier burden on TEE operation."
    let cfg = ExperimentConfig::quick(SEED);
    let cols = ["cpustress", "factors", "checksum"];
    let hm = heatmap::run(cfg, TeePlatform::Tdx, Some(&cols)).unwrap();
    let managed = mean(
        &[Language::Python, Language::Node, Language::Ruby]
            .iter()
            .map(|&l| hm.row_mean(l))
            .collect::<Vec<_>>(),
    );
    let light = mean(
        &[Language::Lua, Language::LuaJit, Language::Go, Language::Wasm]
            .iter()
            .map(|&l| hm.row_mean(l))
            .collect::<Vec<_>>(),
    );
    assert!(managed > light, "managed {managed} vs lightweight {light}");
}

#[test]
fn claim_ml_overheads_minimal_on_hardware_tees() {
    // Fig. 3: "for CPU-intensive tasks, TDX and SEV-SNP confidential VMs
    //  execute at close-to-native speed"; CCA up to ~1.33x.
    let fig = fig3::run(ExperimentConfig::quick(SEED)).unwrap();
    assert!(fig.ratio(TeePlatform::Tdx) < 1.12);
    assert!(fig.ratio(TeePlatform::SevSnp) < 1.15);
    let cca = fig.ratio(TeePlatform::Cca);
    assert!(cca > fig.ratio(TeePlatform::Tdx) && cca < 1.55);
}

#[test]
fn claim_dbms_near_native_on_hardware_huge_on_cca() {
    // §IV-C: TDX/SNP "close to 1"; CCA "the largest".
    let results = dbms::run(ExperimentConfig::quick(SEED)).unwrap();
    assert!(results.average_ratio(TeePlatform::Tdx) < 1.25);
    assert!(results.average_ratio(TeePlatform::SevSnp) < 1.25);
    assert!(results.average_ratio(TeePlatform::Cca) > 2.0);
}

#[test]
fn claim_unixbench_overheads_exceed_ml_and_dbms() {
    // §IV-C: "the overheads with UnixBench are larger than in ML and DBMS
    //  workloads" (sleep/wake exits).
    let cfg = ExperimentConfig::quick(SEED);
    let ub = fig4::run(cfg).unwrap();
    let ml = fig3::run(cfg).unwrap();
    let db = dbms::run(cfg).unwrap();
    for (platform_results, platform) in ub.iter().zip(TeePlatform::ALL) {
        let ub_ratio = platform_results.aggregate_ratio();
        assert!(
            ub_ratio > ml.ratio(platform) - 0.02,
            "{platform}: unixbench {ub_ratio} vs ml {}",
            ml.ratio(platform)
        );
        if platform != TeePlatform::Cca {
            assert!(
                ub_ratio > db.average_ratio(platform) - 0.05,
                "{platform}: unixbench {ub_ratio} vs dbms {}",
                db.average_ratio(platform)
            );
        }
    }
}

#[test]
fn claim_some_scenarios_run_faster_inside_the_tee() {
    // §VI: "some scenarios achieve slightly better results inside
    //  confidential VMs rather than outside, an effect we traced back to
    //  differences in cache hits."
    let (with_cache, without_cache) =
        confbench_bench::ablations::cache_model_ablation(ExperimentConfig::quick(SEED)).unwrap();
    assert!(with_cache < 1.0, "a sub-1.0 scenario exists: {with_cache}");
    assert!(without_cache >= 0.99, "and it is a cache effect: {without_cache}");
}
