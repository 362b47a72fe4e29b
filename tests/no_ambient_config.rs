//! Nothing in the library reads the process environment: a gateway is what
//! its builder was told, whatever the shell exports. One test in its own
//! binary, so setting the environment races with nothing.

use confbench::{AttestConfig, Gateway};
use confbench_types::{FunctionSpec, Language, RunRequest, RunResult, TeePlatform, VmTarget};

fn run_fib() -> (Gateway, RunResult) {
    let gateway = Gateway::builder().seed(5).local_host(TeePlatform::Tdx).build();
    let request = RunRequest::new(
        FunctionSpec::new("fib", Language::Lua).arg("15"),
        VmTarget::secure(TeePlatform::Tdx),
    );
    let result = gateway.run(&request).expect("a default-built gateway injects no faults");
    (gateway, result)
}

#[test]
fn exported_chaos_and_attest_variables_change_nothing() {
    let (_, control) = run_fib();

    // What every constructor used to pick up when its builder said nothing.
    std::env::set_var("CONFBENCH_CHAOS_SEED", "1337");
    std::env::set_var("CONFBENCH_CHAOS_RATE", "1.0");
    std::env::set_var("CONFBENCH_ATTEST_TTL_MS", "1");
    let (gateway, result) = run_fib();

    let faults: u64 = gateway
        .metrics()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("vmm_faults_total"))
        .map(|(_, count)| count)
        .sum();
    assert_eq!(faults, 0, "no fault plan was installed");
    assert_eq!(result.trial_cycles, control.trial_cycles);
    assert_eq!(result.output, control.output);
    assert_eq!(gateway.attest().cache().ttl_ms(), AttestConfig::default().ttl_ms);
}
