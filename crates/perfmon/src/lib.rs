//! Performance-monitoring integration (the simulated `perf stat`).
//!
//! ConfBench wraps every dispatched workload in `perf stat` and piggybacks
//! the collected counters onto the result returned to the user (paper
//! §III-B). Inside CCA realms hardware counters are unavailable, so the tool
//! falls back to a custom monitoring script; this crate models both paths
//! behind the public [`Collector`] trait — the §III-B extension point now
//! accepts real code ([`PerfStat::with_collector`]), not only a script name
//! string.
//!
//! # Example
//!
//! ```
//! use confbench_obs::SpanRecorder;
//! use confbench_perfmon::PerfStat;
//! use confbench_types::{OpTrace, TeePlatform, VmTarget};
//! use confbench_vmm::TeeVmBuilder;
//!
//! let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
//! let mut trace = OpTrace::new();
//! trace.cpu(10_000);
//!
//! let (report, sample) = PerfStat::for_vm(&vm)
//!     .try_measure_spanned(&mut vm, &trace, &SpanRecorder::default())
//!     .unwrap();
//! assert_eq!(sample.collector, "perf");
//! assert!(report.perf.instructions >= 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use confbench_obs::SpanRecorder;
use confbench_types::{OpTrace, PerfReport, TraceSpan};
use confbench_vmm::{ExecutionReport, Vm};
use serde::{Deserialize, Serialize};

/// One collected perf sample with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Name of the collector that produced the numbers (`"perf"` for the
    /// hardware-counter path, `"script:<name>"` for fallbacks).
    pub collector: String,
    /// The counter values.
    pub report: PerfReport,
    /// The span tree recorded around the measured run. Absent on samples
    /// from peers that predate tracing.
    #[serde(default)]
    pub trace: Option<TraceSpan>,
}

impl fmt::Display for PerfSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} instructions, {} cycles, {} cache-misses ({:.1}%), {} vm-exits",
            self.collector,
            self.report.instructions,
            self.report.cycles,
            self.report.cache_misses,
            self.report.miss_ratio() * 100.0,
            self.report.vm_exits,
        )
    }
}

/// How perf counters are gathered for a measured run.
///
/// This is the paper's §III-B extension point: implement it to model any
/// monitoring tool and pass it to [`PerfStat::with_collector`]. The two
/// bundled implementations are [`HardwarePerf`] (the `perf stat` path) and
/// [`ScriptCollector`] (the realm-side fallback script).
pub trait Collector: Send + Sync {
    /// Provenance name recorded on samples (e.g. `"perf"`,
    /// `"script:cca-cycles"`).
    fn name(&self) -> String;

    /// Whether this collector reads hardware PMU counters.
    fn is_hardware(&self) -> bool {
        false
    }

    /// Shapes the raw execution counters into what this collector can
    /// actually observe (a wallclock-only script, for instance, cannot see
    /// cache counters).
    fn collect(&self, report: &ExecutionReport) -> PerfReport;
}

/// `perf stat` over hardware counters (TDX, SEV-SNP, and their normal
/// baselines).
#[derive(Debug, Clone, Copy, Default)]
pub struct HardwarePerf;

impl Collector for HardwarePerf {
    fn name(&self) -> String {
        "perf".to_owned()
    }

    fn is_hardware(&self) -> bool {
        true
    }

    fn collect(&self, report: &ExecutionReport) -> PerfReport {
        PerfReport { from_hw_counters: true, ..report.perf }
    }
}

/// A named custom monitoring script (the CCA path).
///
/// The script path deliberately degrades the data: cache counters are
/// unavailable without PMU access, exactly as inside a CCA realm, so they
/// are reported as zero and `from_hw_counters` is false.
#[derive(Debug, Clone)]
pub struct ScriptCollector {
    name: String,
}

impl ScriptCollector {
    /// A collector running the script named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ScriptCollector { name: name.into() }
    }
}

impl Collector for ScriptCollector {
    fn name(&self) -> String {
        format!("script:{}", self.name)
    }

    fn collect(&self, report: &ExecutionReport) -> PerfReport {
        PerfReport {
            // A wallclock-only script sees time and little else.
            instructions: 0,
            cache_references: 0,
            cache_misses: 0,
            from_hw_counters: false,
            ..report.perf
        }
    }
}

/// A perf-stat-style measurement harness bound to a [`Collector`].
///
/// Construct with [`PerfStat::for_vm`] (auto-selects the right path for the
/// platform, as the tool does) or [`PerfStat::with_collector`] for any
/// implementation of the trait, a named [`ScriptCollector`] included.
#[derive(Clone)]
pub struct PerfStat {
    collector: Arc<dyn Collector>,
}

impl PerfStat {
    /// Chooses the collection strategy the tool would use for `vm`: hardware
    /// counters where the platform exposes them, otherwise the bundled
    /// realm-side script (named `cca-cycles`, mirroring the script we wrote
    /// for CCA in the paper).
    pub fn for_vm(vm: &Vm) -> Self {
        if vm.target().platform.has_perf_counters() {
            Self::with_collector(Arc::new(HardwarePerf))
        } else {
            Self::with_collector(Arc::new(ScriptCollector::new("cca-cycles")))
        }
    }

    /// Uses an arbitrary [`Collector`] implementation (the §III-B extension
    /// point).
    pub fn with_collector(collector: Arc<dyn Collector>) -> Self {
        PerfStat { collector }
    }

    /// Whether this harness reads hardware counters.
    pub fn is_hardware(&self) -> bool {
        self.collector.is_hardware()
    }

    /// The provenance name samples will carry.
    pub fn collector_name(&self) -> String {
        self.collector.name()
    }

    /// The sample of one finished execution: the collector's view of its
    /// counters, under a `perf.measure` root span (stamped on `recorder`'s
    /// clock as the sample is taken) with the report's cost-event children.
    /// It reads `report` alone, so any trial can be the measured one.
    pub fn sample(&self, report: &ExecutionReport, recorder: &SpanRecorder) -> PerfSample {
        let mut root = recorder.root("perf.measure");
        report.attach_spans(&mut root);
        root.set_attr("vm_exits", report.perf.vm_exits);
        root.set_attr("bounce_bytes", report.perf.bounce_bytes);
        PerfSample {
            collector: self.collector.name(),
            report: self.collector.collect(report),
            trace: Some(root.finish()),
        }
    }

    /// Executes `trace` on `vm` and [`PerfStat::sample`]s it, returning the
    /// execution report plus the sample. An injected TEE fault aborts the
    /// measured run (no sample) and surfaces as `Err` for the supervisor to
    /// retry or rebuild.
    ///
    /// # Errors
    ///
    /// The injected [`confbench_vmm::TeeFault`].
    pub fn try_measure_spanned(
        &self,
        vm: &mut Vm,
        trace: &OpTrace,
        recorder: &SpanRecorder,
    ) -> Result<(ExecutionReport, PerfSample), confbench_vmm::TeeFault> {
        let report = vm.try_execute(trace)?;
        Ok((report, self.sample(&report, recorder)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{ManualClock, TeePlatform, VmTarget};
    use confbench_vmm::TeeVmBuilder;

    fn trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.cpu(5_000);
        t.mem_write(1 << 14);
        t
    }

    #[test]
    fn hardware_path_for_tdx_and_snp() {
        for p in [TeePlatform::Tdx, TeePlatform::SevSnp] {
            let vm = TeeVmBuilder::new(VmTarget::secure(p)).try_build().unwrap();
            assert!(PerfStat::for_vm(&vm).is_hardware(), "{p} should use perf");
        }
    }

    #[test]
    fn script_fallback_for_cca() {
        let vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Cca)).try_build().unwrap();
        let stat = PerfStat::for_vm(&vm);
        assert!(!stat.is_hardware());
        assert_eq!(stat.collector_name(), "script:cca-cycles");
    }

    #[test]
    fn hardware_sample_carries_cache_counters() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        let (_, sample) = PerfStat::for_vm(&vm)
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        assert_eq!(sample.collector, "perf");
        assert!(sample.report.cache_references > 0);
        assert!(sample.report.from_hw_counters);
    }

    #[test]
    fn script_sample_degrades_to_wallclock() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Cca)).try_build().unwrap();
        let (report, sample) = PerfStat::for_vm(&vm)
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        assert_eq!(sample.collector, "script:cca-cycles");
        assert_eq!(sample.report.instructions, 0);
        assert_eq!(sample.report.cache_references, 0);
        assert!(!sample.report.from_hw_counters);
        // Time is still measured.
        assert_eq!(sample.report.cycles, report.cycles.get());
        assert!(sample.report.cycles > 0);
    }

    #[test]
    fn custom_script_overrides_platform_choice() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
        let (_, sample) = PerfStat::with_collector(Arc::new(ScriptCollector::new("my-probe")))
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        assert_eq!(sample.collector, "script:my-probe");
        assert!(!sample.report.from_hw_counters);
    }

    /// A user-written collector: only exit counts survive.
    struct ExitsOnly;

    impl Collector for ExitsOnly {
        fn name(&self) -> String {
            "exits-only".to_owned()
        }

        fn collect(&self, report: &ExecutionReport) -> PerfReport {
            PerfReport {
                vm_exits: report.perf.vm_exits,
                from_hw_counters: false,
                ..PerfReport::default()
            }
        }
    }

    #[test]
    fn user_collector_implementations_plug_in() {
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
        let mut t = trace();
        t.io_write(8192);
        let (report, sample) = PerfStat::with_collector(Arc::new(ExitsOnly))
            .try_measure_spanned(&mut vm, &t, &SpanRecorder::default())
            .unwrap();
        assert_eq!(sample.collector, "exits-only");
        assert_eq!(sample.report.vm_exits, report.perf.vm_exits);
        assert!(sample.report.vm_exits > 0);
        assert_eq!(sample.report.instructions, 0);
    }

    #[test]
    fn spanned_measure_attaches_the_span_tree() {
        let clock = Arc::new(ManualClock::new());
        let recorder = SpanRecorder::new(clock.clone());
        let mut vm = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
        let mut t = trace();
        t.io_write(64 * 1024);
        clock.advance(3);
        let (report, sample) =
            PerfStat::for_vm(&vm).try_measure_spanned(&mut vm, &t, &recorder).unwrap();
        let tree = sample.trace.expect("trace attached");
        assert_eq!(tree.name, "perf.measure");
        assert_eq!(tree.start_ms, 3);
        assert_eq!(tree.attr("vm_exits"), Some(report.perf.vm_exits));
        let copy = tree.find("swiotlb.copy").expect("swiotlb child span");
        assert_eq!(copy.attr("bytes"), Some(report.perf.bounce_bytes));
        assert!(tree.find("tdx.seamcall").is_some());
    }

    #[test]
    fn sample_display_is_informative() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::SevSnp)).try_build().unwrap();
        let (_, sample) = PerfStat::for_vm(&vm)
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        let s = sample.to_string();
        assert!(s.contains("instructions"));
        assert!(s.contains("vm-exits"));
    }

    #[test]
    fn sample_serializes() {
        let mut vm = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
        let (_, sample) = PerfStat::for_vm(&vm)
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        let json = serde_json::to_string(&sample).unwrap();
        let back: PerfSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample);
    }
}
