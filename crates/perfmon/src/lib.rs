//! Performance-monitoring integration (the simulated `perf stat`).
//!
//! ConfBench wraps every dispatched workload in `perf stat` and piggybacks
//! the collected counters onto the result returned to the user (paper
//! §III-B). Inside CCA realms hardware counters are unavailable, so the tool
//! falls back to a custom monitoring script. [`PerfStat::for_vm`] picks one
//! of the two by the platform: `perf` over the hardware counters, or the
//! `cca-cycles` script, which sees time but not the cache or instruction
//! counters.
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

use confbench_obs::SpanRecorder;
use confbench_types::{OpTrace, PerfReport, TraceSpan};
use confbench_vmm::{ExecutionReport, Vm};
use serde::{Deserialize, Serialize};

/// One collected perf sample with its provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfSample {
    /// Name of the collector that produced the numbers (`"perf"` for the
    /// hardware-counter path, `"script:cca-cycles"` for the realm script).
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

/// A perf-stat-style measurement harness: the hardware-counter path or
/// the realm-side script.
#[derive(Debug, Clone, Copy)]
pub struct PerfStat {
    hardware: bool,
}

impl PerfStat {
    /// Chooses the collection strategy the tool would use for `vm`: hardware
    /// counters where the platform exposes them, otherwise the bundled
    /// realm-side script (named `cca-cycles`, mirroring the script we wrote
    /// for CCA in the paper).
    pub fn for_vm(vm: &Vm) -> Self {
        PerfStat { hardware: vm.target().platform.has_perf_counters() }
    }

    /// The sample of one finished execution: what this path sees of its
    /// counters, under a `perf.measure` root span (stamped on `recorder`'s
    /// clock as the sample is taken) with the report's cost-event children.
    /// It reads `report` alone, so any trial can be the measured one.
    ///
    /// The script path deliberately degrades the data: without PMU access,
    /// exactly as inside a CCA realm, it reports the instruction and cache
    /// counters as zero and `from_hw_counters` as false.
    pub fn sample(&self, report: &ExecutionReport, recorder: &SpanRecorder) -> PerfSample {
        let mut root = recorder.root("perf.measure");
        report.attach_spans(&mut root);
        root.set_attr("vm_exits", report.perf.vm_exits);
        root.set_attr("bounce_bytes", report.perf.bounce_bytes);
        let (collector, report) = if self.hardware {
            ("perf", PerfReport { from_hw_counters: true, ..report.perf })
        } else {
            // A wallclock-only script sees time and little else.
            let seen = PerfReport {
                instructions: 0,
                cache_references: 0,
                cache_misses: 0,
                from_hw_counters: false,
                ..report.perf
            };
            ("script:cca-cycles", seen)
        };
        PerfSample { collector: collector.to_owned(), report, trace: Some(root.finish()) }
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
    use std::sync::Arc;

    fn trace() -> OpTrace {
        let mut t = OpTrace::new();
        t.cpu(5_000);
        t.mem_write(1 << 14);
        t
    }

    /// The collector name on a sample of one run of `trace()` on `target`.
    fn collector_for(target: VmTarget) -> String {
        let mut vm = TeeVmBuilder::new(target).try_build().unwrap();
        let (_, sample) = PerfStat::for_vm(&vm)
            .try_measure_spanned(&mut vm, &trace(), &SpanRecorder::default())
            .unwrap();
        sample.collector
    }

    #[test]
    fn hardware_path_for_tdx_and_snp() {
        for p in [TeePlatform::Tdx, TeePlatform::SevSnp] {
            assert_eq!(collector_for(VmTarget::secure(p)), "perf", "{p} should use perf");
        }
    }

    #[test]
    fn script_fallback_for_cca() {
        assert_eq!(collector_for(VmTarget::secure(TeePlatform::Cca)), "script:cca-cycles");
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
