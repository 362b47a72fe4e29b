//! Shared vocabulary types for the ConfBench-RS workspace.
//!
//! This crate defines the data model that every other crate speaks:
//!
//! * [`TeePlatform`] / [`VmKind`] — which trusted execution environment a
//!   workload targets, and whether the VM is confidential or "normal";
//! * [`Language`] — the FaaS language runtimes the paper evaluates;
//! * [`Cycles`] / [`SimClock`] — the deterministic virtual-time model all
//!   simulated execution is charged in;
//! * [`Op`] / [`OpTrace`] — the abstract operation stream a workload emits and
//!   a simulated VM executes;
//! * [`RunRequest`] / [`RunResult`] — the wire types exchanged between the
//!   ConfBench gateway, hosts, and users.
//!
//! # Example
//!
//! ```
//! use confbench_types::{Language, OpTrace, TeePlatform};
//!
//! let mut trace = OpTrace::new();
//! trace.cpu(1_000);
//! trace.alloc(4096);
//! assert_eq!(trace.total_cpu_ops(), 1_000);
//! assert!(TeePlatform::Tdx.is_hardware());
//! assert_eq!(Language::LuaJit.to_string(), "luajit");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod clock;
mod device;
mod error;
mod fault;
mod language;
mod ops;
mod platform;
mod run;
mod trace;

pub use campaign::{
    CampaignCell, CampaignFunction, CampaignId, CampaignReceipt, CampaignSpec, CampaignState,
    CampaignStatus, CellSummary, InvalidCampaign, JobId, JobState, JobStatus, Priority,
    MAX_AXIS_LEN, MAX_CAMPAIGN_CELLS,
};
pub use clock::{Clock, Cycles, ManualClock, SimClock, SystemClock};
pub use device::{DeviceKind, ParseDeviceKindError};
pub use error::{Error, Result};
pub use fault::{FaultClass, TeeMechanism};
pub use language::{Language, ParseLanguageError};
pub use ops::{Op, OpTrace, SyscallKind};
pub use platform::{ParsePlatformError, TeePlatform, VmKind, VmTarget};
pub use run::{
    FunctionSpec, InvalidRunRequest, PerfReport, RunRequest, RunResult, TrialStats, WorkloadKind,
    MAX_TRIALS,
};
pub use trace::{PackedTrace, TraceSpan};
