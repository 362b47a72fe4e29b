//! Simulated confidential and conventional virtual machines.
//!
//! This crate is the execution substrate the ConfBench tool dispatches
//! workloads to. A [`Vm`] is built for a [`confbench_types::VmTarget`]
//! (platform × secure/normal) and replays abstract operation traces,
//! charging deterministic virtual cycles according to a per-platform
//! [`CostModel`] while driving the real TEE state machines from
//! `confbench-memsim`:
//!
//! * [`TdxModule`] — TD lifecycle, measured page adds, runtime page
//!   acceptance, `TDG.MR.REPORT`;
//! * [`AmdSp`] — SNP launch measurement, RMP assignment/validation,
//!   VCEK-signed attestation reports;
//! * [`Rmm`] + [`Fvp`] — realm lifecycle over the granule protection table,
//!   and the FVP simulation layer that dominates the paper's CCA numbers;
//! * [`CacheSim`] — a two-level cache model whose page-coloring term
//!   reproduces the paper's counter-intuitive sub-1.0 ratios.
//!
//! # Example
//!
//! ```
//! use confbench_types::{OpTrace, TeePlatform, VmTarget};
//! use confbench_vmm::TeeVmBuilder;
//!
//! let mut trace = OpTrace::new();
//! trace.cpu(1_000_000);
//!
//! let mut secure = TeeVmBuilder::new(VmTarget::secure(TeePlatform::Tdx)).try_build().unwrap();
//! let mut normal = TeeVmBuilder::new(VmTarget::normal(TeePlatform::Tdx)).try_build().unwrap();
//! let rs = secure.try_execute(&trace).unwrap();
//! let rn = normal.try_execute(&trace).unwrap();
//! let ratio = rs.cycles.get() as f64 / rn.cycles.get() as f64;
//! assert!(ratio < 1.1, "CPU-bound work is near-native in TDX: {ratio}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cca;
mod cost;
mod dirty;
mod evtpm;
mod fault;
mod host;
mod snp;
mod tdx;
mod vm;

pub use cache::{CacheSim, CacheStats, LineState, WalkMemo, WalkMemoCounts};
pub use cca::{CcaError, Fvp, RealmId, RealmPhase, Rmm};
pub use cost::CostModel;
pub use evtpm::{EvTpm, EvTpmError, EVTPM_PCRS};
pub use fault::{TeeFault, TeeFaultPlan};
pub use host::{ContentionModel, SharedHost};
pub use snp::{AmdSp, SnpError, SnpPhase, SnpReport};
pub use tdx::{TdId, TdPhase, TdReport, TdxError, TdxModule};
pub use vm::{CostEvents, ExecutionReport, TeeVmBuilder, Vm, VmRuntimeState};

// Device types that appear in the `Vm` device API, re-exported for
// convenience; the full subsystem lives in `confbench-devio`.
pub use confbench_devio::{GpuDevice, MeasurementReport, TdispState};
