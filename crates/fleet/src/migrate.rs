//! Gateway-orchestrated live migration of a confidential VM.
//!
//! The orchestration drives the pure [`MigrationFsm`] step-for-step while
//! doing the real work, so every path it can take is a path the model
//! checker has explored:
//!
//! 1. **Drain** — the source stops taking new scheduler work; any traces
//!    still pending execute during pre-copy (that is what dirties pages).
//! 2. **Pre-copy** — the whole resident image is round one; while pending
//!    work keeps running, each subsequent round exports the dirty delta
//!    the SEPT/RMP dirty tracking accumulated, until the delta converges
//!    or the round budget is spent.
//! 3. **Stop-and-copy** — the source pauses (downtime clock starts), the
//!    final delta and the architectural runtime state (virtual clock,
//!    jitter-PRNG state, heap accounting, exit counters) cross the wire.
//! 4. **Re-attest** — the target platform is verified through the shared
//!    `SessionCache` before anything runs; the session id is sealed into
//!    the stream's `Commit` frame.
//! 5. **Resume** — the target adopts the runtime state and continues the
//!    source's execution byte-identically; the source retires.
//!
//! Any injected `migration-export` / `migration-import` fault or a failed
//! re-attestation takes the `Abort` edge instead, handing the source VM
//! back to the caller still runnable.
//!
//! Microarchitectural state (cache-simulator contents, bounce-buffer
//! occupancy) is deliberately *not* migrated — the target starts cold,
//! exactly as real hardware would after a move.

use std::time::Instant;

use confbench::AttestService;
use confbench_types::OpTrace;
use confbench_vmm::{ExecutionReport, TeeFault, TeeVmBuilder, Vm};
use serde::Serialize;

use crate::fsm::{FsmError, MigrationFsm, MigrationOp};
use crate::wire::{decode_stream, MigrationFrame, WireError};

/// Tunables of one migration.
#[derive(Debug, Clone)]
pub struct MigrationConfig {
    /// Most pre-copy rounds before the residual delta is deferred to
    /// stop-and-copy.
    pub max_rounds: u32,
    /// Dirty-page count at or below which pre-copy is considered
    /// converged.
    pub convergence_pages: u64,
    /// Transfer nonce sealed into the stream's `Begin` frame.
    pub nonce: u64,
}

impl Default for MigrationConfig {
    /// 8 pre-copy rounds, convergence at ≤ 8 dirty pages.
    fn default() -> Self {
        MigrationConfig { max_rounds: 8, convergence_pages: 8, nonce: 0 }
    }
}

/// What one migration did — the measured numbers EXPERIMENTS.md reports.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Pre-copy rounds actually run (the stop-and-copy delta is extra).
    pub precopy_rounds: u32,
    /// Pages transferred during pre-copy (source still running).
    pub precopy_pages: u64,
    /// Pages transferred during stop-and-copy (source paused).
    pub stopcopy_pages: u64,
    /// Total pages across all rounds.
    pub pages_total: u64,
    /// Wall-clock microseconds the VM was paused (stop-and-copy +
    /// re-attest + state adoption) — the migration *downtime*.
    pub downtime_us: u64,
    /// Bytes of the encoded migration stream.
    pub wire_bytes: usize,
    /// Frames in the stream.
    pub frames: usize,
    /// Re-attestation session id minted for the target
    /// (`"unattested-normal-vm"` for non-confidential VMs, which carry no
    /// evidence to verify).
    pub session: String,
    /// Reports of the pending traces executed on the source mid-migration.
    pub source_reports: Vec<ExecutionReport>,
}

/// What the fleet keeps of a finished migration: a [`MigrationReport`]'s
/// numbers, with the source's executions counted rather than kept. One row
/// of `GET /v1/migrations`, and the body of a `POST /v1/migrations`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MigrationRecord {
    /// As [`MigrationReport::precopy_rounds`].
    pub precopy_rounds: u32,
    /// As [`MigrationReport::precopy_pages`].
    pub precopy_pages: u64,
    /// As [`MigrationReport::stopcopy_pages`].
    pub stopcopy_pages: u64,
    /// As [`MigrationReport::pages_total`].
    pub pages_total: u64,
    /// As [`MigrationReport::downtime_us`].
    pub downtime_us: u64,
    /// As [`MigrationReport::wire_bytes`].
    pub wire_bytes: usize,
    /// As [`MigrationReport::frames`].
    pub frames: usize,
    /// As [`MigrationReport::session`].
    pub session: String,
    /// How many traces the source executed mid-migration.
    pub source_executions: usize,
}

impl From<&MigrationReport> for MigrationRecord {
    fn from(report: &MigrationReport) -> Self {
        MigrationRecord {
            precopy_rounds: report.precopy_rounds,
            precopy_pages: report.precopy_pages,
            stopcopy_pages: report.stopcopy_pages,
            pages_total: report.pages_total,
            downtime_us: report.downtime_us,
            wire_bytes: report.wire_bytes,
            frames: report.frames,
            session: report.session.clone(),
            source_executions: report.source_reports.len(),
        }
    }
}

/// Why a migration failed. Every variant that aborts after the source
/// existed hands the source VM back, still runnable.
#[derive(Debug)]
pub enum MigrationError {
    /// The source VM could not boot, so there was nothing to migrate.
    SourceBoot {
        /// The fault its boot raised.
        fault: TeeFault,
    },
    /// A TEE fault was injected at an export/import crossing, while the
    /// source executed its pending work, or while the target booted.
    Fault {
        /// Which stage faulted (`"export"`, `"execute"`, `"state"`,
        /// `"build"`, `"import"`).
        stage: &'static str,
        /// The injected fault.
        fault: TeeFault,
        /// The source VM, returned runnable.
        source: Box<Vm>,
    },
    /// Re-attesting the target through the session cache failed.
    Attest {
        /// The verifier's error.
        error: String,
        /// The source VM, returned runnable.
        source: Box<Vm>,
    },
    /// The encoded stream failed to decode on the target side (protocol
    /// bug or corruption in transit).
    Wire {
        /// The codec error.
        error: WireError,
        /// The source VM, returned runnable.
        source: Box<Vm>,
    },
    /// Source and target builders disagree on platform or kind.
    TargetMismatch {
        /// The source VM, returned runnable.
        source: Box<Vm>,
    },
    /// The migration state machine refused a step the orchestrator took:
    /// an orchestration bug, answered instead of panicking.
    IllegalStep {
        /// The machine's refusal.
        error: FsmError,
        /// The source VM, returned runnable.
        source: Box<Vm>,
    },
}

impl MigrationError {
    /// Reclaims the still-runnable source VM; `None` when it never booted.
    pub fn into_source(self) -> Option<Vm> {
        match self {
            MigrationError::SourceBoot { .. } => None,
            MigrationError::Fault { source, .. }
            | MigrationError::Attest { source, .. }
            | MigrationError::Wire { source, .. }
            | MigrationError::TargetMismatch { source }
            | MigrationError::IllegalStep { source, .. } => Some(*source),
        }
    }
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::SourceBoot { fault } => write!(f, "source VM failed to boot: {fault}"),
            MigrationError::Fault { stage, fault, .. } => {
                write!(f, "migration {stage} faulted: {fault}")
            }
            MigrationError::Attest { error, .. } => write!(f, "target re-attest failed: {error}"),
            MigrationError::Wire { error, .. } => write!(f, "migration stream corrupt: {error}"),
            MigrationError::TargetMismatch { .. } => {
                f.write_str("target builder does not match the source VM's target")
            }
            MigrationError::IllegalStep { error, .. } => {
                write!(f, "migration state machine refused a step: {error}")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

/// Live-migrates `source` onto a VM built from `target_builder`.
///
/// `pending` traces are the work still assigned to the source when the
/// drain started; they execute on the source *during* pre-copy (dirtying
/// pages between rounds) so the moved VM's state reflects them. After a
/// successful migration the returned target VM continues the source's
/// execution byte-identically — same virtual clock, same jitter stream,
/// same heap accounting.
///
/// # Errors
///
/// [`MigrationError`]; every abort path returns the source VM runnable
/// (reclaim it with [`MigrationError::into_source`]).
pub fn migrate(
    mut source: Vm,
    target_builder: TeeVmBuilder,
    attest: &AttestService,
    pending: &[OpTrace],
    cfg: &MigrationConfig,
) -> Result<(Vm, MigrationReport), MigrationError> {
    let target_spec = source.target();
    let mut fsm = MigrationFsm::new(u64::MAX);
    let mut frames: Vec<MigrationFrame> = Vec::new();
    let mut source_reports = Vec::new();
    // Takes an op the orchestrator has arranged to be valid; a refusal is
    // an orchestration bug (the model checker verifies the machine, this
    // verifies the driver), answered with the source handed back.
    macro_rules! step {
        ($op:expr) => {
            fsm = match fsm.apply($op) {
                Ok(next) => next,
                Err(error) => {
                    return Err(MigrationError::IllegalStep { error, source: Box::new(source) })
                }
            }
        };
    }

    step!(MigrationOp::Drain);
    source.mark_all_dirty();
    let resident = source.resident_page_count();
    step!(MigrationOp::BeginPreCopy { resident });
    frames.push(MigrationFrame::Begin {
        platform: target_spec.platform,
        kind: target_spec.kind,
        resident,
        nonce: cfg.nonce,
    });

    // Pre-copy: round one is the whole image; the source keeps executing
    // its pending work between rounds, and each round ships the delta.
    let mut round: u16 = 0;
    let mut precopy_pages: u64 = 0;
    // The FSM's dirty counter mirrors the VM's dirty-set size; `tracked`
    // is what the FSM currently believes, so Touch carries only the delta.
    let mut tracked: u64 = resident;
    macro_rules! export_round {
        () => {{
            let gpas = match source.export_dirty_pages() {
                Ok(gpas) => gpas,
                Err(fault) => return Err(abort(fsm, source, "export", fault)),
            };
            if !gpas.is_empty() {
                round += 1;
                step!(MigrationOp::CopyRound { copied: gpas.len() as u64 });
                tracked -= gpas.len() as u64;
                precopy_pages += gpas.len() as u64;
                frames.push(MigrationFrame::Pages { round, gpas });
            }
        }};
    }
    export_round!();
    for trace in pending {
        match source.try_execute(trace) {
            Ok(report) => source_reports.push(report),
            Err(fault) => return Err(abort(fsm, source, "execute", fault)),
        }
        let dirtied = source.dirty_page_count() as u64;
        let delta = dirtied.saturating_sub(tracked);
        if delta > 0 {
            step!(MigrationOp::Touch { pages: delta });
            tracked = dirtied;
        }
        // Within the round budget, ship each delta while still running;
        // past it, let the residue accumulate for stop-and-copy.
        if u32::from(round) < cfg.max_rounds && dirtied > cfg.convergence_pages {
            export_round!();
        }
    }
    let precopy_rounds = u32::from(round);

    // Stop-and-copy: pause the source (downtime starts), drain the final
    // delta — it cannot grow any more.
    let pause_started = Instant::now();
    step!(MigrationOp::Pause);
    let final_delta = match source.export_dirty_pages() {
        Ok(gpas) => gpas,
        Err(fault) => return Err(abort(fsm, source, "export", fault)),
    };
    let stopcopy_pages = final_delta.len() as u64;
    if !final_delta.is_empty() {
        frames.push(MigrationFrame::Pages { round: round + 1, gpas: final_delta });
    }
    step!(MigrationOp::FinalCopy);
    step!(MigrationOp::BeginReAttest);

    let state = match source.export_runtime_state() {
        Ok(state) => state,
        Err(fault) => return Err(abort(fsm, source, "state", fault)),
    };
    frames.push(MigrationFrame::State(state));

    // Re-attest the target platform through the fleet-shared session
    // cache before anything resumes. Normal (non-confidential) VMs carry
    // no evidence; they move unattested, and the Commit frame says so.
    let session = if target_spec.kind == confbench_types::VmKind::Secure {
        match attest.reattest(target_spec.platform) {
            Ok(outcome) => outcome.session.id,
            Err(e) => return Err(abort(fsm, source, "attest", e)),
        }
    } else {
        "unattested-normal-vm".to_owned()
    };
    step!(MigrationOp::Attest);

    let pages_total = precopy_pages + stopcopy_pages;
    frames.push(MigrationFrame::Commit {
        session: session.clone(),
        pages_total,
        rounds: precopy_rounds + u32::from(stopcopy_pages > 0),
    });

    // Encode, "transfer", and replay the stream on the target side. The
    // target VM boots fresh (its own launch measurement) and then adopts
    // the source's pages and runtime state.
    let mut wire = Vec::new();
    for frame in &frames {
        frame.encode_into(&mut wire);
    }
    let decoded = match decode_stream(&wire) {
        Ok(decoded) => decoded,
        Err(error) => return Err(abort(fsm, source, "wire-err", error)),
    };
    let mut target = match target_builder.try_build() {
        Ok(target) => target,
        Err(fault) => return Err(abort(fsm, source, "build", fault)),
    };
    if target.target() != target_spec {
        return Err(abort(fsm, source, "target", TargetMismatch));
    }
    for frame in &decoded {
        let imported = match frame {
            MigrationFrame::Pages { gpas, .. } => target.import_pages(gpas).map(|_| ()),
            MigrationFrame::State(s) => target.adopt_runtime_state(s),
            MigrationFrame::Begin { .. } | MigrationFrame::Commit { .. } => Ok(()),
        };
        if let Err(fault) = imported {
            return Err(abort(fsm, source, "import", fault));
        }
    }

    step!(MigrationOp::Resume);
    debug_assert!(fsm.phase.is_terminal());
    let downtime_us = pause_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;

    Ok((
        target,
        MigrationReport {
            precopy_rounds,
            precopy_pages,
            stopcopy_pages,
            pages_total,
            downtime_us,
            wire_bytes: wire.len(),
            frames: decoded.len(),
            session,
            source_reports,
        },
    ))
}

/// Takes the `Abort` edge and wraps the failure, handing the source back.
/// Abort is legal from every live phase; were it refused, the refusal is
/// the error.
fn abort<E: AbortCause>(
    fsm: MigrationFsm,
    source: Vm,
    stage: &'static str,
    cause: E,
) -> MigrationError {
    let source = Box::new(source);
    match fsm.apply(MigrationOp::Abort) {
        Ok(aborted) => {
            debug_assert_eq!(aborted.source, crate::fsm::SourceVm::Running);
            cause.into_error(stage, source)
        }
        Err(error) => MigrationError::IllegalStep { error, source },
    }
}

trait AbortCause {
    fn into_error(self, stage: &'static str, source: Box<Vm>) -> MigrationError;
}

impl AbortCause for TeeFault {
    fn into_error(self, stage: &'static str, source: Box<Vm>) -> MigrationError {
        MigrationError::Fault { stage, fault: self, source }
    }
}

impl AbortCause for confbench_types::Error {
    fn into_error(self, _stage: &'static str, source: Box<Vm>) -> MigrationError {
        MigrationError::Attest { error: self.to_string(), source }
    }
}

impl AbortCause for WireError {
    fn into_error(self, _stage: &'static str, source: Box<Vm>) -> MigrationError {
        MigrationError::Wire { error: self, source }
    }
}

/// The target VM booted for another platform or kind than the source's.
struct TargetMismatch;

impl AbortCause for TargetMismatch {
    fn into_error(self, _stage: &'static str, source: Box<Vm>) -> MigrationError {
        MigrationError::TargetMismatch { source }
    }
}
