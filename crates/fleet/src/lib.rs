//! The gateway fleet: sharded placement, work stealing, live migration.
//!
//! One ConfBench gateway owns one set of hosts and one scheduler queue, so
//! a host drain or crash loses every in-flight campaign job on it. This
//! crate adds the robustness layer on top:
//!
//! * [`HashRing`] — consistent-hash placement of campaign cells keyed on
//!   the scheduler's *content address* (`confbench_sched::cache_key`), so
//!   the memoization cache shards naturally and a resubmitted cell not yet
//!   harvested routes to the shard that owns the cached cell (a harvested
//!   one is answered at placement and routes nowhere);
//! * [`Fleet`] — N gateway shards sharing one [`FunctionStore`] (content
//!   addresses agree fleet-wide) and one `AttestService` (the session
//!   cache's single-flight and the collateral refresher's claim slots span
//!   the fleet: N shards cold-verifying the same TCB identity do *one* PCS
//!   collateral cycle), with cross-shard work stealing when a shard's
//!   queue runs dry and kill/drain recovery that completes campaigns
//!   byte-identically (dedup via the content-addressed cache — no cell
//!   executes twice);
//! * [`daemon`] — the one daemon `main` behind `confbench-gateway` and
//!   `confbench-fleetd`: a fleet of `--shards N` (default 1) shards, one
//!   pool of `--workers` driver threads, and one router;
//! * [`fsm`] — the migration state machine
//!   (`Idle → Draining → PreCopy → StopAndCopy → ReAttest →
//!   Resumed/Aborted`), pure and bounded so `confbench-mc` can model-check
//!   it exhaustively;
//! * [`wire`] — the versioned migration stream codec (`CBMG` frames)
//!   carrying dirty-page rounds, the architectural runtime state, and the
//!   re-attestation commit;
//! * [`mod@migrate`] — gateway-orchestrated live migration of a running
//!   confidential VM: drain → pre-copy dirty-page rounds over the
//!   SEPT/RMP models until the delta converges → stop-and-copy →
//!   re-attest on the target through the shared session cache → resume,
//!   with measured downtime; an abort at any stage hands the source VM
//!   back runnable.
//!
//! [`FunctionStore`]: confbench::FunctionStore

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing))]
#![warn(missing_docs)]

pub mod daemon;
pub mod fleet;
pub mod fsm;
pub mod migrate;
mod rest;
pub mod ring;
pub mod wire;

pub use fleet::{
    Fleet, FleetCampaignStatus, FleetConfig, FleetReceipt, ShardStatus, DRIVER_THREAD,
};
pub use fsm::{FsmError, MigrationFsm, MigrationOp, MigrationPhase, SourceVm};
pub use migrate::{migrate, MigrationConfig, MigrationError, MigrationRecord, MigrationReport};
pub use ring::HashRing;
pub use wire::{MigrationFrame, WireError, MAX_PAGES_PER_FRAME, MAX_SESSION_ID_LEN};
