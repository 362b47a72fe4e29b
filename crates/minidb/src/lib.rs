//! An embedded relational database for the confidential-DBMS experiment
//! (paper §IV-C).
//!
//! The paper stresses SQLite's `speedtest1.c` amalgamation inside secure and
//! normal VMs. This crate is the equivalent substrate, built from scratch:
//!
//! * [`BTree`] — an order-32 B+tree storage engine with range scans;
//! * [`Table`] — schema-checked rows with secondary indexes;
//! * [`Database`] — named tables, transactions, auto-commit fsync
//!   semantics, and operation-trace instrumentation so a simulated VM can
//!   charge for the I/O and syscall behaviour;
//! * query helpers ([`aggregate`], [`order_by`], [`group_count`]);
//! * [`run_speedtest`] — a 15-case stress suite mirroring `speedtest1`'s
//!   heterogeneous mix, scaled by the same relative-size parameter, driven
//!   through the [`Database`] API.
//!
//! # Example
//!
//! ```
//! use confbench_minidb::{run_speedtest, SpeedTestCase};
//!
//! let reports = run_speedtest(10, 7)?;
//! let insert_txn = reports.iter().find(|r| r.case == SpeedTestCase::InsertTransaction).unwrap();
//! assert!(insert_txn.rows >= 100);
//! # Ok::<(), confbench_minidb::DbError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btree;
mod database;
mod query;
mod speedtest;
mod table;
mod value;

pub use btree::BTree;
pub use database::{Database, DbError};
pub use query::{aggregate, group_count, order_by, Aggregate};
pub use speedtest::{run_speedtest, SpeedTest, SpeedTestCase, SpeedTestReport};
pub use table::{Column, ColumnType, Table, TableError};
pub use value::{DbValue, IndexKey, Row};
