//! The `speedtest`-style stress suite (the paper's confidential-DBMS
//! workload).
//!
//! SQLite's `speedtest1.c` runs a numbered list of heterogeneous relational
//! tests scaled by a `--size` parameter (the paper keeps the default 100).
//! This module mirrors that structure: a fixed list of named tests covering
//! inserts with and without transactions and indexes, point and range
//! selects, updates, deletes, ordering, aggregation, text manipulation,
//! index lifecycle, and a vacuum-style table copy. Each test executes for
//! real against [`Database`] and returns the operation trace it generated.

use confbench_crypto::SplitMix64;
use confbench_types::OpTrace;

use crate::database::{Database, DbError};
use crate::query::{aggregate, group_count, order_by, Aggregate};
use crate::table::{Column, ColumnType};
use crate::value::DbValue;

/// One named speedtest case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpeedTestCase {
    /// Individual (auto-commit) inserts.
    InsertAutocommit,
    /// Batch inserts inside one transaction.
    InsertTransaction,
    /// Batch inserts into an indexed table.
    InsertIndexed,
    /// Random point selects by rowid.
    SelectPoint,
    /// Range scans over the primary key.
    SelectRange,
    /// Range scans through a secondary index.
    SelectIndexed,
    /// Updates on an unindexed column.
    UpdateUnindexed,
    /// Updates on an indexed column (index maintenance).
    UpdateIndexed,
    /// Delete half the rows.
    DeleteHalf,
    /// Full materialized ORDER BY.
    OrderBy,
    /// Aggregates plus GROUP BY.
    AggregateGroup,
    /// Text-heavy rows (build + store long strings).
    TextHeavy,
    /// Create and drop an index on a populated table.
    IndexLifecycle,
    /// Copy every row into a fresh table (VACUUM-style rewrite).
    VacuumCopy,
    /// A mixed OLTP-ish workload.
    Mixed,
}

impl SpeedTestCase {
    /// The full suite, in execution order.
    pub const ALL: [SpeedTestCase; 15] = [
        SpeedTestCase::InsertAutocommit,
        SpeedTestCase::InsertTransaction,
        SpeedTestCase::InsertIndexed,
        SpeedTestCase::SelectPoint,
        SpeedTestCase::SelectRange,
        SpeedTestCase::SelectIndexed,
        SpeedTestCase::UpdateUnindexed,
        SpeedTestCase::UpdateIndexed,
        SpeedTestCase::DeleteHalf,
        SpeedTestCase::OrderBy,
        SpeedTestCase::AggregateGroup,
        SpeedTestCase::TextHeavy,
        SpeedTestCase::IndexLifecycle,
        SpeedTestCase::VacuumCopy,
        SpeedTestCase::Mixed,
    ];

    /// speedtest1-style display name.
    pub fn name(self) -> &'static str {
        match self {
            SpeedTestCase::InsertAutocommit => "100 INSERTs, autocommit",
            SpeedTestCase::InsertTransaction => "1000 INSERTs in a transaction",
            SpeedTestCase::InsertIndexed => "1000 INSERTs into indexed table",
            SpeedTestCase::SelectPoint => "500 SELECTs by rowid",
            SpeedTestCase::SelectRange => "100 range SELECTs",
            SpeedTestCase::SelectIndexed => "100 SELECTs via index",
            SpeedTestCase::UpdateUnindexed => "500 UPDATEs, unindexed column",
            SpeedTestCase::UpdateIndexed => "500 UPDATEs, indexed column",
            SpeedTestCase::DeleteHalf => "DELETE half the rows",
            SpeedTestCase::OrderBy => "SELECT ... ORDER BY",
            SpeedTestCase::AggregateGroup => "aggregates with GROUP BY",
            SpeedTestCase::TextHeavy => "250 INSERTs of long text",
            SpeedTestCase::IndexLifecycle => "CREATE INDEX / DROP INDEX",
            SpeedTestCase::VacuumCopy => "VACUUM-style table copy",
            SpeedTestCase::Mixed => "mixed OLTP workload",
        }
    }
}

/// Outcome of one test case.
#[derive(Debug, Clone)]
pub struct SpeedTestReport {
    /// Which test ran.
    pub case: SpeedTestCase,
    /// Rows touched (processed/returned), for sanity assertions.
    pub rows: u64,
    /// Operations the test generated.
    pub trace: OpTrace,
}

/// Runs the full suite at the given relative `size` (the paper uses 100).
///
/// # Errors
///
/// Propagates database errors (none are expected for valid sizes).
///
/// # Example
///
/// ```
/// use confbench_minidb::run_speedtest;
///
/// let reports = run_speedtest(10, 7)?;
/// assert_eq!(reports.len(), 15);
/// assert!(reports.iter().all(|r| !r.trace.is_empty()));
/// # Ok::<(), confbench_minidb::DbError>(())
/// ```
pub fn run_speedtest(size: u32, seed: u64) -> Result<Vec<SpeedTestReport>, DbError> {
    let mut runner = SpeedTest::new(size, seed);
    SpeedTestCase::ALL.iter().map(|&case| runner.run(case)).collect()
}

/// The suite runner: owns the database shared by consecutive tests (later
/// tests operate on data earlier tests created, as in speedtest1).
pub struct SpeedTest {
    db: Database,
    rng: SplitMix64,
    size: u32,
    rowids: Vec<i64>,
}

impl SpeedTest {
    /// Creates a runner at relative `size`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn new(size: u32, seed: u64) -> Self {
        assert!(size > 0, "size must be positive");
        SpeedTest { db: Database::new(), rng: SplitMix64::new(seed), size, rowids: Vec::new() }
    }

    fn n(&self, base: u64) -> u64 {
        (base * self.size as u64 / 100).max(4)
    }

    /// A draw from `0..bound`, by remainder — not `SplitMix64::next_below`,
    /// whose multiply-shift lands elsewhere: `results/dbms_table.txt` is a
    /// function of these draws.
    fn below(&mut self, bound: u64) -> u64 {
        self.rng.next_u64() % bound
    }

    /// Runs one case, returning its report.
    ///
    /// # Errors
    ///
    /// Database errors.
    pub fn run(&mut self, case: SpeedTestCase) -> Result<SpeedTestReport, DbError> {
        // Each test starts with a drained trace.
        let _ = self.db.take_trace();
        let rows = match case {
            SpeedTestCase::InsertAutocommit => self.insert_autocommit()?,
            SpeedTestCase::InsertTransaction => self.insert_transaction()?,
            SpeedTestCase::InsertIndexed => self.insert_indexed()?,
            SpeedTestCase::SelectPoint => self.select_point()?,
            SpeedTestCase::SelectRange => self.select_range()?,
            SpeedTestCase::SelectIndexed => self.select_indexed()?,
            SpeedTestCase::UpdateUnindexed => self.update_column("c_text")?,
            SpeedTestCase::UpdateIndexed => self.update_column("c_int")?,
            SpeedTestCase::DeleteHalf => self.delete_half()?,
            SpeedTestCase::OrderBy => self.order_by()?,
            SpeedTestCase::AggregateGroup => self.aggregate_group()?,
            SpeedTestCase::TextHeavy => self.text_heavy()?,
            SpeedTestCase::IndexLifecycle => self.index_lifecycle()?,
            SpeedTestCase::VacuumCopy => self.vacuum_copy()?,
            SpeedTestCase::Mixed => self.mixed()?,
        };
        Ok(SpeedTestReport { case, rows, trace: self.db.take_trace() })
    }

    fn schema() -> Vec<Column> {
        vec![
            Column::new("c_int", ColumnType::Integer),
            Column::new("c_real", ColumnType::Real),
            Column::new("c_text", ColumnType::Text),
        ]
    }

    fn random_row(&mut self) -> Vec<DbValue> {
        let n = self.below(1_000_000) as i64;
        vec![
            n.into(),
            (n as f64 / 7.0).into(),
            format!("row number {n} spelled out for padding purposes").into(),
        ]
    }

    fn main_table(&mut self) -> Result<(), DbError> {
        if self.db.table("main").is_err() {
            self.db.create_table("main", Self::schema())?;
        }
        Ok(())
    }

    fn insert_autocommit(&mut self) -> Result<u64, DbError> {
        self.main_table()?;
        let n = self.n(100);
        for _ in 0..n {
            let row = self.random_row();
            let id = self.db.insert("main", row)?;
            self.rowids.push(id);
        }
        Ok(n)
    }

    fn insert_transaction(&mut self) -> Result<u64, DbError> {
        self.main_table()?;
        let n = self.n(1000);
        self.db.begin()?;
        for _ in 0..n {
            let row = self.random_row();
            let id = self.db.insert("main", row)?;
            self.rowids.push(id);
        }
        self.db.commit()?;
        Ok(n)
    }

    fn insert_indexed(&mut self) -> Result<u64, DbError> {
        if self.db.table("indexed").is_err() {
            self.db.create_table("indexed", Self::schema())?;
            self.db.create_index("indexed", "idx_int", "c_int")?;
        }
        let n = self.n(1000);
        self.db.begin()?;
        for _ in 0..n {
            let row = self.random_row();
            self.db.insert("indexed", row)?;
        }
        self.db.commit()?;
        Ok(n)
    }

    fn select_point(&mut self) -> Result<u64, DbError> {
        let n = self.n(500);
        let mut hits = 0;
        for _ in 0..n {
            let idx = self.below(self.rowids.len() as u64) as usize;
            if self.db.select("main", self.rowids[idx])?.is_some() {
                hits += 1;
            }
        }
        Ok(hits)
    }

    fn select_range(&mut self) -> Result<u64, DbError> {
        let n = self.n(100);
        let mut rows = 0u64;
        for _ in 0..n {
            let lo = self.below(self.rowids.len() as u64) as i64;
            let mut in_range = 0u64;
            self.db.table("main")?.scan(|rowid, _| {
                if rowid >= lo && rowid < lo + 50 {
                    in_range += 1;
                }
            });
            rows += in_range;
            self.db.charge_scan(self.rowids.len() as u64, 64);
        }
        Ok(rows)
    }

    fn select_indexed(&mut self) -> Result<u64, DbError> {
        let n = self.n(100);
        let mut rows = 0u64;
        for _ in 0..n {
            let lo = self.below(999_000) as i64;
            let hits = self.db.table("indexed")?.index_range(
                "idx_int",
                &lo.into(),
                &(lo + 1000).into(),
            )?;
            rows += hits.len() as u64;
            self.db.charge_scan(hits.len() as u64 + 3, 64);
        }
        Ok(rows)
    }

    fn update_column(&mut self, column: &str) -> Result<u64, DbError> {
        let n = self.n(500);
        self.db.begin()?;
        for _ in 0..n {
            let idx = self.below(self.rowids.len() as u64) as usize;
            let rowid = self.rowids[idx];
            let value: DbValue = if column == "c_int" {
                (self.below(1_000_000) as i64).into()
            } else {
                format!("updated text {}", self.below(1000)).into()
            };
            if self.db.table("main")?.get(rowid).is_some() {
                self.db.update("main", rowid, column, value)?;
            }
        }
        self.db.commit()?;
        Ok(n)
    }

    fn delete_half(&mut self) -> Result<u64, DbError> {
        self.db.begin()?;
        let victims: Vec<i64> = self.rowids.iter().copied().step_by(2).collect();
        let mut deleted = 0;
        for rowid in &victims {
            if self.db.table("main")?.get(*rowid).is_some() {
                self.db.delete("main", *rowid)?;
                deleted += 1;
            }
        }
        self.db.commit()?;
        self.rowids = self.rowids.iter().copied().skip(1).step_by(2).collect();
        Ok(deleted)
    }

    fn order_by(&mut self) -> Result<u64, DbError> {
        let rows = order_by(self.db.table("main")?, "c_int").map_err(DbError::from)?;
        let count = rows.len() as u64;
        // Sorting is O(n log n) compares plus a full materialization.
        self.db.charge_scan(count.max(1) * 17, 64);
        Ok(count)
    }

    fn aggregate_group(&mut self) -> Result<u64, DbError> {
        let table = self.db.table("main")?;
        let count = match aggregate(table, "c_int", Aggregate::Count).map_err(DbError::from)? {
            DbValue::Integer(n) => n as u64,
            _ => 0,
        };
        let _ = aggregate(table, "c_real", Aggregate::Avg).map_err(DbError::from)?;
        let groups = group_count(table, "c_text").map_err(DbError::from)?;
        self.db.charge_scan(count * 3, 64);
        Ok(groups.len() as u64)
    }

    fn text_heavy(&mut self) -> Result<u64, DbError> {
        if self.db.table("texts").is_err() {
            self.db.create_table("texts", vec![Column::new("body", ColumnType::Text)])?;
        }
        let n = self.n(250);
        self.db.begin()?;
        for i in 0..n {
            let mut body = String::with_capacity(600);
            for w in 0..40 {
                body.push_str(&format!("word{} ", (i * 31 + w * 7) % 997));
            }
            self.db.insert("texts", vec![body.into()])?;
        }
        self.db.commit()?;
        Ok(n)
    }

    fn index_lifecycle(&mut self) -> Result<u64, DbError> {
        let rows = self.db.table("main")?.len() as u64;
        self.db.create_index("main", "idx_tmp", "c_real")?;
        self.db.drop_index("main", "idx_tmp")?;
        Ok(rows)
    }

    fn vacuum_copy(&mut self) -> Result<u64, DbError> {
        if self.db.table("main_copy").is_ok() {
            self.db.drop_table("main_copy")?;
        }
        self.db.create_table("main_copy", Self::schema())?;
        let rows: Vec<Vec<DbValue>> = {
            let mut out = Vec::new();
            self.db.table("main")?.scan(|_, row| out.push(row.clone()));
            out
        };
        let count = rows.len() as u64;
        self.db.begin()?;
        for row in rows {
            self.db.insert("main_copy", row)?;
        }
        self.db.commit()?;
        Ok(count)
    }

    fn mixed(&mut self) -> Result<u64, DbError> {
        let n = self.n(400);
        let mut ops = 0;
        for i in 0..n {
            match i % 5 {
                0 | 1 => {
                    let row = self.random_row();
                    let id = self.db.insert("main", row)?;
                    self.rowids.push(id);
                }
                2 | 3 => {
                    let idx = self.below(self.rowids.len() as u64) as usize;
                    let _ = self.db.select("main", self.rowids[idx])?;
                }
                _ => {
                    let idx = self.below(self.rowids.len() as u64) as usize;
                    let rowid = self.rowids[idx];
                    if self.db.table("main")?.get(rowid).is_some() {
                        self.db.update("main", rowid, "c_real", (i as f64).into())?;
                    }
                }
            }
            ops += 1;
        }
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_runs_and_produces_traces() {
        let reports = run_speedtest(10, 1).unwrap();
        assert_eq!(reports.len(), SpeedTestCase::ALL.len());
        for r in &reports {
            assert!(!r.trace.is_empty(), "{:?} produced no trace", r.case);
            assert!(r.rows > 0, "{:?} touched no rows", r.case);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = run_speedtest(10, 42).unwrap();
        let b = run_speedtest(10, 42).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.trace, y.trace, "{:?}", x.case);
        }
    }

    #[test]
    fn size_scales_work() {
        let small = run_speedtest(10, 1).unwrap();
        let large = run_speedtest(40, 1).unwrap();
        let total = |rs: &[SpeedTestReport]| {
            rs.iter().map(|r| r.trace.total_cpu_ops() + r.trace.total_io_bytes()).sum::<u64>()
        };
        assert!(total(&large) > 2 * total(&small));
    }

    #[test]
    fn autocommit_inserts_are_io_heavier_per_row_than_txn() {
        let reports = run_speedtest(20, 3).unwrap();
        let per_row = |case: SpeedTestCase| {
            let r = reports.iter().find(|r| r.case == case).unwrap();
            (r.trace.total_syscalls() as f64) / r.rows as f64
        };
        assert!(
            per_row(SpeedTestCase::InsertAutocommit)
                > 2.0 * per_row(SpeedTestCase::InsertTransaction),
            "autocommit pays fsync per row"
        );
    }

    #[test]
    fn case_names_match_speedtest1_style() {
        assert!(SpeedTestCase::InsertTransaction.name().contains("transaction"));
        let names: Vec<_> = SpeedTestCase::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "names are unique");
    }

    #[test]
    #[should_panic(expected = "size must be positive")]
    fn zero_size_rejected() {
        SpeedTest::new(0, 1);
    }
}
