//! The database: named tables, transactions, and operation-trace
//! instrumentation.
//!
//! Every statement records the abstract operations a real embedded engine
//! performs — B+tree node traffic, page allocation for splits, journal
//! writes, and the fsync at each commit boundary — into a
//! [`confbench_types::OpTrace`] so a simulated VM can charge platform costs.
//! The fsync channel (a `FileWrite` syscall burst, journal I/O, and a
//! sleep/wake context switch) is what makes the DBMS stress test
//! syscall-heavy, the property behind the paper's CCA findings (§IV-C).

use std::collections::HashMap;
use std::fmt;

use confbench_types::{OpTrace, SyscallKind};

use crate::table::{Column, Table, TableError};
use crate::value::{DbValue, Row};

/// Errors from database-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Named table does not exist.
    NoSuchTable(String),
    /// A table with this name already exists.
    TableExists(String),
    /// Transaction state violation.
    TxnState(&'static str),
    /// Underlying table error.
    Table(TableError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(name) => write!(f, "no such table: {name}"),
            DbError::TableExists(name) => write!(f, "table already exists: {name}"),
            DbError::TxnState(msg) => write!(f, "transaction error: {msg}"),
            DbError::Table(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbError::Table(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TableError> for DbError {
    fn from(e: TableError) -> Self {
        DbError::Table(e)
    }
}

/// An embedded relational database.
///
/// # Example
///
/// ```
/// use confbench_minidb::{Column, ColumnType, Database, DbValue};
///
/// let mut db = Database::new();
/// db.create_table("kv", vec![
///     Column::new("k", ColumnType::Integer),
///     Column::new("v", ColumnType::Text),
/// ])?;
/// db.begin()?;
/// let id = db.insert("kv", vec![1i64.into(), "one".into()])?;
/// db.commit()?;
/// assert_eq!(db.table("kv")?.get(id).unwrap()[1], DbValue::Text("one".into()));
/// # Ok::<(), confbench_minidb::DbError>(())
/// ```
pub struct Database {
    tables: HashMap<String, Table>,
    trace: OpTrace,
    journal_bytes: u64,
    in_txn: bool,
    nodes_seen: u64,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

/// Modelled B+tree node size (one storage page per node).
const NODE_BYTES: u64 = 4096;

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database {
            tables: HashMap::new(),
            trace: OpTrace::new(),
            journal_bytes: 0,
            in_txn: false,
            nodes_seen: 0,
        }
    }

    /// Creates a table.
    ///
    /// # Errors
    ///
    /// [`DbError::TableExists`].
    pub fn create_table(&mut self, name: &str, columns: Vec<Column>) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        self.trace.syscall(SyscallKind::FileMeta, 2); // create + open
        self.trace.alloc(NODE_BYTES);
        self.tables.insert(name.to_owned(), Table::new(name, columns));
        Ok(())
    }

    /// Drops a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn drop_table(&mut self, name: &str) -> Result<(), DbError> {
        self.tables.remove(name).ok_or_else(|| DbError::NoSuchTable(name.to_owned()))?;
        self.trace.syscall(SyscallKind::FileMeta, 1);
        Ok(())
    }

    /// Read access to a table.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables.get(name).ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Starts a transaction.
    ///
    /// # Errors
    ///
    /// [`DbError::TxnState`] when one is already open.
    pub fn begin(&mut self) -> Result<(), DbError> {
        if self.in_txn {
            return Err(DbError::TxnState("transaction already open"));
        }
        self.in_txn = true;
        self.trace.syscall(SyscallKind::FileMeta, 1); // journal open
        Ok(())
    }

    /// Commits the open transaction: journal flush + fsync.
    ///
    /// # Errors
    ///
    /// [`DbError::TxnState`] without an open transaction.
    pub fn commit(&mut self) -> Result<(), DbError> {
        if !self.in_txn {
            return Err(DbError::TxnState("no open transaction"));
        }
        self.fsync();
        self.journal_bytes = 0;
        self.in_txn = false;
        Ok(())
    }

    /// Inserts a row, auto-committing (with fsync) outside a transaction.
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<i64, DbError> {
        let row_len: u64 = row.iter().map(DbValue::byte_len).sum();
        let rowid = self.table_mut(table)?.insert(row)?;
        self.after_write(row_len);
        Ok(rowid)
    }

    /// Updates one column of one row (auto-commit semantics as
    /// [`Database::insert`]).
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn update(
        &mut self,
        table: &str,
        rowid: i64,
        column: &str,
        value: DbValue,
    ) -> Result<(), DbError> {
        let bytes = value.byte_len();
        self.table_mut(table)?.update(rowid, column, value)?;
        self.after_write(bytes);
        Ok(())
    }

    /// Deletes one row (auto-commit semantics as [`Database::insert`]).
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn delete(&mut self, table: &str, rowid: i64) -> Result<(), DbError> {
        let row = self.table_mut(table)?.delete(rowid)?;
        self.after_write(row.iter().map(DbValue::byte_len).sum());
        Ok(())
    }

    /// Point lookup, charging read traffic.
    ///
    /// # Errors
    ///
    /// [`DbError::NoSuchTable`].
    pub fn select(&mut self, table: &str, rowid: i64) -> Result<Option<Row>, DbError> {
        let row = self.table(table)?.get(rowid).cloned();
        self.trace.cpu(400); // descent + comparisons
        self.trace.mem_read(3 * 64); // ~3 node touches
        self.trace.syscall(SyscallKind::FileRead, 1); // page-cache-missing pread
        Ok(row)
    }

    /// Creates an index, charging the build scan.
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn create_index(&mut self, table: &str, index: &str, column: &str) -> Result<(), DbError> {
        let rows;
        {
            let t = self.table_mut(table)?;
            t.create_index(index, column)?;
            rows = t.len() as u64;
        }
        self.trace.cpu(600 * rows);
        self.trace.mem_read(rows * 80);
        self.trace.alloc(rows / 20 * NODE_BYTES);
        self.fsync();
        Ok(())
    }

    /// Drops an index.
    ///
    /// # Errors
    ///
    /// Table errors.
    pub fn drop_index(&mut self, table: &str, index: &str) -> Result<(), DbError> {
        self.table_mut(table)?.drop_index(index)?;
        self.trace.syscall(SyscallKind::FileMeta, 1);
        Ok(())
    }

    /// The accumulated operation trace, draining it.
    pub fn take_trace(&mut self) -> OpTrace {
        std::mem::replace(&mut self.trace, OpTrace::new())
    }

    /// Read-only view of the accumulated trace.
    pub fn trace(&self) -> &OpTrace {
        &self.trace
    }

    /// Records read traffic for query-layer scans (`rows` rows of
    /// `bytes_per_row` average size).
    pub fn charge_scan(&mut self, rows: u64, bytes_per_row: u64) {
        self.trace.cpu(rows * 120);
        self.trace.mem_read(rows * bytes_per_row.max(16));
        // Sequential preads as the scan walks file pages (readahead
        // batches them, but each batch is still a syscall).
        self.trace.syscall(SyscallKind::FileRead, rows / 48 + 1);
    }

    fn table_mut(&mut self, name: &str) -> Result<&mut Table, DbError> {
        self.tables.get_mut(name).ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    fn after_write(&mut self, payload_bytes: u64) {
        // B+tree write path: descent, node dirtying, possible splits.
        self.trace.cpu(900 + payload_bytes * 4);
        self.trace.mem_write(4 * 64 + payload_bytes);
        let nodes_now: u64 = self.tables.values().map(Table::nodes_allocated).sum();
        if nodes_now > self.nodes_seen {
            self.trace.alloc((nodes_now - self.nodes_seen) * NODE_BYTES);
            self.nodes_seen = nodes_now;
        }
        self.journal_bytes += payload_bytes + 24;
        if !self.in_txn {
            // Auto-commit: every statement pays the journal + fsync price,
            // exactly why speedtest1 runs its insert batches both ways.
            self.fsync();
            self.journal_bytes = 0;
        }
    }

    fn fsync(&mut self) {
        let bytes = self.journal_bytes.max(512);
        self.trace.syscall(SyscallKind::FileWrite, 4); // journal hdr+payload, db page, superblock
        self.trace.io_write(bytes);
        self.trace.syscall(SyscallKind::FileMeta, 2); // fsync barriers
                                                      // Sleep until the storage device acknowledges the flush: host-side
                                                      // latency, which is what makes real DBMS overheads tiny on
                                                      // hardware TEEs (the exits are noise next to the device wait).
        self.trace.device_wait(40_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnType;
    use confbench_types::Op;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            "t",
            vec![Column::new("a", ColumnType::Integer), Column::new("b", ColumnType::Text)],
        )
        .unwrap();
        db
    }

    #[test]
    fn create_duplicate_table_rejected() {
        let mut d = db();
        assert!(matches!(
            d.create_table("t", vec![Column::new("x", ColumnType::Integer)]),
            Err(DbError::TableExists(_))
        ));
        d.drop_table("t").unwrap();
        assert!(matches!(d.drop_table("t"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn txn_commit_keeps_rows() {
        let mut d = db();
        d.begin().unwrap();
        let id = d.insert("t", vec![1i64.into(), "x".into()]).unwrap();
        d.commit().unwrap();
        assert!(d.table("t").unwrap().get(id).is_some());
    }

    #[test]
    fn nested_begin_rejected() {
        let mut d = db();
        d.begin().unwrap();
        assert!(matches!(d.begin(), Err(DbError::TxnState(_))));
        d.commit().unwrap();
        assert!(matches!(d.commit(), Err(DbError::TxnState(_))));
    }

    #[test]
    fn autocommit_fsyncs_per_statement_txn_batches() {
        let count_ctx =
            |d: &Database| d.trace().iter().filter(|op| matches!(op, Op::DeviceWait(_))).count();
        let mut auto = db();
        for i in 0..10 {
            auto.insert("t", vec![i.into(), "x".into()]).unwrap();
        }
        let mut batched = db();
        batched.begin().unwrap();
        for i in 0..10 {
            batched.insert("t", vec![i.into(), "x".into()]).unwrap();
        }
        batched.commit().unwrap();
        assert!(count_ctx(&auto) >= 10, "auto-commit fsyncs per statement: {}", count_ctx(&auto));
        assert!(count_ctx(&batched) <= 2, "txn fsyncs once: {}", count_ctx(&batched));
    }

    #[test]
    fn trace_accumulates_and_drains() {
        let mut d = db();
        d.insert("t", vec![1i64.into(), "x".into()]).unwrap();
        assert!(!d.trace().is_empty());
        let taken = d.take_trace();
        assert!(!taken.is_empty());
        assert!(d.trace().is_empty());
    }

    #[test]
    fn select_returns_row_and_charges_reads() {
        let mut d = db();
        let id = d.insert("t", vec![5i64.into(), "hi".into()]).unwrap();
        let before = d.trace().len();
        let row = d.select("t", id).unwrap().unwrap();
        assert_eq!(row[0], DbValue::Integer(5));
        assert!(d.trace().len() > before);
        assert_eq!(d.select("t", 999).unwrap(), None);
    }

    #[test]
    fn index_lifecycle_via_database() {
        let mut d = db();
        for i in 0..30 {
            d.insert("t", vec![i.into(), "x".into()]).unwrap();
        }
        d.create_index("t", "idx", "a").unwrap();
        let hits = d.table("t").unwrap().index_range("idx", &5i64.into(), &10i64.into()).unwrap();
        assert_eq!(hits.len(), 5);
        d.drop_index("t", "idx").unwrap();
        assert!(d.table("t").unwrap().index_range("idx", &0i64.into(), &1i64.into()).is_err());
    }
}
