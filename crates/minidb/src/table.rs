//! Tables: schema-checked rows over a B+tree, with secondary indexes.

use std::collections::HashMap;
use std::fmt;

use crate::btree::BTree;
use crate::value::{DbValue, IndexKey, Row};

/// Column type affinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integers (NULL allowed).
    Integer,
    /// 64-bit floats (NULL allowed; integers coerce).
    Real,
    /// Text (NULL allowed).
    Text,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Type affinity.
    pub ty: ColumnType,
}

impl Column {
    /// Creates a column.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Row arity does not match the schema.
    ArityMismatch {
        /// Columns the schema declares.
        expected: usize,
        /// Values the row supplied.
        got: usize,
    },
    /// A value's type does not match its column.
    TypeMismatch {
        /// Offending column name.
        column: String,
        /// The supplied value's type.
        got: &'static str,
    },
    /// Named column does not exist.
    NoSuchColumn(String),
    /// Named index does not exist.
    NoSuchIndex(String),
    /// An index with this name already exists.
    IndexExists(String),
    /// Rowid not present.
    NoSuchRow(i64),
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values, schema has {expected} columns")
            }
            TableError::TypeMismatch { column, got } => {
                write!(f, "column {column} cannot store a {got}")
            }
            TableError::NoSuchColumn(name) => write!(f, "no such column: {name}"),
            TableError::NoSuchIndex(name) => write!(f, "no such index: {name}"),
            TableError::IndexExists(name) => write!(f, "index already exists: {name}"),
            TableError::NoSuchRow(id) => write!(f, "no such rowid: {id}"),
        }
    }
}

impl std::error::Error for TableError {}

struct SecondaryIndex {
    column: usize,
    tree: BTree<IndexKey, ()>,
}

/// A table: rowid-keyed B+tree storage plus named secondary indexes.
///
/// # Example
///
/// ```
/// use confbench_minidb::{Column, ColumnType, DbValue, Table};
///
/// let mut t = Table::new("users", vec![
///     Column::new("name", ColumnType::Text),
///     Column::new("age", ColumnType::Integer),
/// ]);
/// let id = t.insert(vec!["ada".into(), 36i64.into()])?;
/// assert_eq!(t.get(id).unwrap()[0], DbValue::Text("ada".into()));
/// # Ok::<(), confbench_minidb::TableError>(())
/// ```
pub struct Table {
    name: String,
    columns: Vec<Column>,
    rows: BTree<i64, Row>,
    indexes: HashMap<String, SecondaryIndex>,
    next_rowid: i64,
    /// Bytes logically written to storage (insert/update payloads), for the
    /// database layer's I/O accounting.
    bytes_written: u64,
}

impl Table {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Table {
            name: name.into(),
            columns,
            rows: BTree::new(),
            indexes: HashMap::new(),
            next_rowid: 1,
            bytes_written: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes logically written since creation.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// B+tree nodes allocated across primary and secondary storage.
    pub fn nodes_allocated(&self) -> u64 {
        self.rows.nodes_allocated()
            + self.indexes.values().map(|i| i.tree.nodes_allocated()).sum::<u64>()
    }

    /// Index of a column by name.
    ///
    /// # Errors
    ///
    /// [`TableError::NoSuchColumn`].
    pub fn column_index(&self, name: &str) -> Result<usize, TableError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| TableError::NoSuchColumn(name.to_owned()))
    }

    /// Inserts a row, returning its rowid.
    ///
    /// # Errors
    ///
    /// Arity and type errors.
    pub fn insert(&mut self, row: Row) -> Result<i64, TableError> {
        self.validate(&row)?;
        let rowid = self.next_rowid;
        self.next_rowid += 1;
        self.bytes_written += row_bytes(&row);
        for index in self.indexes.values_mut() {
            index.tree.insert(IndexKey(row[index.column].clone(), rowid), ());
        }
        self.rows.insert(rowid, row);
        Ok(rowid)
    }

    /// Fetches a row by rowid.
    pub fn get(&self, rowid: i64) -> Option<&Row> {
        self.rows.get(&rowid)
    }

    /// Updates one column of a row.
    ///
    /// # Errors
    ///
    /// Row/column lookup and type errors.
    pub fn update(&mut self, rowid: i64, column: &str, value: DbValue) -> Result<(), TableError> {
        let col = self.column_index(column)?;
        self.check_type(col, &value)?;
        let old = {
            let row = self.rows.get_mut(&rowid).ok_or(TableError::NoSuchRow(rowid))?;

            std::mem::replace(&mut row[col], value.clone())
        };
        self.bytes_written += value.byte_len();
        for index in self.indexes.values_mut() {
            if index.column == col {
                index.tree.remove(&IndexKey(old.clone(), rowid));
                index.tree.insert(IndexKey(value.clone(), rowid), ());
            }
        }
        Ok(())
    }

    /// Deletes a row by rowid, returning it.
    ///
    /// # Errors
    ///
    /// [`TableError::NoSuchRow`].
    pub fn delete(&mut self, rowid: i64) -> Result<Row, TableError> {
        let row = self.rows.remove(&rowid).ok_or(TableError::NoSuchRow(rowid))?;
        for index in self.indexes.values_mut() {
            index.tree.remove(&IndexKey(row[index.column].clone(), rowid));
        }
        Ok(row)
    }

    /// Creates a named secondary index over `column`, populating it from
    /// existing rows.
    ///
    /// # Errors
    ///
    /// Duplicate index names and unknown columns.
    pub fn create_index(&mut self, index_name: &str, column: &str) -> Result<(), TableError> {
        if self.indexes.contains_key(index_name) {
            return Err(TableError::IndexExists(index_name.to_owned()));
        }
        let col = self.column_index(column)?;
        let mut tree = BTree::new();
        for (rowid, row) in self.rows.iter() {
            tree.insert(IndexKey(row[col].clone(), *rowid), ());
        }
        self.indexes.insert(index_name.to_owned(), SecondaryIndex { column: col, tree });
        Ok(())
    }

    /// Drops a named index.
    ///
    /// # Errors
    ///
    /// [`TableError::NoSuchIndex`].
    pub fn drop_index(&mut self, index_name: &str) -> Result<(), TableError> {
        self.indexes
            .remove(index_name)
            .map(|_| ())
            .ok_or_else(|| TableError::NoSuchIndex(index_name.to_owned()))
    }

    /// Rowids whose indexed `column` value lies in `[lo, hi)`, using the
    /// named index (an index range scan).
    ///
    /// # Errors
    ///
    /// [`TableError::NoSuchIndex`].
    pub fn index_range(
        &self,
        index_name: &str,
        lo: &DbValue,
        hi: &DbValue,
    ) -> Result<Vec<i64>, TableError> {
        let index = self
            .indexes
            .get(index_name)
            .ok_or_else(|| TableError::NoSuchIndex(index_name.to_owned()))?;
        let lo = IndexKey(lo.clone(), i64::MIN);
        let hi = IndexKey(hi.clone(), i64::MIN);
        Ok(index.tree.range(&lo, &hi).map(|(k, _)| k.1).collect())
    }

    /// Full scan: applies `f` to every `(rowid, row)` in rowid order.
    pub fn scan(&self, mut f: impl FnMut(i64, &Row)) {
        for (rowid, row) in self.rows.iter() {
            f(*rowid, row);
        }
    }

    /// Rowids matching a predicate, via full scan.
    pub fn scan_filter(&self, mut pred: impl FnMut(&Row) -> bool) -> Vec<i64> {
        let mut out = Vec::new();
        self.scan(|rowid, row| {
            if pred(row) {
                out.push(rowid);
            }
        });
        out
    }

    fn validate(&self, row: &Row) -> Result<(), TableError> {
        if row.len() != self.columns.len() {
            return Err(TableError::ArityMismatch { expected: self.columns.len(), got: row.len() });
        }
        for (i, value) in row.iter().enumerate() {
            self.check_type(i, value)?;
        }
        Ok(())
    }

    fn check_type(&self, col: usize, value: &DbValue) -> Result<(), TableError> {
        let ok = matches!(
            (self.columns[col].ty, value),
            (_, DbValue::Null)
                | (ColumnType::Integer, DbValue::Integer(_))
                | (ColumnType::Real, DbValue::Real(_))
                | (ColumnType::Real, DbValue::Integer(_))
                | (ColumnType::Text, DbValue::Text(_))
        );
        if ok {
            Ok(())
        } else {
            Err(TableError::TypeMismatch {
                column: self.columns[col].name.clone(),
                got: value.type_name(),
            })
        }
    }
}

fn row_bytes(row: &Row) -> u64 {
    row.iter().map(DbValue::byte_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("a", ColumnType::Integer),
                Column::new("b", ColumnType::Text),
                Column::new("c", ColumnType::Real),
            ],
        )
    }

    fn row(a: i64, b: &str, c: f64) -> Row {
        vec![a.into(), b.into(), c.into()]
    }

    #[test]
    fn insert_assigns_monotone_rowids() {
        let mut t = table();
        let r1 = t.insert(row(1, "x", 1.0)).unwrap();
        let r2 = t.insert(row(2, "y", 2.0)).unwrap();
        assert!(r2 > r1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn type_checking_enforced() {
        let mut t = table();
        let err = t.insert(vec!["oops".into(), "y".into(), 1.0.into()]).unwrap_err();
        assert!(matches!(err, TableError::TypeMismatch { .. }));
        let err = t.insert(vec![1i64.into()]).unwrap_err();
        assert!(matches!(err, TableError::ArityMismatch { expected: 3, got: 1 }));
        // NULL goes anywhere; integers coerce into real columns.
        t.insert(vec![DbValue::Null, DbValue::Null, DbValue::Integer(3)]).unwrap();
    }

    #[test]
    fn update_changes_value_and_index() {
        let mut t = table();
        let id = t.insert(row(10, "x", 0.5)).unwrap();
        t.create_index("idx_a", "a").unwrap();
        t.update(id, "a", 99i64.into()).unwrap();
        assert_eq!(t.get(id).unwrap()[0], DbValue::Integer(99));
        assert_eq!(
            t.index_range("idx_a", &10i64.into(), &11i64.into()).unwrap(),
            Vec::<i64>::new()
        );
        assert_eq!(t.index_range("idx_a", &99i64.into(), &100i64.into()).unwrap(), vec![id]);
    }

    #[test]
    fn delete_removes_from_indexes() {
        let mut t = table();
        t.create_index("idx_a", "a").unwrap();
        let id = t.insert(row(7, "x", 0.0)).unwrap();
        t.delete(id).unwrap();
        assert!(t.get(id).is_none());
        assert!(t.index_range("idx_a", &7i64.into(), &8i64.into()).unwrap().is_empty());
        assert!(matches!(t.delete(id), Err(TableError::NoSuchRow(_))));
    }

    #[test]
    fn index_created_after_rows_sees_them() {
        let mut t = table();
        for i in 0..50 {
            t.insert(row(i, "x", i as f64)).unwrap();
        }
        t.create_index("idx_a", "a").unwrap();
        let hits = t.index_range("idx_a", &10i64.into(), &20i64.into()).unwrap();
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn index_range_matches_scan_filter() {
        let mut t = table();
        for i in 0..200 {
            t.insert(row(i % 37, "x", 0.0)).unwrap();
        }
        t.create_index("idx_a", "a").unwrap();
        let mut via_index = t.index_range("idx_a", &5i64.into(), &12i64.into()).unwrap();
        let mut via_scan =
            t.scan_filter(|r| matches!(r[0], DbValue::Integer(v) if (5..12).contains(&v)));
        via_index.sort_unstable();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        t.create_index("i", "a").unwrap();
        assert!(matches!(t.create_index("i", "b"), Err(TableError::IndexExists(_))));
        t.drop_index("i").unwrap();
        assert!(matches!(t.drop_index("i"), Err(TableError::NoSuchIndex(_))));
    }

    #[test]
    fn bytes_written_accumulates() {
        let mut t = table();
        let before = t.bytes_written();
        t.insert(row(1, "hello", 2.0)).unwrap();
        assert!(t.bytes_written() > before + 16);
    }
}
