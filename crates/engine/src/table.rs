//! Tables: named collections of equal-length columns stored in heap
//! files, with per-column modification counters feeding staleness
//! tracking (the auto-update-stats deployment of Section 7: statistics
//! are recomputed when enough of a column has churned, not on a timer).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::Rng;

use samplehist_storage::{HeapFile, Layout, DEFAULT_PAGE_BYTES};

/// Per-column modification counters, shared by every clone of a
/// [`Table`] (an `Arc`, so the instance a mutator bumps is the instance
/// the refresh scheduler reads).
type ModCounters = Arc<[AtomicU64]>;

/// A handle on one column's modification counter: it outlives the
/// [`Table`] it came from and reads and bumps the same counter as every
/// clone of that table, without a name lookup.
#[derive(Debug, Clone)]
pub struct ModCounter {
    counters: ModCounters,
    index: usize,
}

impl ModCounter {
    /// Total modifications ever recorded against the column.
    pub fn get(&self) -> u64 {
        self.counters[self.index].load(Ordering::Relaxed)
    }

    /// Record `count` more modifications.
    pub fn add(&self, count: u64) {
        self.counters[self.index].fetch_add(count, Ordering::Relaxed);
    }
}

/// One column: a name plus its paged storage.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    file: HeapFile,
}

impl Column {
    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backing heap file.
    pub fn file(&self) -> &HeapFile {
        &self.file
    }
}

/// A relation with at least one column; all columns have the same row
/// count (each column is stored in its own file, one attribute per
/// record, the way a statistics subsystem sees the world).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<Column>,
    num_rows: u64,
    mods: ModCounters,
}

impl Table {
    /// Start building a table.
    pub fn builder(name: impl Into<String>) -> TableBuilder {
        TableBuilder { name: name.into(), columns: Vec::new(), num_rows: None }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn num_rows(&self) -> u64 {
        self.num_rows
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    fn column_index(&self, name: &str) -> usize {
        self.position(name).unwrap_or_else(|| panic!("no column {name:?} in table {:?}", self.name))
    }

    /// A handle on `column`'s modification counter, or `None` if the
    /// column does not exist.
    pub fn mod_counter(&self, column: &str) -> Option<ModCounter> {
        Some(ModCounter { counters: Arc::clone(&self.mods), index: self.position(column)? })
    }

    /// Record `count` inserts/updates/deletes against `column` since its
    /// statistics were last built. Counters are monotone and shared by
    /// every clone of this table, so a mutating workload thread and the
    /// refresh scheduler observe the same tally; the catalog snapshots
    /// the counter at ANALYZE time and staleness is the difference.
    ///
    /// # Panics
    /// If the column does not exist (a caller bug, like [`analyze`]'s
    /// unknown-column error — but mutation tracking has no error channel).
    ///
    /// [`analyze`]: crate::analyze
    pub fn record_modifications(&self, column: &str, count: u64) {
        self.mods[self.column_index(column)].fetch_add(count, Ordering::Relaxed);
    }

    /// Total modifications ever recorded against `column`.
    ///
    /// # Panics
    /// If the column does not exist.
    pub fn modifications(&self, column: &str) -> u64 {
        self.mods[self.column_index(column)].load(Ordering::Relaxed)
    }
}

/// Builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    columns: Vec<Column>,
    num_rows: Option<u64>,
}

impl TableBuilder {
    /// Add a column from raw values with an explicit blocking factor.
    ///
    /// # Panics
    /// If the row count disagrees with previously added columns, the
    /// column name repeats, or `values` is empty.
    pub fn column_with_blocking(
        mut self,
        name: impl Into<String>,
        values: Vec<i64>,
        tuples_per_page: usize,
        layout: Layout,
        rng: &mut impl Rng,
    ) -> Self {
        let name = name.into();
        assert!(self.columns.iter().all(|c| c.name != name), "duplicate column name {name:?}");
        let rows = values.len() as u64;
        match self.num_rows {
            None => self.num_rows = Some(rows),
            Some(existing) => {
                assert_eq!(existing, rows, "column {name:?} has {rows} rows, table has {existing}")
            }
        }
        let file = HeapFile::with_layout(values, tuples_per_page, layout, rng);
        self.columns.push(Column { name, file });
        self
    }

    /// Add a column with physical sizing: 8 KB pages of
    /// `record_bytes`-sized records (the paper's geometry).
    pub fn column(
        self,
        name: impl Into<String>,
        values: Vec<i64>,
        record_bytes: usize,
        layout: Layout,
        rng: &mut impl Rng,
    ) -> Self {
        let b = DEFAULT_PAGE_BYTES / record_bytes;
        self.column_with_blocking(name, values, b, layout, rng)
    }

    /// Finish.
    ///
    /// # Panics
    /// If no columns were added.
    pub fn build(self) -> Table {
        assert!(!self.columns.is_empty(), "a table needs at least one column");
        Table {
            name: self.name,
            num_rows: self.num_rows.expect("columns imply a row count"),
            mods: self.columns.iter().map(|_| AtomicU64::new(0)).collect(),
            columns: self.columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn build_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = Table::builder("orders")
            .column("order_id", (0..1000).collect(), 64, Layout::Random, &mut rng)
            .column("amount", (0..1000).map(|i| i % 50).collect(), 64, Layout::Random, &mut rng)
            .build();
        assert_eq!(t.name(), "orders");
        assert_eq!(t.num_rows(), 1000);
        assert_eq!(t.columns().len(), 2);
        assert!(t.column("amount").is_some());
        assert!(t.column("missing").is_none());
        assert_eq!(t.column("order_id").expect("exists").file().num_tuples(), 1000);
        assert_eq!(t.column("order_id").expect("exists").file().blocking_factor(), 128);
    }

    #[test]
    fn modification_counters_are_shared_across_clones() {
        let mut rng = StdRng::seed_from_u64(9);
        let t = Table::builder("t")
            .column_with_blocking("a", vec![1, 2, 3], 2, Layout::Random, &mut rng)
            .column_with_blocking("b", vec![4, 5, 6], 2, Layout::Random, &mut rng)
            .build();
        assert_eq!(t.modifications("a"), 0);
        let clone = t.clone();
        clone.record_modifications("a", 5);
        t.record_modifications("a", 2);
        t.record_modifications("b", 1);
        assert_eq!(t.modifications("a"), 7, "clones share one counter");
        assert_eq!(clone.modifications("b"), 1);

        let handle = clone.mod_counter("b").expect("column exists");
        handle.add(4);
        assert_eq!(handle.get(), 5);
        assert_eq!(t.modifications("b"), 5, "a handle bumps the shared counter");
        assert!(t.mod_counter("zzz").is_none());
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn modifications_on_unknown_column_panic() {
        let mut rng = StdRng::seed_from_u64(10);
        let t = Table::builder("t")
            .column_with_blocking("a", vec![1, 2, 3], 2, Layout::Random, &mut rng)
            .build();
        t.record_modifications("zzz", 1);
    }

    #[test]
    #[should_panic(expected = "has 5 rows, table has 3")]
    fn mismatched_row_counts_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = Table::builder("t")
            .column_with_blocking("a", vec![1, 2, 3], 10, Layout::Random, &mut rng)
            .column_with_blocking("b", vec![1, 2, 3, 4, 5], 10, Layout::Random, &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_names_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = Table::builder("t")
            .column_with_blocking("a", vec![1, 2, 3], 10, Layout::Random, &mut rng)
            .column_with_blocking("a", vec![4, 5, 6], 10, Layout::Random, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_table_rejected() {
        let _ = Table::builder("t").build();
    }
}
