//! The statistics catalog: where `ANALYZE` output lives between queries.
//!
//! Two containers share one key scheme:
//!
//! * [`Catalog`] — the original single-threaded map, for tools and tests
//!   that own their statistics outright.
//! * [`StatsCatalog`] — the concurrent service catalog: lock-striped
//!   stripes of `RwLock<FxHashMap<…, Slot>>`, with epoch-stamped
//!   `Arc`-swap snapshots so estimation reads never block on an
//!   in-flight ANALYZE (the expensive build happens entirely outside any
//!   lock; the write lock is held only to swap a pointer). A slot also
//!   holds the column's registration (access count, modification
//!   counter, row count), so a service read is one stripe lookup.
//!   Keys hash through the unkeyed [`FxHasher`](crate::hash::FxHasher):
//!   entries are only ever inserted by [`StatsCatalog::install`] and
//!   [`StatsCatalog::register`], so a wire client's names can probe but
//!   never populate a stripe.

use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use rand::Rng;

use crate::accuracy::AccuracyLedger;
use crate::analyze::{analyze, AnalyzeError, AnalyzeOptions};
use crate::hash::{FxBuildHasher, FxHashMap};
use crate::stats::ColumnStatistics;
use crate::table::{ModCounter, Table};

/// Owned map key: one (table, column) pair.
///
/// Lookups go through a borrowed `(&str, &str)` view (the private
/// `KeyQuery` trait object) so `get("t", "c")` never allocates two
/// `String`s just to hash them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnKey {
    /// Owning table.
    pub table: String,
    /// Column name.
    pub column: String,
}

/// Borrowed view of a (table, column) key. Implemented by [`ColumnKey`]
/// and by `(&str, &str)`, with `Hash`/`Eq` defined on the trait object so
/// both hash identically — the standard borrowed-pair-lookup idiom.
trait KeyQuery {
    fn table(&self) -> &str;
    fn column(&self) -> &str;
}

impl KeyQuery for ColumnKey {
    fn table(&self) -> &str {
        &self.table
    }
    fn column(&self) -> &str {
        &self.column
    }
}

impl KeyQuery for (&str, &str) {
    fn table(&self) -> &str {
        self.0
    }
    fn column(&self) -> &str {
        self.1
    }
}

impl Hash for dyn KeyQuery + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.table().hash(state);
        self.column().hash(state);
    }
}

impl PartialEq for dyn KeyQuery + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.table() == other.table() && self.column() == other.column()
    }
}

impl Eq for dyn KeyQuery + '_ {}

// `HashMap` requires key and query to hash identically; route the owned
// key's `Hash` through the same trait-object impl the query uses.
impl Hash for ColumnKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyQuery).hash(state)
    }
}

impl<'a> Borrow<dyn KeyQuery + 'a> for ColumnKey {
    fn borrow(&self) -> &(dyn KeyQuery + 'a) {
        self
    }
}

/// An in-memory `sys.stats`: one [`ColumnStatistics`] per (table, column).
#[derive(Debug, Default)]
pub struct Catalog {
    entries: HashMap<ColumnKey, ColumnStatistics>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run [`analyze`] and store the result, replacing any previous
    /// statistics for the column. Returns a reference to the stored entry
    /// (from the insertion site — the map is hashed once, not three
    /// times).
    pub fn analyze_and_store(
        &mut self,
        table: &Table,
        column: &str,
        options: &AnalyzeOptions,
        rng: &mut impl Rng,
    ) -> Result<&ColumnStatistics, AnalyzeError> {
        let stats = analyze(table, column, options, rng)?;
        let key = ColumnKey { table: stats.table.clone(), column: stats.column.clone() };
        Ok(match self.entries.entry(key) {
            Entry::Occupied(mut slot) => {
                slot.insert(stats);
                slot.into_mut()
            }
            Entry::Vacant(slot) => slot.insert(stats),
        })
    }

    /// Fetch statistics, if present. Allocation-free: the borrowed pair
    /// hashes directly against the owned keys.
    pub fn get(&self, table: &str, column: &str) -> Option<&ColumnStatistics> {
        self.entries.get(&(table, column) as &dyn KeyQuery)
    }

    /// Drop statistics for one column (e.g. after heavy updates). Returns
    /// whether anything was removed.
    pub fn invalidate(&mut self, table: &str, column: &str) -> bool {
        self.entries.remove(&(table, column) as &dyn KeyQuery).is_some()
    }

    /// Number of stored statistics objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate all stored statistics.
    pub fn iter(&self) -> impl Iterator<Item = &ColumnStatistics> {
        self.entries.values()
    }
}

/// One epoch-stamped statistics snapshot inside [`StatsCatalog`].
///
/// Immutable once installed (readers hold it by `Arc`, so a concurrent
/// refresh can never mutate what an estimation call is reading — it
/// installs a *new* snapshot and bumps the epoch). The only interior
/// mutability is the probe watermark, which feeds staleness tracking and
/// never affects estimates.
#[derive(Debug)]
pub struct VersionedStats {
    /// The statistics themselves.
    pub stats: ColumnStatistics,
    /// Per-column version, strictly increasing across installs: a reader
    /// that once saw epoch `e` for a column will never be handed `< e`
    /// afterwards (pinned by the service torture test).
    pub epoch: u64,
    /// Clock reading (service ticks) when the snapshot was installed.
    pub built_at: u64,
    /// The column's modification counter at build time; staleness is the
    /// table counter minus this.
    pub mods_at_build: u64,
    /// Highest modification count at which a cross-validation probe
    /// re-certified this snapshot (starts at `mods_at_build`; a passed
    /// probe advances it so staleness re-arms instead of re-probing every
    /// tick).
    mods_validated: AtomicU64,
    /// Estimator-accuracy feedback for this epoch: execution records
    /// (predicted, actual) pairs here and the service watches the
    /// q-error quantiles for rot. Starts empty on every install, so a
    /// refresh automatically resets the feedback loop.
    pub accuracy: AccuracyLedger,
}

impl VersionedStats {
    /// The probe watermark: modifications already covered by the build or
    /// a passed probe.
    pub fn mods_validated(&self) -> u64 {
        self.mods_validated.load(Ordering::Relaxed)
    }

    /// Advance the probe watermark after a passed cross-validation probe
    /// (monotone; concurrent probes keep the largest value).
    pub fn record_probe_pass(&self, mods_now: u64) {
        self.mods_validated.fetch_max(mods_now, Ordering::Relaxed);
    }
}

/// How many lock stripes [`StatsCatalog::new`] defaults to.
pub const DEFAULT_STRIPES: usize = 16;

/// The concurrent statistics catalog: a sharded, lock-striped map from
/// (table, column) to a slot holding the current [`Arc<VersionedStats>`]
/// and, once [`register`](Self::register)ed, the column's access count,
/// modification counter and row count.
///
/// **Snapshot contract.** Readers take a stripe's read lock only long
/// enough to clone an `Arc`; the returned snapshot is immutable, so an
/// estimation call never observes a partially-written entry. Writers
/// build statistics entirely outside the lock ([`analyze`] can take
/// milliseconds to seconds) and hold the write lock only to swap the
/// `Arc` and bump the per-column epoch — readers on *other* columns in
/// the same stripe block for that pointer swap at most.
///
/// **Epoch contract.** Each install stores `epoch = previous + 1`
/// (starting at 1), under the stripe write lock, so per-column epochs are
/// strictly increasing and a reader can assert freshness monotonicity.
///
/// **Registration contract.** [`read`](Self::read) and
/// [`record_modifications`](Self::record_modifications) answer only for
/// registered columns; [`get`](Self::get), [`install`](Self::install),
/// [`invalidate`](Self::invalidate), [`len`](Self::len) and
/// [`snapshot`](Self::snapshot) see snapshots only and work the same
/// with or without registrations.
#[derive(Debug)]
pub struct StatsCatalog {
    stripes: Box<[Stripe]>,
    /// Stripe-count mask (stripe count is a power of two).
    mask: usize,
}

/// One lock stripe of the concurrent catalog.
type Stripe = RwLock<FxHashMap<ColumnKey, Slot>>;

/// One column's entry: its snapshot, its registration, or both (a slot
/// with neither is removed).
#[derive(Debug, Default)]
struct Slot {
    snapshot: Option<Arc<VersionedStats>>,
    registration: Option<Registration>,
}

/// What [`StatsCatalog::register`] records for a column of a live table.
#[derive(Debug)]
struct Registration {
    /// Reads since registration — the "access frequency" half of refresh
    /// priority.
    access: AtomicU64,
    /// The table's modification counter for this column.
    mods: ModCounter,
    /// The table's row count.
    num_rows: u64,
}

/// What one [`StatsCatalog::read`] of a registered column sees.
#[derive(Debug, Clone)]
pub struct ColumnRead {
    /// The current snapshot, if statistics have been installed.
    pub snapshot: Option<Arc<VersionedStats>>,
    /// Reads of the column since its table was registered, this one
    /// included.
    pub accesses: u64,
    /// Total modifications recorded against the column.
    pub modifications: u64,
    /// The registered table's row count.
    pub num_rows: u64,
}

impl Default for StatsCatalog {
    fn default() -> Self {
        Self::new(DEFAULT_STRIPES)
    }
}

impl StatsCatalog {
    /// A catalog with `stripes` lock stripes (rounded up to a power of
    /// two, at least 1).
    pub fn new(stripes: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        Self { stripes: (0..stripes).map(|_| RwLock::default()).collect(), mask: stripes - 1 }
    }

    /// Number of lock stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, table: &str, column: &str) -> &Stripe {
        // The hasher is unkeyed, so stripe assignment is stable across
        // threads and runs. The stripe comes from bits 32.. of the hash:
        // the stripe's map indexes buckets by the low bits and tags them
        // with the top seven, so drawing the stripe from either would
        // cluster every key of one stripe into a few of its buckets.
        let hash = FxBuildHasher::default().hash_one(&(table, column) as &dyn KeyQuery);
        &self.stripes[(hash >> 32) as usize & self.mask]
    }

    /// Fetch the current snapshot for a column, if any. Never blocks on
    /// an in-flight ANALYZE; only on a concurrent pointer swap in the same
    /// stripe.
    pub fn get(&self, table: &str, column: &str) -> Option<Arc<VersionedStats>> {
        let stripe = self.stripe_of(table, column).read().expect("stripe lock");
        stripe.get(&(table, column) as &dyn KeyQuery)?.snapshot.clone()
    }

    /// Register every column of `table`, replacing an earlier registration
    /// of a table with the same name: access counts restart at 0 and reads
    /// follow the new table's modification counters and row count. A
    /// column the new table lacks is unregistered, but its snapshot stays.
    pub fn register(&self, table: &Table) {
        let name = table.name();
        for stripe in self.stripes.iter() {
            stripe.write().expect("stripe lock").retain(|key, slot| {
                if key.table == name && table.column(&key.column).is_none() {
                    slot.registration = None;
                }
                slot.snapshot.is_some() || slot.registration.is_some()
            });
        }
        for column in table.columns() {
            let registration = Registration {
                access: AtomicU64::new(0),
                mods: table.mod_counter(column.name()).expect("the table's own column"),
                num_rows: table.num_rows(),
            };
            let key = ColumnKey { table: name.to_string(), column: column.name().to_string() };
            let mut stripe = self.stripe_of(name, column.name()).write().expect("stripe lock");
            stripe.entry(key).or_default().registration = Some(registration);
        }
    }

    /// One read of a registered column: bump its access count and return
    /// its snapshot, modification count and row count, all under one
    /// stripe read lock. `None` if the column is not registered.
    pub fn read(&self, table: &str, column: &str) -> Option<ColumnRead> {
        let stripe = self.stripe_of(table, column).read().expect("stripe lock");
        let slot = stripe.get(&(table, column) as &dyn KeyQuery)?;
        let registration = slot.registration.as_ref()?;
        Some(ColumnRead {
            snapshot: slot.snapshot.clone(),
            accesses: registration.access.fetch_add(1, Ordering::Relaxed) + 1,
            modifications: registration.mods.get(),
            num_rows: registration.num_rows,
        })
    }

    /// Record `count` modifications against a registered column. Returns
    /// `false` if the column is not registered.
    pub fn record_modifications(&self, table: &str, column: &str, count: u64) -> bool {
        let stripe = self.stripe_of(table, column).read().expect("stripe lock");
        match stripe.get(&(table, column) as &dyn KeyQuery).and_then(|s| s.registration.as_ref()) {
            Some(registration) => {
                registration.mods.add(count);
                true
            }
            None => false,
        }
    }

    /// Install freshly built statistics, returning the new snapshot. The
    /// epoch is the previous snapshot's epoch plus one (1 for a first
    /// install).
    pub fn install(
        &self,
        stats: ColumnStatistics,
        mods_at_build: u64,
        built_at: u64,
    ) -> Arc<VersionedStats> {
        // Force-build the serve-time index before taking the stripe
        // lock: readers of the published snapshot get the fast path
        // without ever paying construction, and the write lock stays
        // pointer-swap cheap. The cell rides along with the move into
        // the Arc.
        stats.index();
        let key = ColumnKey { table: stats.table.clone(), column: stats.column.clone() };
        let mut stripe = self.stripe_of(&key.table, &key.column).write().expect("stripe lock");
        let slot = stripe.entry(key).or_default();
        let epoch = slot.snapshot.as_ref().map_or(0, |prev| prev.epoch) + 1;
        let snapshot = Arc::new(VersionedStats {
            stats,
            epoch,
            built_at,
            mods_at_build,
            mods_validated: AtomicU64::new(mods_at_build),
            accuracy: AccuracyLedger::new(),
        });
        slot.snapshot = Some(Arc::clone(&snapshot));
        snapshot
    }

    /// Run [`analyze`] (outside any lock) and install the result.
    ///
    /// The modification watermark is read *before* the scan starts, so
    /// churn arriving while ANALYZE runs still counts as staleness against
    /// the new snapshot — the conservative reading.
    pub fn analyze_and_store(
        &self,
        table: &Table,
        column: &str,
        options: &AnalyzeOptions,
        rng: &mut impl Rng,
        built_at: u64,
    ) -> Result<Arc<VersionedStats>, AnalyzeError> {
        let mods_at_build =
            if table.column(column).is_some() { table.modifications(column) } else { 0 };
        let stats = analyze(table, column, options, rng)?;
        Ok(self.install(stats, mods_at_build, built_at))
    }

    /// Drop a column's statistics, keeping its registration. Returns
    /// whether anything was removed.
    pub fn invalidate(&self, table: &str, column: &str) -> bool {
        let mut stripe = self.stripe_of(table, column).write().expect("stripe lock");
        let key = &(table, column) as &dyn KeyQuery;
        let Some(slot) = stripe.get_mut(key) else {
            return false;
        };
        let removed = slot.snapshot.take().is_some();
        if slot.registration.is_none() {
            stripe.remove(key);
        }
        removed
    }

    /// Number of stored snapshots (consistent per stripe, not globally —
    /// concurrent installs may land between stripe reads).
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.read().expect("stripe lock").values().filter(|s| s.snapshot.is_some()).count()
            })
            .sum()
    }

    /// Whether the catalog holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every current snapshot, sorted by (table, column) so dumps are
    /// deterministic whatever the stripe layout.
    pub fn snapshot(&self) -> Vec<Arc<VersionedStats>> {
        let mut all: Vec<Arc<VersionedStats>> = self
            .stripes
            .iter()
            .flat_map(|s| {
                let stripe = s.read().expect("stripe lock");
                stripe.values().filter_map(|s| s.snapshot.clone()).collect::<Vec<_>>()
            })
            .collect();
        all.sort_by(|a, b| {
            (a.stats.table.as_str(), a.stats.column.as_str())
                .cmp(&(b.stats.table.as_str(), b.stats.column.as_str()))
        });
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use samplehist_storage::Layout;

    fn demo_table(seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        Table::builder("t")
            .column_with_blocking("a", (0..5000).collect(), 50, Layout::Random, &mut rng)
            .column_with_blocking(
                "b",
                (0..5000).map(|i| i / 10).collect(),
                50,
                Layout::Random,
                &mut rng,
            )
            .build()
    }

    #[test]
    fn store_get_invalidate() {
        let t = demo_table(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut cat = Catalog::new();
        assert!(cat.is_empty());

        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng)
            .expect("column exists");
        cat.analyze_and_store(&t, "b", &AnalyzeOptions::full_scan(10), &mut rng)
            .expect("column exists");
        assert_eq!(cat.len(), 2);
        assert!(cat.get("t", "a").is_some());
        assert!(cat.get("t", "missing").is_none());
        assert_eq!(cat.get("t", "b").expect("stored").distinct_estimate, 500.0);

        assert!(cat.invalidate("t", "a"));
        assert!(!cat.invalidate("t", "a"), "already gone");
        assert_eq!(cat.len(), 1);
    }

    #[test]
    fn restore_replaces() {
        let t = demo_table(3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cat = Catalog::new();
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng).expect("exists");
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(25), &mut rng).expect("exists");
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.get("t", "a").expect("stored").histogram.num_buckets(), 25);
    }

    #[test]
    fn analyze_errors_do_not_pollute() {
        let t = demo_table(5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut cat = Catalog::new();
        let err = cat.analyze_and_store(&t, "zzz", &AnalyzeOptions::full_scan(10), &mut rng);
        assert!(err.is_err());
        assert!(cat.is_empty());
    }

    #[test]
    fn borrowed_and_owned_keys_hash_identically() {
        // The Borrow contract: ColumnKey and (&str, &str) must collide on
        // the same map slot. Exercised indirectly by get(), but pin the
        // hash equality itself so a refactor cannot silently split them.
        let owned = ColumnKey { table: "orders".into(), column: "amount".into() };
        let query = &("orders", "amount") as &dyn KeyQuery;
        let fx = FxBuildHasher::default();
        assert_eq!(fx.hash_one(&owned), fx.hash_one(query));
        let sip = std::collections::hash_map::RandomState::new();
        assert_eq!(sip.hash_one(&owned), sip.hash_one(query));
        let borrowed: &dyn KeyQuery = owned.borrow();
        assert!(borrowed == &("orders", "amount") as &dyn KeyQuery);
    }

    #[test]
    fn stats_catalog_epochs_increase_per_column() {
        let t = demo_table(7);
        let mut rng = StdRng::seed_from_u64(8);
        let cat = StatsCatalog::new(4);
        assert!(cat.is_empty());
        let s1 = cat
            .analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 100)
            .expect("exists");
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.built_at, 100);
        let s2 = cat
            .analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 200)
            .expect("exists");
        assert_eq!(s2.epoch, 2);
        let sb = cat
            .analyze_and_store(&t, "b", &AnalyzeOptions::full_scan(10), &mut rng, 300)
            .expect("exists");
        assert_eq!(sb.epoch, 1, "epochs are per column");
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.get("t", "a").expect("stored").epoch, 2);

        // The old snapshot is still intact for readers that hold it.
        assert_eq!(s1.stats.num_rows, 5000);
        assert!(cat.invalidate("t", "b"));
        assert!(cat.get("t", "b").is_none());
    }

    #[test]
    fn install_prebuilds_the_serve_time_index() {
        let t = demo_table(20);
        let mut rng = StdRng::seed_from_u64(21);
        let cat = StatsCatalog::default();
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        let snap = cat.get("t", "a").expect("stored");
        assert!(
            snap.stats.index.is_built(),
            "readers must never pay index construction after install"
        );
    }

    #[test]
    fn stats_catalog_tracks_modification_watermarks() {
        let t = demo_table(9);
        let mut rng = StdRng::seed_from_u64(10);
        let cat = StatsCatalog::default();
        t.record_modifications("a", 40);
        let s = cat
            .analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        assert_eq!(s.mods_at_build, 40);
        assert_eq!(s.mods_validated(), 40);
        t.record_modifications("a", 25);
        assert_eq!(t.modifications("a") - s.mods_validated(), 25, "staleness since build");
        s.record_probe_pass(65);
        assert_eq!(s.mods_validated(), 65);
        s.record_probe_pass(50);
        assert_eq!(s.mods_validated(), 65, "watermark is monotone");
    }

    #[test]
    fn stats_catalog_snapshot_is_sorted_and_stripe_count_rounds() {
        let cat = StatsCatalog::new(3);
        assert_eq!(cat.num_stripes(), 4);
        let t = demo_table(11);
        let mut rng = StdRng::seed_from_u64(12);
        cat.analyze_and_store(&t, "b", &AnalyzeOptions::full_scan(5), &mut rng, 1).expect("exists");
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(5), &mut rng, 2).expect("exists");
        let dump = cat.snapshot();
        let names: Vec<&str> = dump.iter().map(|s| s.stats.column.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn registered_reads_count_accesses_and_follow_the_table() {
        let t = demo_table(30);
        let cat = StatsCatalog::new(4);
        cat.register(&t);
        let first = cat.read("t", "a").expect("registered");
        assert!(first.snapshot.is_none(), "registered, nothing installed yet");
        assert_eq!((first.accesses, first.modifications, first.num_rows), (1, 0, 5000));
        assert!(cat.read("t", "zzz").is_none() && cat.read("u", "a").is_none(), "unknown names");

        assert!(cat.record_modifications("t", "a", 7));
        assert!(!cat.record_modifications("t", "zzz", 7));
        assert_eq!(t.modifications("a"), 7, "the slot bumps the table's own counter");
        t.record_modifications("a", 3);
        let mut rng = StdRng::seed_from_u64(31);
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        let read = cat.read("t", "a").expect("registered");
        assert_eq!(read.snapshot.expect("installed").epoch, 1);
        assert_eq!((read.accesses, read.modifications), (2, 10));
    }

    #[test]
    fn invalidate_keeps_the_registration() {
        let t = demo_table(32);
        let cat = StatsCatalog::default();
        cat.register(&t);
        let mut rng = StdRng::seed_from_u64(33);
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        assert!(cat.invalidate("t", "a"));
        assert!(!cat.invalidate("t", "a"), "already gone");
        assert!(!cat.invalidate("t", "b"), "registered but never installed");
        assert!(cat.get("t", "a").is_none());
        let read = cat.read("t", "a").expect("still registered");
        assert!(read.snapshot.is_none(), "the next read is a miss, not an unknown name");
        let again = cat
            .analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 2)
            .expect("exists");
        assert_eq!(again.epoch, 1, "invalidation forgets the epoch, as before");
    }

    #[test]
    fn len_and_snapshot_ignore_registration_only_slots() {
        let t = demo_table(34);
        let cat = StatsCatalog::new(2);
        cat.register(&t);
        assert_eq!(cat.len(), 0);
        assert!(cat.is_empty() && cat.snapshot().is_empty());
        let mut rng = StdRng::seed_from_u64(35);
        cat.analyze_and_store(&t, "b", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        assert_eq!(cat.len(), 1);
        let dump = cat.snapshot();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].stats.column, "b");
    }

    #[test]
    fn unregistered_catalog_serves_get_and_install_only() {
        let t = demo_table(36);
        let cat = StatsCatalog::default();
        let mut rng = StdRng::seed_from_u64(37);
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        assert_eq!(cat.get("t", "a").expect("installed").epoch, 1);
        assert!(cat.read("t", "a").is_none(), "installed but never registered");
        assert!(!cat.record_modifications("t", "a", 1));
        assert!(cat.invalidate("t", "a"));
        assert!(cat.is_empty());
    }

    #[test]
    fn reregistration_resets_access_and_unregisters_dropped_columns() {
        let t = demo_table(38);
        let cat = StatsCatalog::default();
        cat.register(&t);
        let mut rng = StdRng::seed_from_u64(39);
        cat.analyze_and_store(&t, "b", &AnalyzeOptions::full_scan(10), &mut rng, 1)
            .expect("exists");
        for _ in 0..3 {
            cat.read("t", "a").expect("registered");
        }
        t.record_modifications("a", 100);

        let narrower = Table::builder("t")
            .column_with_blocking("a", (0..300).collect(), 50, Layout::Random, &mut rng)
            .build();
        cat.register(&narrower);
        let read = cat.read("t", "a").expect("still registered");
        assert_eq!((read.accesses, read.modifications, read.num_rows), (1, 0, 300));
        assert!(cat.read("t", "b").is_none(), "dropped column is an unknown name");
        assert!(cat.get("t", "b").is_some(), "its snapshot stays");
        assert_eq!(cat.len(), 1);
        t.record_modifications("a", 50);
        assert_eq!(cat.read("t", "a").expect("registered").modifications, 0);

        // Registering the wider table again restores the column, snapshot
        // and all.
        cat.register(&t);
        let back = cat.read("t", "b").expect("registered again");
        assert_eq!(back.snapshot.expect("kept").epoch, 1);
        assert_eq!(back.accesses, 1);
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots() {
        // 4 readers hammer get() while a writer reinstalls; every observed
        // snapshot must be internally consistent and epochs monotone.
        let t = demo_table(13);
        let cat = StatsCatalog::new(2);
        let mut rng = StdRng::seed_from_u64(14);
        cat.analyze_and_store(&t, "a", &AnalyzeOptions::full_scan(10), &mut rng, 0)
            .expect("exists");
        std::thread::scope(|scope| {
            let cat = &cat;
            let t = &t;
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut last_epoch = 0;
                    for _ in 0..500 {
                        let s = cat.get("t", "a").expect("always present");
                        assert!(s.epoch >= last_epoch, "stale epoch read");
                        last_epoch = s.epoch;
                        assert_eq!(s.stats.table, "t");
                        assert_eq!(s.stats.histogram.total(), 5000);
                    }
                });
            }
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(15);
                for tick in 0..20 {
                    cat.analyze_and_store(t, "a", &AnalyzeOptions::full_scan(10), &mut rng, tick)
                        .expect("exists");
                }
            });
        });
        assert_eq!(cat.get("t", "a").expect("stored").epoch, 21);
    }
}
