#ifndef PREFDB_STORAGE_TABLE_H_
#define PREFDB_STORAGE_TABLE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/column_store.h"
#include "storage/hash_index.h"
#include "storage/row_view.h"
#include "types/relation.h"

namespace prefdb {

/// Per-column statistics maintained by the catalog and consumed by both the
/// native optimizer (join ordering, access paths) and the preference-aware
/// optimizer (selectivity-based reordering of prefer operators, heuristic 5).
struct ColumnStats {
  size_t row_count = 0;
  size_t null_count = 0;
  size_t distinct_count = 0;
  // Numeric range; valid only when `has_range` (column had numeric values).
  bool has_range = false;
  double min = 0.0;
  double max = 0.0;
};

/// A named base table: schema, rows, a declared primary key, and lazily
/// built hash indexes. Tables are owned by the Catalog and immutable once
/// loaded (the workloads are read-only, as in the paper's evaluation).
///
/// A view-backed table (CreateView) holds no rows of its own: it *is* a
/// row-id view over other tables' rows, which the view pins. GBU registers
/// each materialized prefer subtree this way, so a region query reads the
/// subtree's rows in place instead of a copy.
class Table {
 public:
  /// Creates a table; `primary_key` lists key column names (composite keys
  /// allowed, e.g. CAST(m_id, a_id)). Fails if a key column is unknown.
  /// Every column's qualifier is replaced with the table name. The rows are
  /// converted once into the table's column store and not kept.
  static StatusOr<std::unique_ptr<Table>> Create(
      std::string name, Schema schema, std::vector<Tuple> rows,
      std::vector<std::string> primary_key);

  /// Creates a table that is `view` (schema, key and rows). Its columns
  /// keep the view's qualifiers. Its store() holds no rows and it has no
  /// indexes: a scan reads the view itself (the executor filters it in
  /// place).
  static std::unique_ptr<Table> CreateView(std::string name, RowView view);

  const std::string& name() const { return name_; }

  /// A process-unique version stamp assigned at creation. Re-loading or
  /// re-creating a table (including registering a temp under a recycled
  /// name) always yields a fresh version, so any cache fingerprint that
  /// embedded the old version can never match again — the invalidation
  /// protocol of the preference-aware query cache (src/cache).
  uint64_t version() const { return version_; }

  /// Marks the table as a strategy-registered temporary (GBU region
  /// inputs). The result cache refuses to key plans that reference
  /// temporaries: their names/versions are unique per region evaluation,
  /// so entries could never hit again and would only pollute the budget.
  void MarkTemporary() { temporary_ = true; }
  bool temporary() const { return temporary_; }

  /// The view a view-backed table is, else null.
  const RowView* view() const { return view_ ? &*view_ : nullptr; }
  /// The rows of a table that holds rows (view() is null), one typed column
  /// per schema column; a view-backed table's store is empty.
  const ColumnStore& store() const { return store_; }
  const Schema& schema() const { return schema_; }
  size_t NumRows() const { return num_rows_; }
  const std::vector<size_t>& primary_key() const { return primary_key_; }

  /// Copies every row out (of the store, or through the view).
  Relation Gather() const;

  /// Returns the hash index on `column_index`, building it on first use
  /// over the store's typed column.
  /// Only for a table that holds rows; aborts on a view-backed one.
  /// The index lives as long as the table and serves every later equality
  /// scan, hash join and membership probe on the column; it is table state,
  /// not charged to the memory budget of the query that built it.
  /// Thread-safe: concurrent engine queries (parallel plug-in strategies)
  /// may touch the same index first at once; the build runs under the
  /// table's lock, so exactly one is built and the rest reuse it.
  const HashIndex& EnsureIndex(size_t column_index);

  /// True if an index on `column_index` has already been built.
  bool HasIndex(size_t column_index) const {
    MutexLock lock(&lazy_mu_);
    return indexes_.count(column_index) > 0;
  }

  /// Statistics for column `i` (computed on first access, then cached).
  /// Thread-safe like EnsureIndex; the returned reference is stable.
  const ColumnStats& Stats(size_t column_index);

 private:
  Table(std::string name, Schema schema, std::vector<size_t> primary_key,
        ColumnStore store, std::optional<RowView> view)
      : name_(std::move(name)),
        version_(NextVersion()),
        num_rows_(view ? view->NumRows() : store.NumRows()),
        schema_(std::move(schema)),
        primary_key_(std::move(primary_key)),
        store_(std::move(store)),
        view_(std::move(view)) {}

  static uint64_t NextVersion();

  std::string name_;
  uint64_t version_;
  bool temporary_ = false;
  size_t num_rows_;
  Schema schema_;
  std::vector<size_t> primary_key_;
  ColumnStore store_;
  std::optional<RowView> view_;
  /// Guards the lazily built indexes and statistics — the only mutable
  /// state of an otherwise read-only table. Entries are heap-allocated so
  /// returned references survive rehashing (the references themselves are
  /// safe to use after the lock is released; only the maps are guarded).
  mutable Mutex lazy_mu_;
  std::unordered_map<size_t, std::unique_ptr<HashIndex>> indexes_
      PREFDB_GUARDED_BY(lazy_mu_);
  std::unordered_map<size_t, std::unique_ptr<ColumnStats>> stats_
      PREFDB_GUARDED_BY(lazy_mu_);
};

/// Returns the heap's free pages to the OS (glibc's malloc_trim; a no-op
/// elsewhere). A bulk loader calls it once after its last Table::Create.
/// Create frees its input rows right after converting them, and the column
/// arrays allocated in between sit above them in the heap, so glibc keeps
/// the rows' pages resident as holes it never trims by itself. How much of
/// those holes later allocations reuse depends on the data: without the
/// call, the resident size of a loaded database varied by megabytes from
/// one generator seed to the next.
void ReleaseFreeHeapPages();

}  // namespace prefdb

#endif  // PREFDB_STORAGE_TABLE_H_
