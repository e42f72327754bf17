#ifndef PREFDB_STORAGE_CATALOG_H_
#define PREFDB_STORAGE_CATALOG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/table.h"

namespace prefdb {

/// The database catalog: the set of base tables, looked up by
/// case-insensitive name. Owns the tables. This is the substrate's
/// equivalent of the system catalog the paper's prototype reads from
/// PostgreSQL.
///
/// The table map is internally synchronized: lookups during execution can
/// run concurrently with the temporary-table registration/drop of GBU
/// executions in other sessions against the same engine. Table *contents*
/// are immutable after creation (lazy index/statistics builds are guarded
/// inside Table). Tables are held by shared_ptr: a reader that pinned a
/// table (PinTable — every row-id view over it does) keeps it alive after
/// it is dropped or replaced, so a drop never frees rows still in use.
class Catalog {
 public:
  Catalog() = default;

  // Catalogs own large tables; moving is fine, copying is not. Moves are
  // written out by hand because the mutex is immovable; they must not
  // race with table access (only used while handing a freshly built
  // catalog to a session/engine). They lock both catalogs at once — a
  // protocol outside what the thread-safety analysis can express, so the
  // definitions opt out with PREFDB_NO_THREAD_SAFETY_ANALYSIS.
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  /// Registers a table; fails if a table with the same name exists.
  Status AddTable(std::unique_ptr<Table> table);

  /// Convenience: creates and registers a table in one step.
  Status CreateTable(std::string name, Schema schema, std::vector<Tuple> rows,
                     std::vector<std::string> primary_key);

  /// Looks up a table by name (case-insensitive).
  StatusOr<Table*> GetTable(const std::string& name) const;

  /// Like GetTable, but the returned reference keeps the table alive after
  /// it is dropped from the catalog.
  StatusOr<std::shared_ptr<Table>> PinTable(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  /// Removes a table (used for the temporary relations the execution
  /// strategies register). No-op if absent.
  void DropTable(const std::string& name);

  /// Names of all registered tables, sorted.
  std::vector<std::string> TableNames() const;

  /// Sum of row counts over all tables.
  size_t TotalRows() const;

 private:
  // Guards `tables_` (the map only, not the tables it points to: table
  // contents are immutable after creation and their lazy index/stats
  // builds are internally synchronized).
  mutable Mutex mu_;
  // The entry for `name`, or null. Most callers pass the upper-cased
  // spelling the map is keyed by, which needs no copy.
  const std::shared_ptr<Table>* Find(const std::string& name) const
      PREFDB_REQUIRES(mu_);

  // Keyed by upper-cased name.
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_
      PREFDB_GUARDED_BY(mu_);
};

}  // namespace prefdb

#endif  // PREFDB_STORAGE_CATALOG_H_
