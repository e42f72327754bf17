#include "storage/catalog.h"

#include <algorithm>

#include "common/string_util.h"

namespace prefdb {

// Locks the source (and for assignment both catalogs, via scoped_lock's
// deadlock-avoiding ordering) — a two-object protocol the analysis cannot
// express, hence the opt-outs. Only ever called while handing a freshly
// built catalog to its engine, before any concurrent access exists.
Catalog::Catalog(Catalog&& other) noexcept PREFDB_NO_THREAD_SAFETY_ANALYSIS {
  MutexLock lock(&other.mu_);
  tables_ = std::move(other.tables_);
}

Catalog& Catalog::operator=(Catalog&& other) noexcept
    PREFDB_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    tables_ = std::move(other.tables_);
  }
  return *this;
}

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  std::string key = ToUpper(table->name());
  MutexLock lock(&mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table already exists: " + table->name());
  }
  tables_.emplace(std::move(key), std::move(table));
  return Status::OK();
}

Status Catalog::CreateTable(std::string name, Schema schema,
                            std::vector<Tuple> rows,
                            std::vector<std::string> primary_key) {
  ASSIGN_OR_RETURN(std::unique_ptr<Table> table,
                   Table::Create(std::move(name), std::move(schema),
                                 std::move(rows), std::move(primary_key)));
  return AddTable(std::move(table));
}

const std::shared_ptr<Table>* Catalog::Find(const std::string& name) const {
  const bool upper = std::none_of(name.begin(), name.end(), [](char c) {
    return c >= 'a' && c <= 'z';
  });
  auto it = upper ? tables_.find(name) : tables_.find(ToUpper(name));
  return it == tables_.end() ? nullptr : &it->second;
}

StatusOr<Table*> Catalog::GetTable(const std::string& name) const {
  MutexLock lock(&mu_);
  const std::shared_ptr<Table>* table = Find(name);
  if (table == nullptr) return Status::NotFound("table not found: " + name);
  return table->get();
}

StatusOr<std::shared_ptr<Table>> Catalog::PinTable(const std::string& name) const {
  MutexLock lock(&mu_);
  const std::shared_ptr<Table>* table = Find(name);
  if (table == nullptr) return Status::NotFound("table not found: " + name);
  return *table;
}

bool Catalog::HasTable(const std::string& name) const {
  MutexLock lock(&mu_);
  return Find(name) != nullptr;
}

void Catalog::DropTable(const std::string& name) {
  std::string key = ToUpper(name);
  MutexLock lock(&mu_);
  tables_.erase(key);
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  MutexLock lock(&mu_);
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::TotalRows() const {
  MutexLock lock(&mu_);
  size_t total = 0;
  for (const auto& [key, table] : tables_) total += table->NumRows();
  return total;
}

}  // namespace prefdb
