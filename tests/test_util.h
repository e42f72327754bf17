#ifndef PREFDB_TESTS_TEST_UTIL_H_
#define PREFDB_TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "palgebra/p_relation.h"
#include "storage/catalog.h"
#include "types/relation.h"

namespace prefdb {
namespace testing_util {

/// Builds the paper's running-example movie database (Figs. 1 and 3):
/// five movies, three directors, genres, ratings and one award, with
/// hand-picked values so tests can assert exact scores.
///
///   MOVIES:    m1 Gran Torino        2008 116min d1
///              m2 Wall Street        2010 133min d3
///              m3 Million Dollar Baby 2004 132min d1
///              m4 Match Point        2005 124min d2
///              m5 Scoop              2006  96min d2
///   DIRECTORS: d1 C. Eastwood, d2 W. Allen, d3 O. Stone
Catalog MakeMovieCatalog();

/// The identity view over every row of `table` (which holds rows), pinning
/// it.
RowView TableView(const std::shared_ptr<Table>& table);

/// Convenience constructors for values in table literals.
inline Value I(int64_t v) { return Value::Int(v); }
inline Value D(double v) { return Value::Double(v); }
inline Value S(const char* v) { return Value::String(v); }
inline Value N() { return Value::Null(); }

/// R_P as a plain tuple-keyed map: the non-default pairs by key, a miss
/// yielding ⟨⊥, 0⟩. Tests state expected scores by key with it.
class KeyedPairs {
 public:
  /// Stores `pair` under `key`; a default pair erases the entry.
  void Set(const Tuple& key, const ScoreConf& pair);
  ScoreConf Lookup(const Tuple& key) const;
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

 private:
  std::map<Tuple, ScoreConf> map_;
};

/// The non-default pairs of `p` by each row's key (a later row wins).
KeyedPairs ScoresByKey(const PRelation& p);

/// `relation` as a p-relation, each row's pair looked up in `scores` by the
/// row's key.
PRelation WithPairs(const Relation& relation, const KeyedPairs& scores);

/// Sorts a relation's rows (lexicographic Value order) for order-insensitive
/// comparison.
std::vector<Tuple> SortedRows(const Relation& relation);

/// Asserts two relations contain the same rows up to order; doubles are
/// compared with tolerance `eps`.
void ExpectSameRows(const Relation& actual, const Relation& expected,
                    double eps = 1e-9);

/// Renders rows as a canonical multi-line string (diagnostics).
std::string RowsToString(const std::vector<Tuple>& rows);

}  // namespace testing_util
}  // namespace prefdb

#endif  // PREFDB_TESTS_TEST_UTIL_H_
