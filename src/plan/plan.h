#ifndef PREFDB_PLAN_PLAN_H_
#define PREFDB_PLAN_PLAN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "prefs/preference.h"
#include "storage/catalog.h"

namespace prefdb {

/// Logical operator kinds of the extended algebra (paper §IV).
/// Everything except kPrefer is a conventional relational operator the
/// native engine can execute; a plan containing kPrefer is an *extended*
/// plan and must be run by one of the preference-aware strategies.
enum class PlanKind {
  kScan,       // Base table scan (with optional alias).
  kSelect,     // σ_φ — hard boolean filter.
  kProject,    // π — column projection (keys are preserved, see Project()).
  kJoin,       // ⋈_φ — inner join.
  kSemiJoin,   // ⋉_φ — left semijoin (membership preferences, paper p_7).
  kUnion,      // ∪ — set union with duplicate elimination.
  kIntersect,  // ∩ — set intersection.
  kExcept,     // − — set difference.
  kDistinct,   // duplicate elimination.
  kSort,       // ORDER BY (column names + direction).
  kLimit,      // first-n.
  kPrefer,     // λ_p — the preference evaluation operator (paper §IV-C).
};

std::string_view PlanKindName(PlanKind kind);

struct PlanNode;
using PlanPtr = std::unique_ptr<PlanNode>;

/// One sort key for kSort.
struct SortKey {
  std::string column;
  bool descending = false;
};

/// A node of a logical (extended) query plan. A single aggregate struct —
/// rather than a class hierarchy — keeps cloning, printing and the pattern
/// matching in the optimizers direct. Only the fields relevant to `kind`
/// are populated; the factory functions below construct nodes correctly.
struct PlanNode {
  PlanKind kind;
  std::vector<PlanPtr> children;

  // kScan
  std::string table_name;
  std::string alias;  // Empty means the table name itself.

  // kSelect / kJoin / kSemiJoin
  ExprPtr predicate;

  // kProject
  std::vector<std::string> project_columns;

  // kPrefer
  PreferencePtr preference;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  size_t limit = 0;

  const PlanNode& child(size_t i = 0) const { return *children[i]; }
  PlanNode* mutable_child(size_t i = 0) { return children[i].get(); }

  /// Deep copy (expressions cloned; preferences shared — they are immutable).
  PlanPtr Clone() const;

  /// Copy of this node alone, without its children.
  PlanPtr CloneNode() const;

  /// Multi-line indented rendering of the subtree, e.g.
  ///   Prefer[p3]
  ///     Select[year = 2011]
  ///       Scan[MOVIES]
  std::string ToString(int indent = 0) const;

  /// True if the subtree contains any kPrefer node.
  bool ContainsPrefer() const;

  /// Number of nodes of `kind` in the subtree.
  size_t CountKind(PlanKind kind) const;
};

/// Output shape of a plan node: the schema plus the (composite) key that
/// identifies tuples for score-relation bookkeeping (paper §VI: the score
/// relation of a join result is keyed on the concatenated input keys).
struct PlanShape {
  Schema schema;
  std::vector<size_t> key_columns;
};

/// Derives the output shape of `node` against `catalog`, without executing.
/// Fails on unknown tables/columns, arity-incompatible set operations, or
/// predicates that do not bind. This doubles as plan validation: both
/// optimizers call it before and after rewriting.
StatusOr<PlanShape> DerivePlanShape(const PlanNode& node, const Catalog& catalog);

/// One step of DerivePlanShape: `node`'s shape from its children's shapes
/// (`children`, in child order; consumed), with the same checks and
/// messages. For passes that build or walk a plan bottom-up and carry each
/// subtree's shape with it instead of re-deriving it.
StatusOr<PlanShape> DeriveNodeShape(const PlanNode& node,
                                    std::span<PlanShape> children,
                                    const Catalog& catalog);

/// How a kProject node maps input columns to output columns.
struct ProjectionResolution {
  /// Input column index for each output column: the requested columns in
  /// order, followed by input key columns not already requested (projection
  /// preserves keys; see kProject).
  std::vector<size_t> indices;
  /// Positions of the input's key columns within `indices`.
  std::vector<size_t> key_positions;
};

/// Resolves a projection column list against an input shape. Shared by
/// shape derivation and the executors so their key-preservation semantics
/// cannot drift apart.
StatusOr<ProjectionResolution> ResolveProjection(
    const PlanShape& input, const std::vector<std::string>& columns);

// ---------------------------------------------------------------------------
// Factory helpers.
namespace plan {

PlanPtr Scan(std::string table_name, std::string alias = "");
PlanPtr Select(ExprPtr predicate, PlanPtr child);
PlanPtr Project(std::vector<std::string> columns, PlanPtr child);
PlanPtr Join(ExprPtr predicate, PlanPtr left, PlanPtr right);
PlanPtr SemiJoin(ExprPtr predicate, PlanPtr left, PlanPtr right);
PlanPtr Union(PlanPtr left, PlanPtr right);
PlanPtr Intersect(PlanPtr left, PlanPtr right);
PlanPtr Except(PlanPtr left, PlanPtr right);
PlanPtr Distinct(PlanPtr child);
PlanPtr Sort(std::vector<SortKey> keys, PlanPtr child);
PlanPtr Limit(size_t n, PlanPtr child);
PlanPtr Prefer(PreferencePtr preference, PlanPtr child);

}  // namespace plan
}  // namespace prefdb

#endif  // PREFDB_PLAN_PLAN_H_
