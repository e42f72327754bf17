#include "optimizer/extended_optimizer.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/string_util.h"
#include "engine/cardinality.h"
#include "engine/native_optimizer.h"

namespace prefdb {

PlanPtr StripPrefers(const PlanNode& input) {
  if (input.kind == PlanKind::kPrefer) {
    return StripPrefers(input.child());
  }
  PlanPtr copy = input.Clone();
  for (PlanPtr& child : copy->children) {
    child = StripPrefers(*child);
  }
  return copy;
}

std::vector<PreferencePtr> CollectPrefers(const PlanNode& input) {
  std::vector<PreferencePtr> prefs;
  for (const PlanPtr& child : input.children) {
    std::vector<PreferencePtr> sub = CollectPrefers(*child);
    prefs.insert(prefs.end(), sub.begin(), sub.end());
  }
  if (input.kind == PlanKind::kPrefer) prefs.push_back(input.preference);
  return prefs;
}

namespace {

// Names (aliases and table names) of the base relations in a subtree.
void CollectRelationNames(const PlanNode& node, std::vector<std::string>* out) {
  if (node.kind == PlanKind::kScan) {
    out->push_back(node.alias.empty() ? node.table_name : node.alias);
    out->push_back(node.table_name);
    return;
  }
  for (const PlanPtr& c : node.children) CollectRelationNames(*c, out);
}

// True if the subtree rooted at `side` contains every relation the
// preference targets. Guards Prop. 4.4 pushdown: a preference p[R_i] may
// only move to the input that actually *is* (or contains) R_i. This is the
// relation-name side of the paper's semantics — for set operations, both
// inputs have union-compatible schemas, so schema binding alone cannot
// distinguish them.
bool SideContainsTargets(const Preference& pref, const PlanNode& side) {
  if (pref.relations().empty()) return true;
  std::vector<std::string> names;
  CollectRelationNames(side, &names);
  for (const std::string& target : pref.relations()) {
    // A membership preference's member relation is probed via the catalog,
    // not the plan, so it does not need to be present in the subtree.
    if (pref.membership() != nullptr &&
        EqualsIgnoreCase(target, pref.membership()->member_relation)) {
      continue;
    }
    bool found = false;
    for (const std::string& name : names) {
      if (EqualsIgnoreCase(name, target)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

class Rewriter {
 public:
  Rewriter(const Engine* engine, const ExtendedOptimizerOptions& options)
      : engine_(engine), options_(options) {}

  // Applies the enabled rules in order, each under its own span. `schema`
  // is the input's output schema, which every rule preserves.
  StatusOr<PlanPtr> Run(const PlanNode& input, const Schema& schema,
                        obs::Span* span) {
    PlanPtr plan = input.Clone();
    if (options_.push_selections) {
      obs::SpanScope rule(span, "PushSelections");
      ASSIGN_OR_RETURN(plan, PushSelections(std::move(plan)));
    }
    if (options_.push_prefer || options_.push_prefer_over_binary) {
      obs::SpanScope rule(span, "PushPrefers");
      ASSIGN_OR_RETURN(plan, PushPrefers(std::move(plan)));
    }
    if (options_.reorder_prefers) {
      obs::SpanScope rule(span, "ReorderPreferChains");
      ASSIGN_OR_RETURN(plan, ReorderPreferChains(std::move(plan)));
    }
    if (options_.left_deep || options_.match_native_join_order) {
      obs::SpanScope rule(span, "ReorderJoins");
      ASSIGN_OR_RETURN(plan, ReorderJoins(std::move(plan)));
    }
    shapes_.clear();  // ReorderJoins built and freed joins: see ShapeOf.
    if (options_.push_projections) {
      obs::SpanScope rule(span, "PruneProjections");
      ASSIGN_OR_RETURN(plan, PruneProjections(std::move(plan), schema));
    }
    return plan;
  }

 private:
  const Catalog& catalog() const { return engine_->catalog(); }

  // The shape of `node`, derived once per node. The pushdown rules only
  // add and remove Select and Prefer nodes, which keep their input's shape:
  // the lookup looks through them, and every other node keeps its shape
  // and its address. ReorderJoins frees and builds joins, so it looks up
  // only the units of a cluster, before it rearranges any of them.
  StatusOr<const PlanShape*> ShapeOf(const PlanNode& node) {
    const PlanNode* base = &node;
    while (base->kind == PlanKind::kSelect || base->kind == PlanKind::kPrefer) {
      base = &base->child();
    }
    auto it = shapes_.find(base);
    if (it != shapes_.end()) return &it->second;
    std::vector<PlanShape> children;
    children.reserve(base->children.size());
    for (const PlanPtr& child : base->children) {
      ASSIGN_OR_RETURN(const PlanShape* shape, ShapeOf(*child));
      children.push_back(*shape);
    }
    ASSIGN_OR_RETURN(PlanShape shape, DeriveNodeShape(*base, children, catalog()));
    return &shapes_.emplace(base, std::move(shape)).first->second;
  }

  // ----- Rule 1: selection pushdown -------------------------------------

  StatusOr<PlanPtr> PushSelections(PlanPtr node) {
    for (PlanPtr& child : node->children) {
      ASSIGN_OR_RETURN(child, PushSelections(std::move(child)));
    }
    if (node->kind != PlanKind::kSelect) return node;
    std::vector<ExprPtr> conjuncts = SplitConjuncts(std::move(node->predicate));
    PlanPtr child = std::move(node->children[0]);
    for (ExprPtr& conjunct : conjuncts) {
      ASSIGN_OR_RETURN(child, PushOneSelection(std::move(conjunct),
                                               std::move(child)));
    }
    return child;
  }

  // Pushes a single conjunct as deep as it can go, wrapping a Select at the
  // deepest node whose output it binds to.
  StatusOr<PlanPtr> PushOneSelection(ExprPtr pred, PlanPtr node) {
    auto binds = [&](size_t i) -> StatusOr<bool> {
      ASSIGN_OR_RETURN(const PlanShape* shape, ShapeOf(node->child(i)));
      return ExprBindsTo(*pred, shape->schema);
    };
    auto into = [&](size_t i) -> StatusOr<PlanPtr> {
      ASSIGN_OR_RETURN(node->children[i], PushOneSelection(std::move(pred),
                                                           std::move(node->children[i])));
      return std::move(node);
    };
    switch (node->kind) {
      case PlanKind::kSelect:  // Merge (conjuncts stay split below it).
      case PlanKind::kPrefer:  // Prop. 4.1: σ and λ commute (selection never
                               // references score/conf, not plan columns).
      case PlanKind::kDistinct:
      case PlanKind::kSort:
      case PlanKind::kExcept:  // σ(A − B) = σ(A) − B.
        return into(0);
      case PlanKind::kProject:  // Projection only narrows columns.
      case PlanKind::kSemiJoin: {
        ASSIGN_OR_RETURN(bool below, binds(0));
        if (below) return into(0);
        break;
      }
      case PlanKind::kJoin: {
        ASSIGN_OR_RETURN(bool left, binds(0));
        if (left) return into(0);
        ASSIGN_OR_RETURN(bool right, binds(1));
        if (right) return into(1);
        // Cross-relation predicate: fold into the join condition.
        std::vector<ExprPtr> parts;
        parts.push_back(std::move(node->predicate));
        parts.push_back(std::move(pred));
        node->predicate = CombineConjuncts(std::move(parts));
        return node;
      }
      case PlanKind::kUnion:
      case PlanKind::kIntersect: {
        // σ distributes over ∪ and ∩.
        ASSIGN_OR_RETURN(node->children[0],
                         PushOneSelection(pred->Clone(), std::move(node->children[0])));
        return into(1);
      }
      case PlanKind::kScan:
      case PlanKind::kLimit:
        // Limit is order-sensitive: never push a selection through it.
        break;
    }
    return plan::Select(std::move(pred), std::move(node));
  }

  // ----- Rules 3 and 4: prefer pushdown ----------------------------------

  StatusOr<PlanPtr> PushPrefers(PlanPtr node) {
    for (PlanPtr& child : node->children) {
      ASSIGN_OR_RETURN(child, PushPrefers(std::move(child)));
    }
    if (node->kind != PlanKind::kPrefer) return node;
    PreferencePtr pref = node->preference;
    PlanPtr child = std::move(node->children[0]);
    return PushOnePrefer(std::move(pref), std::move(child));
  }

  StatusOr<PlanPtr> PushOnePrefer(PreferencePtr pref, PlanPtr node) {
    // Whether the preference may move into child `i`: it binds there and,
    // below a binary operator, that input holds its target relations and
    // the move pays off.
    auto fits = [&](size_t i, bool binary) -> StatusOr<bool> {
      ASSIGN_OR_RETURN(const PlanShape* shape, ShapeOf(node->child(i)));
      return pref->BindsTo(shape->schema) &&
             (!binary || (SideContainsTargets(*pref, node->child(i)) &&
                          PushdownPaysOff(*node, node->child(i))));
    };
    auto into = [&](size_t i) -> StatusOr<PlanPtr> {
      ASSIGN_OR_RETURN(node->children[i], PushOnePrefer(std::move(pref),
                                                        std::move(node->children[i])));
      return std::move(node);
    };
    switch (node->kind) {
      case PlanKind::kPrefer:
      case PlanKind::kDistinct:
      case PlanKind::kSort: {
        // λ commutes with other λ (Prop. 4.3) and with order/duplicate
        // operators (it neither filters nor reorders tuples).
        if (!options_.push_prefer) break;
        ASSIGN_OR_RETURN(bool fit, fits(0, false));
        if (fit) return into(0);
        break;
      }
      case PlanKind::kUnion:
        // λ_p(A ∪ B) is NOT λ_p(A) ∪ B: tuples only in B would lose their
        // scores, and tuples in both would combine differently. Prop. 4.4
        // applies to unions only under the paper's relation-name-targeted
        // semantics; with schema-based evaluation the prefer stays put.
        break;
      case PlanKind::kJoin:
      case PlanKind::kIntersect:
      case PlanKind::kExcept:
      case PlanKind::kSemiJoin: {
        // Prop. 4.4: a preference defined exclusively on the attributes of
        // one input moves to that input. For ∩ and − it may move to the
        // *left* input only (every result tuple comes from there).
        if (!options_.push_prefer_over_binary) break;
        ASSIGN_OR_RETURN(bool left, fits(0, true));
        if (left) return into(0);
        if (node->kind != PlanKind::kJoin) break;
        ASSIGN_OR_RETURN(bool right, fits(1, true));
        if (right) return into(1);
        break;  // Multi-relational: stays above the binary operator.
      }
      case PlanKind::kSelect:
      case PlanKind::kProject:
      case PlanKind::kScan:
      case PlanKind::kLimit:
        // Rule 3's resting position: "just on top of a select or project".
        break;
    }
    return plan::Prefer(std::move(pref), std::move(node));
  }

  // A prefer operator's cost is proportional to its input cardinality.
  // With the paper's blind heuristic (the default), pushdown is always
  // taken; with the cost-based extension it is taken only when the target
  // input is estimated no larger than the binary operator's output.
  bool PushdownPaysOff(const PlanNode& binary, const PlanNode& target) const {
    if (!options_.cost_based_prefer_placement) return true;
    double above = EstimatePlanCardinality(binary, catalog());
    double below = EstimatePlanCardinality(target, catalog());
    return below <= above;
  }

  // ----- Rule 5: reorder prefer chains by ascending selectivity ----------

  StatusOr<PlanPtr> ReorderPreferChains(PlanPtr node) {
    for (PlanPtr& child : node->children) {
      ASSIGN_OR_RETURN(child, ReorderPreferChains(std::move(child)));
    }
    if (node->kind != PlanKind::kPrefer ||
        node->child().kind != PlanKind::kPrefer) {
      return node;
    }
    // Collect the maximal chain.
    std::vector<PreferencePtr> chain;
    PlanPtr current = std::move(node);
    while (current->kind == PlanKind::kPrefer) {
      chain.push_back(current->preference);
      current = std::move(current->children[0]);
    }
    ASSIGN_OR_RETURN(const PlanShape* base_shape, ShapeOf(*current));
    struct Ranked {
      PreferencePtr pref;
      double selectivity;
    };
    std::vector<Ranked> ranked;
    ranked.reserve(chain.size());
    for (PreferencePtr& p : chain) {
      double sel =
          EstimateSelectivity(p->condition(), base_shape->schema, catalog());
      ranked.push_back({std::move(p), sel});
    }
    // Ascending selectivity, evaluated bottom-up: the most selective
    // preference runs first, keeping early score relations small.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Ranked& a, const Ranked& b) {
                       return a.selectivity < b.selectivity;
                     });
    // Rebuild: ranked[0] deepest.
    PlanPtr rebuilt = std::move(current);
    for (Ranked& r : ranked) {
      rebuilt = plan::Prefer(std::move(r.pref), std::move(rebuilt));
    }
    return rebuilt;
  }

  // ----- Left-deep rearrangement / native join-order matching ------------

  StatusOr<PlanPtr> ReorderJoins(PlanPtr node) {
    if (node->kind != PlanKind::kJoin) {
      for (PlanPtr& child : node->children) {
        ASSIGN_OR_RETURN(child, ReorderJoins(std::move(child)));
      }
      return node;
    }
    // Flatten the join cluster into units (subtrees that are not inner
    // joins) and predicate conjuncts.
    std::vector<PlanPtr> units;
    std::vector<ExprPtr> predicates;
    RETURN_IF_ERROR(FlattenJoins(std::move(node), &units, &predicates));
    // The units' schemas, which rearranging their own clusters preserves;
    // the cluster's schema is theirs in flatten order.
    std::vector<Schema> schemas;
    Schema original;
    for (const PlanPtr& unit : units) {
      ASSIGN_OR_RETURN(const PlanShape* shape, ShapeOf(*unit));
      original = std::move(original).Concat(shape->schema);
      schemas.push_back(shape->schema);
    }
    for (PlanPtr& unit : units) {
      ASSIGN_OR_RETURN(unit, ReorderJoins(std::move(unit)));
    }

    // Decide the unit order.
    std::vector<size_t> order;
    if (options_.match_native_join_order) {
      ASSIGN_OR_RETURN(order, NativeOrder(units, predicates));
    } else {
      ASSIGN_OR_RETURN(order, GreedyOrder(units, predicates));
    }

    // Rebuild left-deep in the chosen order.
    PlanPtr current = std::move(units[order[0]]);
    Schema current_schema = std::move(schemas[order[0]]);
    for (size_t i = 1; i < order.size(); ++i) {
      PlanPtr next = std::move(units[order[i]]);
      current_schema = std::move(current_schema).Concat(schemas[order[i]]);
      std::vector<ExprPtr> applicable;
      for (auto it = predicates.begin(); it != predicates.end();) {
        if (ExprBindsTo(**it, current_schema)) {
          applicable.push_back(std::move(*it));
          it = predicates.erase(it);
        } else {
          ++it;
        }
      }
      current = plan::Join(CombineConjuncts(std::move(applicable)),
                           std::move(current), std::move(next));
    }
    if (!predicates.empty()) {
      current = plan::Select(CombineConjuncts(std::move(predicates)),
                             std::move(current));
    }

    // Join reordering permutes columns; restore the original schema so the
    // plan's output shape is invariant under optimization.
    if (!(current_schema == original)) {
      std::vector<std::string> columns;
      columns.reserve(original.size());
      for (const Column& c : original.columns()) {
        columns.push_back(c.FullName());
      }
      current = plan::Project(std::move(columns), std::move(current));
    }
    return current;
  }

  Status FlattenJoins(PlanPtr node, std::vector<PlanPtr>* units,
                      std::vector<ExprPtr>* predicates) {
    if (node->kind == PlanKind::kJoin) {
      std::vector<ExprPtr> conjuncts = SplitConjuncts(std::move(node->predicate));
      for (ExprPtr& c : conjuncts) {
        if (c->kind() == ExprKind::kLiteral &&
            IsTruthy(static_cast<LiteralExpr*>(c.get())->value())) {
          continue;  // Constant TRUE padding.
        }
        predicates->push_back(std::move(c));
      }
      RETURN_IF_ERROR(FlattenJoins(std::move(node->children[0]), units,
                                   predicates));
      return FlattenJoins(std::move(node->children[1]), units, predicates);
    }
    units->push_back(std::move(node));
    return Status::OK();
  }

  // Unit order following the native optimizer's join order for the
  // non-preference skeleton of the cluster (the paper's rule: match the join
  // order the native optimizer would pick, so the delegated fragments run
  // the way the DBMS wants to run them).
  StatusOr<std::vector<size_t>> NativeOrder(
      const std::vector<PlanPtr>& units, const std::vector<ExprPtr>& predicates) {
    std::vector<const PlanNode*> roots;
    roots.reserve(units.size());
    for (const PlanPtr& unit : units) roots.push_back(unit.get());
    std::vector<const Expr*> conjuncts;
    conjuncts.reserve(predicates.size());
    for (const ExprPtr& p : predicates) conjuncts.push_back(p.get());
    ASSIGN_OR_RETURN(std::vector<std::string> alias_order,
                     NativeJoinOrder(roots, conjuncts, catalog()));

    // Map each unit to its first alias position in the native order.
    std::vector<std::pair<size_t, size_t>> keyed;  // (position, unit index)
    for (size_t i = 0; i < units.size(); ++i) {
      std::vector<std::string> aliases;
      CollectAliases(*units[i], &aliases);
      size_t best = std::numeric_limits<size_t>::max();
      for (const std::string& alias : aliases) {
        auto it = std::find(alias_order.begin(), alias_order.end(), alias);
        if (it != alias_order.end()) {
          best = std::min(best,
                          static_cast<size_t>(it - alias_order.begin()));
        }
      }
      keyed.emplace_back(best, i);
    }
    std::stable_sort(keyed.begin(), keyed.end());
    std::vector<size_t> order;
    order.reserve(keyed.size());
    for (const auto& [pos, idx] : keyed) order.push_back(idx);
    return order;
  }

  // Greedy smallest-first order (used when native matching is disabled).
  StatusOr<std::vector<size_t>> GreedyOrder(const std::vector<PlanPtr>& units,
                                            const std::vector<ExprPtr>& predicates) {
    (void)predicates;
    std::vector<std::pair<double, size_t>> keyed;
    for (size_t i = 0; i < units.size(); ++i) {
      keyed.emplace_back(EstimatePlanCardinality(*units[i], catalog()), i);
    }
    std::stable_sort(keyed.begin(), keyed.end());
    std::vector<size_t> order;
    order.reserve(keyed.size());
    for (const auto& [card, idx] : keyed) order.push_back(idx);
    return order;
  }

  static void CollectAliases(const PlanNode& node, std::vector<std::string>* out) {
    if (node.kind == PlanKind::kScan) {
      out->push_back(node.alias.empty() ? node.table_name : node.alias);
      return;
    }
    for (const PlanPtr& c : node.children) CollectAliases(*c, out);
  }

  // ----- Rule 2: projection pushdown (column pruning) ---------------------

  StatusOr<PlanPtr> PruneProjections(PlanPtr node, const Schema& schema) {
    std::vector<std::string> referenced;
    CollectReferencedColumns(*node, &referenced);
    // The plan's output columns are always live: with no root projection
    // (SELECT *), every column reaches the result and nothing may be pruned.
    for (const Column& c : schema.columns()) {
      referenced.push_back(c.FullName());
    }
    return InsertScanProjections(std::move(node), referenced);
  }

  static void CollectReferencedColumns(const PlanNode& node,
                                       std::vector<std::string>* out) {
    if (node.predicate) node.predicate->CollectColumns(out);
    if (node.preference) {
      std::vector<std::string> cols = node.preference->ReferencedColumns();
      out->insert(out->end(), cols.begin(), cols.end());
      if (node.preference->membership() != nullptr) {
        out->push_back(node.preference->membership()->local_column);
      }
    }
    for (const std::string& c : node.project_columns) out->push_back(c);
    for (const SortKey& k : node.sort_keys) out->push_back(k.column);
    for (const PlanPtr& c : node.children) CollectReferencedColumns(*c, out);
  }

  // Wraps each Select(Scan) / Scan unit with a projection onto the columns
  // the rest of the plan references (keys are preserved implicitly).
  StatusOr<PlanPtr> InsertScanProjections(
      PlanPtr node, const std::vector<std::string>& referenced) {
    bool is_base_unit =
        node->kind == PlanKind::kScan ||
        (node->kind == PlanKind::kSelect &&
         node->child().kind == PlanKind::kScan);
    if (!is_base_unit) {
      if (node->kind == PlanKind::kProject) {
        // An existing projection already prunes; keep recursing below it.
      }
      for (PlanPtr& child : node->children) {
        ASSIGN_OR_RETURN(child, InsertScanProjections(std::move(child),
                                                      referenced));
      }
      return node;
    }
    ASSIGN_OR_RETURN(PlanShape shape, DerivePlanShape(*node, catalog()));
    std::vector<std::string> keep;
    for (size_t i = 0; i < shape.schema.size(); ++i) {
      const Column& col = shape.schema.column(i);
      bool used = false;
      for (std::string_view name : referenced) {
        // Match either the bare or qualified spelling.
        size_t dot = name.find('.');
        std::string_view qualifier = dot == name.npos ? "" : name.substr(0, dot);
        std::string_view bare = dot == name.npos ? name : name.substr(dot + 1);
        if (!EqualsIgnoreCase(bare, col.name)) continue;
        if (!qualifier.empty() && !EqualsIgnoreCase(qualifier, col.qualifier)) {
          continue;
        }
        used = true;
        break;
      }
      if (used) keep.push_back(col.FullName());
    }
    if (keep.size() >= shape.schema.size()) return node;  // Nothing to prune.
    return plan::Project(std::move(keep), std::move(node));
  }

  const Engine* engine_;
  const ExtendedOptimizerOptions& options_;
  std::unordered_map<const PlanNode*, PlanShape> shapes_;  // See ShapeOf.
};

}  // namespace

StatusOr<PlanPtr> ExtendedOptimizer::Optimize(const PlanNode& input,
                                              obs::Span* span) const {
  ASSIGN_OR_RETURN(PlanShape original, DerivePlanShape(input, engine_->catalog()));
  Rewriter rewriter(engine_, options_);
  ASSIGN_OR_RETURN(PlanPtr optimized, rewriter.Run(input, original.schema, span));
  ASSIGN_OR_RETURN(PlanShape rewritten,
                   DerivePlanShape(*optimized, engine_->catalog()));
  if (!(rewritten.schema == original.schema)) {
    return Status::Internal(
        "extended optimizer changed the plan's output schema:\n  before: " +
        original.schema.ToString() + "\n  after:  " + rewritten.schema.ToString());
  }
  return optimized;
}

}  // namespace prefdb
