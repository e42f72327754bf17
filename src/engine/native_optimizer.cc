#include "engine/native_optimizer.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "engine/cardinality.h"

namespace prefdb {

namespace {

// `node`'s estimated cardinality from its children's estimates. `schema` is
// the shape a Select's or Join's predicate is evaluated over (the node's
// own), or null where it does not derive.
double NodeCardinality(const PlanNode& node, std::span<const double> children,
                       const Schema* schema, const Catalog& catalog) {
  auto selectivity = [&] {
    return schema != nullptr ? EstimateSelectivity(*node.predicate, *schema, catalog)
                             : 1.0 / 3.0;
  };
  switch (node.kind) {
    case PlanKind::kScan:
      return EstimateScanCardinality(node.table_name, nullptr, catalog);
    case PlanKind::kSelect:
      return children[0] * selectivity();
    case PlanKind::kJoin:
      return children[0] * children[1] * selectivity();
    case PlanKind::kSemiJoin:
      // At most every left tuple qualifies; halve as a crude default.
      return 0.5 * children[0];
    case PlanKind::kUnion:
      return children[0] + children[1];
    case PlanKind::kIntersect:
      return std::min(children[0], children[1]);
    case PlanKind::kLimit:
      return std::min<double>(static_cast<double>(node.limit), children[0]);
    case PlanKind::kProject:
    case PlanKind::kPrefer:
    case PlanKind::kExcept:
    case PlanKind::kDistinct:
    case PlanKind::kSort:
      return children[0];
  }
  return 0.0;
}

// EstimatePlanCardinality's walk: derives each node's shape once, bottom
// up, so an estimate takes its input's shape instead of re-deriving it.
// `shape` stays empty where the subtree does not derive.
double Estimate(const PlanNode& node, const Catalog& catalog,
                std::optional<PlanShape>* shape) {
  std::vector<double> cards;
  std::vector<PlanShape> shapes;
  for (const PlanPtr& child : node.children) {
    std::optional<PlanShape> input;
    cards.push_back(Estimate(*child, catalog, &input));
    if (input.has_value()) shapes.push_back(std::move(*input));
  }
  if (shapes.size() == node.children.size()) {
    StatusOr<PlanShape> own = DeriveNodeShape(node, shapes, catalog);
    if (own.ok()) *shape = std::move(*own);
  }
  return NodeCardinality(node, cards, *shape ? &(*shape)->schema : nullptr, catalog);
}

}  // namespace

double EstimatePlanCardinality(const PlanNode& node, const Catalog& catalog) {
  std::optional<PlanShape> shape;
  return Estimate(node, catalog, &shape);
}

namespace {

// An optimized subtree with its derived shape and estimated cardinality,
// carried up so that no pass derives a subtree twice.
struct Unit {
  PlanPtr plan;
  PlanShape shape;
  double cardinality = 0.0;
};

// A flattened join cluster after predicate placement and the greedy
// ordering step: what NativeOptimize builds its left-deep tree from, and
// what NativeJoinOrder reads the order off.
struct Cluster {
  std::vector<Unit> units;  // Cardinalities include their pushed conjuncts.
  std::vector<std::vector<const Expr*>> pushed;  // Per unit, in push order.
  std::vector<size_t> order;  // Units, outermost first.
  // conditions[k]: the conjuncts of the join that adds units[order[k + 1]].
  std::vector<std::vector<const Expr*>> conditions;
  std::vector<const Expr*> residual;  // Conjuncts no join could take.
};

ExprPtr Combine(const std::vector<const Expr*>& conjuncts) {
  std::vector<ExprPtr> copies;
  copies.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) copies.push_back(c->Clone());
  return CombineConjuncts(std::move(copies));
}

class NativeOptimizer {
 public:
  explicit NativeOptimizer(const Catalog& catalog) : catalog_(catalog) {}

  StatusOr<Unit> Optimize(const PlanNode& node) {
    // Prefer operators are looked through, as if stripped: NativeOptimize
    // rejects extended plans up front, and NativeJoinOrder orders Q_NP's
    // units straight from the extended plan.
    if (node.kind == PlanKind::kPrefer) return Optimize(node.child());
    if (node.kind == PlanKind::kJoin || node.kind == PlanKind::kSelect) {
      ASSIGN_OR_RETURN(Cluster cluster, PlanCluster({&node}, {}));
      return Build(std::move(cluster));
    }
    // Recurse beneath non-cluster operators.
    PlanPtr copy = node.CloneNode();
    std::vector<PlanShape> shapes;
    std::vector<double> cards;
    for (const PlanPtr& child : node.children) {
      ASSIGN_OR_RETURN(Unit optimized, Optimize(*child));
      copy->children.push_back(std::move(optimized.plan));
      shapes.push_back(std::move(optimized.shape));
      cards.push_back(optimized.cardinality);
    }
    return Attach(std::move(copy), shapes, cards);
  }

  // Flattens the join cluster of `roots` (joined in order) and the
  // conjuncts of `predicates` into optimized units, pushes every conjunct
  // that binds to a single unit onto it, then orders the units greedily by
  // estimated cardinality, preferring connected (non-cross) joins.
  StatusOr<Cluster> PlanCluster(const std::vector<const PlanNode*>& roots,
                                const std::vector<const Expr*>& predicates) {
    Cluster c;
    std::vector<const Expr*> conjuncts;
    for (const Expr* p : predicates) CollectConjuncts(*p, &conjuncts);
    for (const PlanNode* root : roots) {
      RETURN_IF_ERROR(Flatten(*root, &c.units, &conjuncts));
    }
    std::vector<Unit>& units = c.units;

    // A conjunct that binds reads the stats of the same columns over every
    // schema it binds to, so its selectivity is estimated once.
    struct JoinPredicate {
      const Expr* expr;
      double selectivity = -1.0;  // Not estimated yet.
    };
    c.pushed.resize(units.size());
    std::vector<JoinPredicate> join_predicates;
    for (const Expr* pred : conjuncts) {
      // First match wins; schemas are disjoint after aliasing.
      auto target = std::find_if(units.begin(), units.end(), [&](const Unit& u) {
        return ExprBindsTo(*pred, u.shape.schema);
      });
      if (target == units.end()) {
        join_predicates.push_back({pred});
        continue;
      }
      target->cardinality *=
          EstimateSelectivity(*pred, target->shape.schema, catalog_);
      c.pushed[static_cast<size_t>(target - units.begin())].push_back(pred);
    }
    if (units.size() == 1 && !join_predicates.empty()) {
      // Residual join predicates that bind nowhere would be a planning bug.
      return Status::InvalidArgument(
          "predicate references columns outside the query: " +
          join_predicates[0].expr->ToString());
    }

    // Start from the (first) smallest unit.
    const size_t start = static_cast<size_t>(
        std::min_element(units.begin(), units.end(),
                         [](const Unit& a, const Unit& b) {
                           return a.cardinality < b.cardinality;
                         }) -
        units.begin());
    std::vector<size_t> remaining;
    for (size_t i = 0; i < units.size(); ++i) {
      if (i != start) remaining.push_back(i);
    }
    c.order.push_back(start);
    RecordAliases(*units[start].plan);
    Schema current = units[start].shape.schema;
    double current_cardinality = units[start].cardinality;

    while (!remaining.empty()) {
      // For each candidate, find the predicates that would apply and the
      // estimated result size; choose the cheapest (connected joins beat
      // cross joins by construction of the estimate).
      double best_cost = std::numeric_limits<double>::infinity();
      size_t best_index = 0;
      bool best_connected = false;
      for (size_t i = 0; i < remaining.size(); ++i) {
        const Unit& candidate = units[remaining[i]];
        Schema combined = current.Concat(candidate.shape.schema);
        double sel = 1.0;
        bool connected = false;
        for (JoinPredicate& pred : join_predicates) {
          if (!ExprBindsTo(*pred.expr, combined)) continue;
          connected = true;
          if (pred.selectivity < 0.0) {
            pred.selectivity = EstimateSelectivity(*pred.expr, combined, catalog_);
          }
          sel *= pred.selectivity;
        }
        double cost = current_cardinality * candidate.cardinality * sel;
        if (!connected) {
          cost = current_cardinality * candidate.cardinality;  // Cross join.
        }
        if ((connected && !best_connected) ||
            (connected == best_connected && cost < best_cost)) {
          best_cost = cost;
          best_index = i;
          best_connected = connected;
        }
      }

      const size_t next = remaining[best_index];
      remaining.erase(remaining.begin() + static_cast<long>(best_index));
      c.order.push_back(next);
      RecordAliases(*units[next].plan);
      current = std::move(current).Concat(units[next].shape.schema);
      std::vector<const Expr*>& applicable = c.conditions.emplace_back();
      for (auto it = join_predicates.begin(); it != join_predicates.end();) {
        if (ExprBindsTo(*it->expr, current)) {
          applicable.push_back(it->expr);
          it = join_predicates.erase(it);
        } else {
          ++it;
        }
      }
      current_cardinality = best_cost;
    }
    // Predicates that never bound (references outside the cluster).
    for (const JoinPredicate& pred : join_predicates) c.residual.push_back(pred.expr);
    return c;
  }

  const std::vector<std::string>& join_order() const { return join_order_; }

 private:
  Status Flatten(const PlanNode& node, std::vector<Unit>* units,
                 std::vector<const Expr*>* conjuncts) {
    switch (node.kind) {
      case PlanKind::kPrefer:
        return Flatten(node.child(), units, conjuncts);
      case PlanKind::kSelect:
        CollectConjuncts(*node.predicate, conjuncts);
        return Flatten(node.child(), units, conjuncts);
      case PlanKind::kJoin: {
        const size_t first = conjuncts->size();
        CollectConjuncts(*node.predicate, conjuncts);
        // Drop constant TRUE padding introduced by prior rewrites.
        auto padding = [](const Expr* e) {
          return e->kind() == ExprKind::kLiteral &&
                 IsTruthy(static_cast<const LiteralExpr*>(e)->value());
        };
        conjuncts->erase(std::remove_if(conjuncts->begin() + static_cast<long>(first),
                                        conjuncts->end(), padding),
                         conjuncts->end());
        RETURN_IF_ERROR(Flatten(node.child(0), units, conjuncts));
        return Flatten(node.child(1), units, conjuncts);
      }
      default: {
        ASSIGN_OR_RETURN(Unit unit, Optimize(node));
        units->push_back(std::move(unit));
        return Status::OK();
      }
    }
  }

  void RecordAliases(const PlanNode& node) {
    if (node.kind == PlanKind::kScan) {
      join_order_.push_back(node.alias.empty() ? node.table_name : node.alias);
      return;
    }
    for (const PlanPtr& c : node.children) RecordAliases(*c);
  }

  // Builds `c`'s left-deep tree: each unit under its pushed conjuncts,
  // joined in order, under the residual conjuncts. Join reordering permutes
  // the output column order, so a projection restores the cluster's own
  // schema: callers (and the preference layer's score relations) see an
  // unchanged shape.
  StatusOr<Unit> Build(Cluster c) {
    Schema schema;  // The cluster's own: its units' in flatten order.
    for (const Unit& u : c.units) schema = std::move(schema).Concat(u.shape.schema);
    auto unit = [&c](size_t i) {
      Unit u = std::move(c.units[i]);
      for (const Expr* p : c.pushed[i]) {
        u.plan = plan::Select(p->Clone(), std::move(u.plan));
      }
      return u;
    };
    Unit current = unit(c.order[0]);
    for (size_t k = 1; k < c.order.size(); ++k) {
      Unit next = unit(c.order[k]);
      PlanShape shapes[] = {std::move(current.shape), std::move(next.shape)};
      const double cards[] = {current.cardinality, next.cardinality};
      ASSIGN_OR_RETURN(current,
                       Attach(plan::Join(Combine(c.conditions[k - 1]),
                                         std::move(current.plan),
                                         std::move(next.plan)),
                              shapes, cards));
    }
    if (!c.residual.empty()) {
      ASSIGN_OR_RETURN(current, Attach(plan::Select(Combine(c.residual),
                                                    std::move(current.plan)),
                                       {&current.shape, 1}, {&current.cardinality, 1}));
    }
    if (current.shape.schema == schema) return current;
    std::vector<std::string> columns;
    columns.reserve(schema.size());
    for (const Column& col : schema.columns()) columns.push_back(col.FullName());
    return Attach(plan::Project(std::move(columns), std::move(current.plan)),
                  {&current.shape, 1}, {&current.cardinality, 1});
  }

  // A unit for `node`, built over children whose shapes and cardinalities
  // are `shapes` (consumed) and `cards`.
  StatusOr<Unit> Attach(PlanPtr node, std::span<PlanShape> shapes,
                        std::span<const double> cards) {
    ASSIGN_OR_RETURN(PlanShape shape, DeriveNodeShape(*node, shapes, catalog_));
    const double card = NodeCardinality(*node, cards, &shape.schema, catalog_);
    return Unit{std::move(node), std::move(shape), card};
  }

  const Catalog& catalog_;
  std::vector<std::string> join_order_;
};

}  // namespace

StatusOr<NativeOptimizerResult> NativeOptimize(const PlanNode& input,
                                               const Catalog& catalog) {
  if (input.ContainsPrefer()) {
    return Status::InvalidArgument(
        "native optimizer received an extended plan (contains prefer)");
  }
  // Validate before and after: rewrites must preserve well-formedness.
  RETURN_IF_ERROR(DerivePlanShape(input, catalog).status());
  NativeOptimizer optimizer(catalog);
  ASSIGN_OR_RETURN(Unit optimized, optimizer.Optimize(input));
  RETURN_IF_ERROR(DerivePlanShape(*optimized.plan, catalog).status());
  NativeOptimizerResult result;
  result.plan = std::move(optimized.plan);
  result.join_order = optimizer.join_order();
  return result;
}

StatusOr<std::vector<std::string>> NativeJoinOrder(
    const std::vector<const PlanNode*>& units,
    const std::vector<const Expr*>& predicates, const Catalog& catalog) {
  NativeOptimizer optimizer(catalog);
  RETURN_IF_ERROR(optimizer.PlanCluster(units, predicates).status());
  return optimizer.join_order();
}

}  // namespace prefdb
