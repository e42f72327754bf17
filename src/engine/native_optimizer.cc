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

// A semi-join that filters a cluster: its predicate, its optimized member
// side, and the unit holding its local columns.
struct SemiJoinFilter {
  const Expr* predicate;
  Unit member;
  size_t unit = 0;  // An index into Cluster::units.
};

// The filters of a chain of Selects and SemiJoins that ends on a Project:
// what may sink through it into the cluster under it. PlanCluster takes
// those that bind below the Project and leaves the rest here.
struct Filters {
  std::vector<const Expr*> conjuncts;
  std::vector<SemiJoinFilter> semijoins;
};

// A flattened join cluster after predicate placement and the greedy
// ordering step: what NativeOptimize builds its left-deep tree from, and
// what NativeJoinOrder reads the order off.
struct Cluster {
  std::vector<Unit> units;  // Cardinalities include their pushed conjuncts.
  Schema schema;            // The cluster's own: its units' in flatten order.
  std::vector<std::vector<const Expr*>> pushed;  // Per unit, in push order.
  std::vector<size_t> order;  // Units, outermost first.
  // conditions[k]: the conjuncts of the join that adds units[order[k + 1]].
  std::vector<std::vector<const Expr*>> conditions;
  std::vector<const Expr*> residual;  // Conjuncts no join could take.
  std::vector<SemiJoinFilter> semijoins;  // Sunk into the cluster.
};

ExprPtr Combine(const std::vector<const Expr*>& conjuncts) {
  std::vector<ExprPtr> copies;
  copies.reserve(conjuncts.size());
  for (const Expr* c : conjuncts) copies.push_back(c->Clone());
  return CombineConjuncts(std::move(copies));
}

// Drops the constant-TRUE conjuncts at `first` and after: the padding of
// prior rewrites and a membership preference's `(true)` condition.
void DropTrue(std::vector<const Expr*>* conjuncts, size_t first) {
  auto constant_true = [](const Expr* e) {
    return e->kind() == ExprKind::kLiteral &&
           IsTruthy(static_cast<const LiteralExpr*>(e)->value());
  };
  conjuncts->erase(std::remove_if(conjuncts->begin() + static_cast<long>(first),
                                  conjuncts->end(), constant_true),
                   conjuncts->end());
}

// The Project that a chain of Selects and SemiJoins starting at `node`
// (the chain's left inputs) ends on, or null.
const PlanNode* ProjectUnderFilters(const PlanNode& node) {
  const PlanNode* n = &node;
  while (n->kind == PlanKind::kSelect || n->kind == PlanKind::kSemiJoin) {
    n = &n->child(0);
  }
  return n != &node && n->kind == PlanKind::kProject ? n : nullptr;
}

class NativeOptimizer {
 public:
  explicit NativeOptimizer(const Catalog& catalog) : catalog_(catalog) {}

  StatusOr<Unit> Optimize(const PlanNode& node) {
    // Prefer operators are looked through, as if stripped: NativeOptimize
    // rejects extended plans up front, and NativeJoinOrder orders Q_NP's
    // units straight from the extended plan.
    if (node.kind == PlanKind::kPrefer) return Optimize(node.child());
    if (const PlanNode* project = ProjectUnderFilters(node)) {
      return Sink(node, *project);
    }
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
  // conjuncts of `predicates` into optimized units, takes the filters of
  // `sink` that bind to the cluster's schema, pushes every conjunct that
  // binds to a single unit onto it, then orders the units greedily by
  // estimated cardinality, preferring connected (non-cross) joins.
  StatusOr<Cluster> PlanCluster(const std::vector<const PlanNode*>& roots,
                                const std::vector<const Expr*>& predicates,
                                Filters* sink = nullptr) {
    Cluster c;
    std::vector<const Expr*> conjuncts;
    for (const Expr* p : predicates) CollectConjuncts(*p, &conjuncts);
    for (const PlanNode* root : roots) {
      RETURN_IF_ERROR(Flatten(*root, &c.units, &conjuncts));
    }
    std::vector<Unit>& units = c.units;
    for (const Unit& u : units) c.schema = std::move(c.schema).Concat(u.shape.schema);
    if (sink != nullptr) Take(sink, &c, &conjuncts);

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
    const size_t first = conjuncts->size();
    switch (node.kind) {
      case PlanKind::kPrefer:
        return Flatten(node.child(), units, conjuncts);
      case PlanKind::kSelect:
        // Filters over a Project make a unit, sinking through it (Optimize).
        if (ProjectUnderFilters(node) != nullptr) break;
        CollectConjuncts(*node.predicate, conjuncts);
        DropTrue(conjuncts, first);
        return Flatten(node.child(), units, conjuncts);
      case PlanKind::kJoin:
        CollectConjuncts(*node.predicate, conjuncts);
        DropTrue(conjuncts, first);
        RETURN_IF_ERROR(Flatten(node.child(0), units, conjuncts));
        return Flatten(node.child(1), units, conjuncts);
      default:
        break;
    }
    ASSIGN_OR_RETURN(Unit unit, Optimize(node));
    units->push_back(std::move(unit));
    return Status::OK();
  }

  // Select(p, Project(c, X)) becomes Project(c, Select(p', X)), and
  // SemiJoin(m, Project(c, X), S) becomes Project(c, SemiJoin(m, X, S)), for
  // the chain of Selects and SemiJoins from `top` down to `project`. p' is
  // the conjuncts of p that bind to X's own schema: a name that is unique
  // above the Project but ambiguous below it stays above. A semi-join sinks
  // when one unit of X holds its local columns. X's cluster places what
  // sinks (Take, Build); the rest stays above the Project.
  StatusOr<Unit> Sink(const PlanNode& top, const PlanNode& project) {
    Filters filters;
    for (const PlanNode* n = &top; n != &project; n = &n->child(0)) {
      if (n->kind == PlanKind::kSelect) {
        CollectConjuncts(*n->predicate, &filters.conjuncts);
        continue;
      }
      ASSIGN_OR_RETURN(Unit member, Optimize(n->child(1)));
      filters.semijoins.push_back({n->predicate.get(), std::move(member)});
    }
    DropTrue(&filters.conjuncts, 0);
    ASSIGN_OR_RETURN(Cluster cluster, PlanCluster({&project.child()}, {}, &filters));
    ASSIGN_OR_RETURN(Unit below, Build(std::move(cluster)));
    PlanPtr copy = project.CloneNode();
    copy->children.push_back(std::move(below.plan));
    ASSIGN_OR_RETURN(Unit current, Attach(std::move(copy), {&below.shape, 1},
                                          {&below.cardinality, 1}));
    if (!filters.conjuncts.empty()) {
      ASSIGN_OR_RETURN(current, Attach(plan::Select(Combine(filters.conjuncts),
                                                    std::move(current.plan)),
                                       {&current.shape, 1}, {&current.cardinality, 1}));
    }
    for (SemiJoinFilter& f : filters.semijoins) {
      ASSIGN_OR_RETURN(current, AttachSemiJoin(&f, std::move(current)));
    }
    return current;
  }

  // Moves the filters of `sink` that bind below the Project into `c`:
  // conjuncts that bind to the cluster's own schema join `conjuncts`, to be
  // pushed like the cluster's own, and a semi-join goes to the one unit
  // that holds its local columns.
  void Take(Filters* sink, Cluster* c, std::vector<const Expr*>* conjuncts) {
    auto below = std::stable_partition(
        sink->conjuncts.begin(), sink->conjuncts.end(),
        [c](const Expr* e) { return !ExprBindsTo(*e, c->schema); });
    conjuncts->insert(conjuncts->end(), below, sink->conjuncts.end());
    sink->conjuncts.erase(below, sink->conjuncts.end());

    std::vector<SemiJoinFilter> above;
    for (SemiJoinFilter& f : sink->semijoins) {
      auto unit = std::find_if(c->units.begin(), c->units.end(), [&f](const Unit& u) {
        return ExprBindsTo(*f.predicate, u.shape.schema.Concat(f.member.shape.schema));
      });
      if (unit == c->units.end()) {
        above.push_back(std::move(f));
        continue;
      }
      f.unit = static_cast<size_t>(unit - c->units.begin());
      c->semijoins.push_back(std::move(f));
    }
    sink->semijoins = std::move(above);
  }

  void RecordAliases(const PlanNode& node) {
    if (node.kind == PlanKind::kScan) {
      join_order_.push_back(node.alias.empty() ? node.table_name : node.alias);
      return;
    }
    for (const PlanPtr& c : node.children) RecordAliases(*c);
  }

  // Builds `c`'s left-deep tree: each unit under one Select of its pushed
  // conjuncts (so that a scan fuses them all), joined in order, under the
  // residual conjuncts. A sunk semi-join sits directly on its unit when that
  // unit is the first, else right above the join that adds it: never under
  // a join's build side, which would cost the build its persistent index.
  // Join reordering permutes the output column order, so a projection
  // restores the cluster's own schema: callers (and the preference layer's
  // score relations) see an unchanged shape.
  StatusOr<Unit> Build(Cluster c) {
    auto unit = [&c](size_t i) {
      Unit u = std::move(c.units[i]);
      if (!c.pushed[i].empty()) {
        u.plan = plan::Select(Combine(c.pushed[i]), std::move(u.plan));
      }
      return u;
    };
    // The semi-joins placed at unit `i`.
    auto semijoins = [this, &c](size_t i, Unit current) -> StatusOr<Unit> {
      for (SemiJoinFilter& f : c.semijoins) {
        if (f.unit != i) continue;
        ASSIGN_OR_RETURN(current, AttachSemiJoin(&f, std::move(current)));
      }
      return current;
    };
    ASSIGN_OR_RETURN(Unit current, semijoins(c.order[0], unit(c.order[0])));
    for (size_t k = 1; k < c.order.size(); ++k) {
      Unit next = unit(c.order[k]);
      PlanShape shapes[] = {std::move(current.shape), std::move(next.shape)};
      const double cards[] = {current.cardinality, next.cardinality};
      ASSIGN_OR_RETURN(current,
                       Attach(plan::Join(Combine(c.conditions[k - 1]),
                                         std::move(current.plan),
                                         std::move(next.plan)),
                              shapes, cards));
      ASSIGN_OR_RETURN(current, semijoins(c.order[k], std::move(current)));
    }
    if (!c.residual.empty()) {
      ASSIGN_OR_RETURN(current, Attach(plan::Select(Combine(c.residual),
                                                    std::move(current.plan)),
                                       {&current.shape, 1}, {&current.cardinality, 1}));
    }
    if (current.shape.schema == c.schema) return current;
    std::vector<std::string> columns;
    columns.reserve(c.schema.size());
    for (const Column& col : c.schema.columns()) columns.push_back(col.FullName());
    return Attach(plan::Project(std::move(columns), std::move(current.plan)),
                  {&current.shape, 1}, {&current.cardinality, 1});
  }

  // `f` (its member side consumed) over `left`.
  StatusOr<Unit> AttachSemiJoin(SemiJoinFilter* f, Unit left) {
    PlanShape shapes[] = {std::move(left.shape), std::move(f->member.shape)};
    const double cards[] = {left.cardinality, f->member.cardinality};
    return Attach(plan::SemiJoin(f->predicate->Clone(), std::move(left.plan),
                                 std::move(f->member.plan)),
                  shapes, cards);
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
