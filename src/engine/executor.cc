#include "engine/executor.h"

#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/fault_injection.h"

namespace prefdb {

namespace {

class Executor {
 public:
  Executor(Catalog* catalog, ExecStats* stats, const NativeExecOptions& options)
      : catalog_(catalog),
        stats_(stats),
        governor_(options.governor),
        metrics_(options.metrics == nullptr ? NativeExecMetrics{}
                                            : *options.metrics) {}

  StatusOr<RowView> Execute(const PlanNode& node, obs::Span* parent) {
    ++stats_->operator_invocations;
    // Operator-entry checkpoint: bounds cancellation latency to one
    // operator.
    RETURN_IF_ERROR(GovernorCheck(governor_));
    RETURN_IF_ERROR(FaultInjection::Global().Hit("exec.operator"));
    switch (node.kind) {
      case PlanKind::kScan:
        return ExecScan(node, /*predicate=*/nullptr, parent);
      case PlanKind::kSelect:
        // Fuse Select(Scan) so base predicates can use indexes and run
        // compiled over the table's columns.
        if (node.child().kind == PlanKind::kScan) {
          return ExecScan(node.child(), node.predicate.get(), parent);
        }
        return ExecSelect(node, parent);
      case PlanKind::kProject:
        return ExecProject(node, parent);
      case PlanKind::kJoin:
        return ExecJoin(node, /*semi=*/false, parent);
      case PlanKind::kSemiJoin:
        return ExecJoin(node, /*semi=*/true, parent);
      case PlanKind::kUnion:
      case PlanKind::kIntersect:
      case PlanKind::kExcept:
        return ExecSetOp(node, parent);
      case PlanKind::kDistinct:
        return ExecDistinct(node, parent);
      case PlanKind::kSort:
        return ExecSort(node, parent);
      case PlanKind::kLimit:
        return ExecLimit(node, parent);
      case PlanKind::kPrefer:
        return Status::Unimplemented(
            "the conventional executor cannot evaluate prefer operators; "
            "use a preference-aware execution strategy");
    }
    return Status::Internal("unknown plan kind");
  }

 private:
  // Every operator's exit: counts the output as materialized (the paper's
  // cost metric counts intermediate rows, however they are represented)
  // and annotates the span.
  RowView Finish(RowView out, obs::Span* span) {
    stats_->tuples_materialized += out.NumRows();
    obs::SetRowsOut(span, out.NumRows());
    return out;
  }

  static void Bump(obs::Counter* counter, size_t n) {
    if (counter != nullptr) counter->Increment(n);
  }

  StatusOr<RowView> ExecScan(const PlanNode& node, const Expr* predicate,
                             obs::Span* parent) {
    obs::SpanScope scope(parent, "native.scan");
    ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                     catalog_->PinTable(node.table_name));
    // Strategy-registered temporaries carry a process-unique counter in
    // their name; masking it keeps the timing-free trace rendering
    // byte-identical run to run (the determinism contract).
    obs::AppendDetail(
        scope.get(),
        table->temporary()
            ? "table=<temp>"
            : "table=" + (node.alias.empty() ? node.table_name : node.alias));
    Schema schema = table->schema();
    if (!node.alias.empty() && node.alias != node.table_name) {
      schema = schema.WithQualifier(node.alias);
    }
    const RowView* temp = table->view();
    RowView out;
    if (temp != nullptr) {
      // A view-backed temporary is read in place: the scan is its view.
      // An identity view over a base table stays one, so a join can probe
      // that table's index.
      out.sources = temp->sources;
      out.columns = temp->columns;
      out.key_columns = temp->key_columns;
      out.schema = schema;
      if (predicate == nullptr) out.base_table = temp->base_table;
    } else {
      out = RowView::Over(schema, table->primary_key(), &table->store());
      if (predicate == nullptr) out.base_table = table.get();
    }
    // The view pins the table (and so whatever a temp's view pins): it
    // stays readable after a drop or reload.
    out.owned.push_back(table);

    // Try an index scan: find an `col = literal` conjunct. A view-backed
    // temp has no index; its rows are filtered in place.
    ExprPtr bound;
    int index_col = -1;
    Value index_key;
    if (predicate != nullptr) {
      bound = predicate->Clone();
      RETURN_IF_ERROR(bound->Bind(schema));
      if (temp == nullptr) FindIndexableConjunct(*bound, schema, &index_col, &index_key);
    }
    if (index_col >= 0) {
      const HashIndex& index = table->EnsureIndex(static_cast<size_t>(index_col));
      std::span<const uint32_t> matches = index.Lookup(index_key);
      obs::AppendDetail(scope.get(), "index");
      out.ids.assign(matches.begin(), matches.end());
    } else if (temp != nullptr) {
      out.ids = temp->ids;
    } else {
      // A full scan is the id range over the table's rows.
      out.ids.resize(table->NumRows());
      std::iota(out.ids.begin(), out.ids.end(), 0u);
    }
    stats_->rows_scanned += out.NumRows();
    Bump(metrics_.scan_rows, out.NumRows());
    obs::SetRowsIn(scope.get(), out.NumRows());
    if (bound != nullptr) {
      // The compiled predicate runs over the table's columns: the full scan's
      // rows, or the index matches.
      out.Keep(FilterRows(out, *bound, governor_));
    }
    return Finish(std::move(out), scope.get());
  }

  // Looks for an equality conjunct between a column of `schema` and a
  // literal, to serve via hash index. Prefers higher-selectivity (key)
  // columns implicitly by taking the first match.
  static void FindIndexableConjunct(const Expr& bound, const Schema& schema,
                                    int* col_out, Value* key_out) {
    if (bound.kind() == ExprKind::kLogical) {
      const auto& logical = static_cast<const LogicalExpr&>(bound);
      if (logical.op() != LogicalOp::kAnd) return;
      FindIndexableConjunct(logical.left(), schema, col_out, key_out);
      if (*col_out < 0) {
        FindIndexableConjunct(logical.right(), schema, col_out, key_out);
      }
      return;
    }
    if (bound.kind() != ExprKind::kComparison) return;
    const auto& cmp = static_cast<const ComparisonExpr&>(bound);
    if (cmp.op() != CompareOp::kEq) return;
    const Expr* col = &cmp.left();
    const Expr* lit = &cmp.right();
    if (col->kind() != ExprKind::kColumnRef) std::swap(col, lit);
    if (col->kind() != ExprKind::kColumnRef || lit->kind() != ExprKind::kLiteral) {
      return;
    }
    int idx = static_cast<const ColumnRefExpr*>(col)->index();
    if (idx < 0) return;
    *col_out = idx;
    *key_out = static_cast<const LiteralExpr*>(lit)->value();
  }

  StatusOr<RowView> ExecSelect(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.select");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    ExprPtr bound = node.predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(input.schema));
    obs::SetRowsIn(scope.get(), input.NumRows());
    input.Keep(FilterRows(input, *bound, governor_));
    return Finish(std::move(input), scope.get());
  }

  StatusOr<RowView> ExecProject(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.project");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    // Projection only remaps columns; the ids pass through untouched.
    RETURN_IF_ERROR(ProjectView(node.project_columns, &input));
    return Finish(std::move(input), scope.get());
  }

  StatusOr<RowView> ExecJoin(const PlanNode& node, bool semi,
                             obs::Span* parent) {
    obs::SpanScope scope(parent, "native.join");
    if (semi) obs::AppendDetail(scope.get(), "semi");
    ASSIGN_OR_RETURN(RowView left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(RowView right, Execute(node.child(1), scope.get()));
    const size_t nl = left.NumRows();
    const size_t nr = right.NumRows();
    obs::SetRowsIn(scope.get(), nl + nr);
    ExprPtr bound = node.predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(left.schema.Concat(right.schema)));
    ASSIGN_OR_RETURN(std::optional<EquiKeys> keys,
                     FindEquiKeys(*node.predicate, left.schema, right.schema));

    // Hash join: build on the right input, probe with the left. A right
    // input that is a full scan of a base table, or of a temp whose view is
    // the identity over one, is already indexed: the table's persistent
    // HashIndex on the key column (built on first use) lists the matching
    // row ids, which are that scan's view positions.
    // Any other right input gets a per-query JoinTable. Without an
    // equi-conjunct it is a nested-loop join.
    std::optional<JoinBuild> build;
    if (keys.has_value()) {
      obs::AppendDetail(scope.get(), "hash");
      obs::SpanScope build_scope(scope.get(), "native.join.build");
      obs::SetRowsIn(build_scope.get(), nr);
      const HashIndex* index = nullptr;
      if (node.child(1).kind == PlanKind::kScan && right.base_table != nullptr) {
        obs::AppendDetail(build_scope.get(), "index");
        index = &right.base_table->EnsureIndex(right.columns[keys->right].column);
        Bump(metrics_.join_index_hits, 1);
      }
      build.emplace(right, *keys, index);
      obs::SetRowsOut(build_scope.get(), build->DistinctKeys());
      Bump(metrics_.join_build_rows, nr);
    } else {
      obs::AppendDetail(scope.get(), "nested_loop");
    }
    obs::SpanScope probe_scope(scope.get(), "native.join.probe");
    obs::SetRowsIn(probe_scope.get(), nl);
    Bump(metrics_.join_probe_rows, nl);
    RowView out = JoinRows(left, right, *bound, semi,
                           build.has_value() ? &*build : nullptr, governor_,
                           nullptr);
    obs::SetRowsOut(probe_scope.get(), out.NumRows());
    probe_scope.Finish();
    return Finish(std::move(out), scope.get());
  }

  static const char* SetOpSpanName(PlanKind kind) {
    switch (kind) {
      case PlanKind::kUnion:
        return "native.union";
      case PlanKind::kIntersect:
        return "native.intersect";
      case PlanKind::kExcept:
        return "native.except";
      default:
        return "native.setop";
    }
  }

  StatusOr<RowView> ExecSetOp(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, SetOpSpanName(node.kind));
    ASSIGN_OR_RETURN(RowView left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(RowView right, Execute(node.child(1), scope.get()));
    if (left.schema.size() != right.schema.size()) {
      return Status::InvalidArgument("set operation inputs differ in arity");
    }
    const size_t nl = left.NumRows();
    obs::SetRowsIn(scope.get(), nl + right.NumRows());
    // Intersect and except count the left rows probed for membership.
    if (node.kind != PlanKind::kUnion) Bump(metrics_.setop_probe_rows, nl);
    ASSIGN_OR_RETURN(std::vector<SetMatch> matches,
                     MatchSetOp(node.kind, left, right, governor_));
    return Finish(SetOpView(left, right, matches), scope.get());
  }

  StatusOr<RowView> ExecDistinct(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.distinct");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    const size_t n = input.NumRows();
    obs::SetRowsIn(scope.get(), n);
    Bump(metrics_.distinct_rows, n);
    input.Keep(DistinctRows(input, governor_));
    return Finish(std::move(input), scope.get());
  }

  StatusOr<RowView> ExecSort(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.sort");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    ASSIGN_OR_RETURN(std::vector<uint32_t> order, SortRows(input, node.sort_keys));
    input.Keep(order);
    return Finish(std::move(input), scope.get());
  }

  StatusOr<RowView> ExecLimit(const PlanNode& node, obs::Span* parent) {
    obs::SpanScope scope(parent, "native.limit");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    input.Truncate(node.limit);
    return Finish(std::move(input), scope.get());
  }

  Catalog* catalog_;
  ExecStats* stats_;
  const QueryGovernor* governor_;  // Null = ungoverned.
  NativeExecMetrics metrics_;      // All-null when metrics are off.
};

}  // namespace

StatusOr<RowView> ExecutePlan(const PlanNode& node, Catalog* catalog,
                              ExecStats* stats,
                              const NativeExecOptions& options) {
  Executor executor(catalog, stats, options);
  return executor.Execute(node, options.span);
}

StatusOr<RowView> ExecutePlan(const PlanNode& node, Catalog* catalog,
                              ExecStats* stats) {
  return ExecutePlan(node, catalog, stats, NativeExecOptions());
}

}  // namespace prefdb
