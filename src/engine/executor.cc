#include "engine/executor.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/fault_injection.h"
#include "common/string_util.h"
#include "parallel/morsel.h"

namespace prefdb {

namespace {

// Output column of a view: column `column` of the rows of input `input`.
struct ColumnSource {
  uint32_t input;
  uint32_t column;
};

// An intermediate result as row ids (late materialization). A row is one
// uint32_t per joined input, indexing that input's row source: a base
// table's immutable row vector (the catalog keeps its tables for the whole
// ExecutePlan call), or rows a cold operator gathered and the view owns.
// `columns` maps each output column to (input, column). Scans,
// joins and projections only produce and remap ids; values are copied once,
// when the root gathers the result Relation.
struct RowView {
  Schema schema;
  std::vector<size_t> key_columns;
  std::vector<const std::vector<Tuple>*> sources;  // One per input.
  std::vector<ColumnSource> columns;               // One per output column.
  std::vector<uint32_t> ids;                       // Row-major, width() per row.
  // Keeps gathered sources alive for as long as some view points into them.
  std::vector<std::shared_ptr<const std::vector<Tuple>>> owned;
  // The base table a predicate-free scan of a non-temporary table read in
  // full (the view is then the identity id range over its rows), else null.
  // A join reads it only when this view is straight out of the scan.
  Table* base_table = nullptr;

  // A one-input view with identity columns over `rows`, holding no rows yet.
  static RowView Over(Schema schema, std::vector<size_t> keys,
                      const std::vector<Tuple>* rows) {
    RowView view;
    view.columns.reserve(schema.size());
    for (size_t c = 0; c < schema.size(); ++c) {
      view.columns.push_back({0, static_cast<uint32_t>(c)});
    }
    view.schema = std::move(schema);
    view.key_columns = std::move(keys);
    view.sources.push_back(rows);
    return view;
  }

  // A view owning `rows`, keeping the rows listed in `keep` (in order).
  static RowView Owning(Schema schema, std::vector<size_t> keys,
                        std::vector<Tuple> rows, std::vector<uint32_t> keep) {
    auto owned = std::make_shared<const std::vector<Tuple>>(std::move(rows));
    RowView view = Over(std::move(schema), std::move(keys), owned.get());
    view.owned.push_back(std::move(owned));
    view.ids = std::move(keep);
    return view;
  }

  size_t width() const { return sources.size(); }
  size_t NumRows() const { return ids.size() / width(); }
  const uint32_t* Row(size_t r) const { return ids.data() + r * width(); }
  const Value& At(size_t r, size_t c) const {
    const ColumnSource& src = columns[c];
    return (*sources[src.input])[ids[r * width() + src.input]][src.column];
  }
  void AppendRow(const uint32_t* row, std::vector<uint32_t>* out) const {
    out->insert(out->end(), row, row + width());
  }

  Tuple Gather(size_t r) const {
    Tuple row;
    row.reserve(columns.size());
    for (size_t c = 0; c < columns.size(); ++c) row.push_back(At(r, c));
    return row;
  }
  std::vector<Tuple> GatherAll() const {
    std::vector<Tuple> rows;
    rows.reserve(NumRows());
    for (size_t r = 0; r < NumRows(); ++r) rows.push_back(Gather(r));
    return rows;
  }
};

// Evaluates a predicate bound to a (possibly concatenated) schema against
// rows that exist only as ids: the columns the predicate reads are copied
// into a reused scratch tuple, the others stay NULL and are never read.
class ScratchRow {
 public:
  ScratchRow(const Expr& bound, const Schema& schema)
      : bound_(&bound), scratch_(schema.size()) {
    std::vector<std::string> names;
    bound.CollectColumns(&names);
    for (const std::string& name : names) {
      // Bind already resolved every name against `schema`.
      used_.push_back(static_cast<size_t>(schema.FindColumnOrNegative(name)));
    }
    std::sort(used_.begin(), used_.end());
    used_.erase(std::unique(used_.begin(), used_.end()), used_.end());
  }

  // Copies row `r` of `view` into the scratch row, view column c landing at
  // position `offset + c`; only the columns the predicate reads are copied.
  void Load(const RowView& view, size_t r, size_t offset) {
    for (size_t c : used_) {
      if (c >= offset && c < offset + view.columns.size()) {
        scratch_[c] = view.At(r, c - offset);
      }
    }
  }

  bool Test() const { return IsTruthy(bound_->Eval(scratch_)); }

 private:
  const Expr* bound_;
  Tuple scratch_;
  std::vector<size_t> used_;
};

constexpr uint32_t kNoRow = UINT32_MAX;
// How many probe rows ahead an index-served join prefetches.
constexpr size_t kPrefetchAhead = 8;

// The hash join's build table: open addressing from a key to the chain of
// build positions holding it, in insertion order, in flat arrays — heads
// per slot, next per build position. Keys stay in the build view and are
// compared in place. A probe matches exactly when the key hashes equal and
// the values compare equal (Value::operator==), like an unordered_map. NULL
// keys are never inserted and never match (`NULL = x` is not true).
class JoinTable {
 public:
  JoinTable(const RowView& build, size_t column)
      : build_(&build), column_(column), next_(build.NumRows(), kNoRow) {
    const size_t n = build.NumRows();
    size_t capacity = 16;
    while (capacity < 2 * n) capacity <<= 1;
    mask_ = capacity - 1;
    heads_.assign(capacity, kNoRow);
    hashes_.resize(capacity);
    // Prepending in reverse position order leaves every chain ascending.
    for (size_t j = n; j-- > 0;) {
      const Value& key = build.At(j, column);
      if (key.is_null()) {
        null_key_ = true;
        continue;
      }
      const size_t hash = key.Hash();
      size_t slot = Slot(key, hash);
      if (heads_[slot] == kNoRow) {
        hashes_[slot] = hash;
        ++distinct_;
      } else {
        next_[j] = heads_[slot];
      }
      heads_[slot] = static_cast<uint32_t>(j);
    }
  }

  // First build position holding `key`, or kNoRow; continue with Next().
  uint32_t Find(const Value& key) const {
    if (key.is_null()) return kNoRow;
    return heads_[Slot(key, key.Hash())];
  }
  uint32_t Next(uint32_t pos) const { return next_[pos]; }

  // Distinct build keys, NULL counted as one key.
  size_t DistinctKeys() const { return distinct_ + (null_key_ ? 1 : 0); }

 private:
  // The slot holding `key`, or the empty slot where it would go.
  size_t Slot(const Value& key, size_t hash) const {
    size_t slot = (hash * 0x9e3779b97f4a7c15ULL >> 17) & mask_;
    while (heads_[slot] != kNoRow &&
           (hashes_[slot] != hash ||
            build_->At(heads_[slot], column_) != key)) {
      slot = (slot + 1) & mask_;
    }
    return slot;
  }

  const RowView* build_;
  size_t column_;
  size_t mask_ = 0;
  std::vector<uint32_t> heads_;
  std::vector<size_t> hashes_;
  std::vector<uint32_t> next_;
  size_t distinct_ = 0;
  bool null_key_ = false;
};

// Whole-row hash and equality through a view, consistent with TupleHash /
// TupleEq over the gathered rows.
size_t RowHash(const RowView& view, size_t r) {
  size_t h = 0x345678;
  for (size_t c = 0; c < view.columns.size(); ++c) {
    h = h * 1000003 ^ view.At(r, c).Hash();
  }
  return h;
}
bool RowEq(const RowView& view, size_t a, size_t b) {
  for (size_t c = 0; c < view.columns.size(); ++c) {
    if (view.At(a, c) != view.At(b, c)) return false;
  }
  return true;
}

struct TuplePtrHash {
  size_t operator()(const Tuple* t) const { return TupleHash()(*t); }
};
struct TuplePtrEq {
  bool operator()(const Tuple* a, const Tuple* b) const {
    return TupleEq()(*a, *b);
  }
};

class Executor {
 public:
  Executor(Catalog* catalog, ExecStats* stats, const NativeExecOptions& options)
      : catalog_(catalog),
        stats_(stats),
        parallel_(options.parallel),
        trace_level_(options.trace_level),
        metrics_(options.metrics == nullptr ? NativeExecMetrics{}
                                            : *options.metrics) {}

  // Executes `root` and gathers its rows into a Relation, inside the root
  // operator's span.
  StatusOr<Relation> Run(const PlanNode& root, obs::Span* parent) {
    Relation result;
    RETURN_IF_ERROR(Execute(root, parent, &result).status());
    return result;
  }

 private:
  // `gather` is non-null only for the root: the operator then copies its
  // output values into *gather before its span closes.
  StatusOr<RowView> Execute(const PlanNode& node, obs::Span* parent,
                            Relation* gather = nullptr) {
    ++stats_->operator_invocations;
    // Operator-entry checkpoint: bounds cancellation latency to one
    // operator even when every region below takes a single morsel.
    RETURN_IF_ERROR(GovernorCheck(parallel_));
    RETURN_IF_ERROR(FaultInjection::Global().Hit("exec.operator"));
    switch (node.kind) {
      case PlanKind::kScan:
        return ExecScan(node, /*predicate=*/nullptr, parent, gather);
      case PlanKind::kSelect:
        // Fuse Select(Scan) so base predicates can use indexes and test
        // base rows in place.
        if (node.child().kind == PlanKind::kScan) {
          return ExecScan(node.child(), node.predicate.get(), parent, gather);
        }
        return ExecSelect(node, parent, gather);
      case PlanKind::kProject:
        return ExecProject(node, parent, gather);
      case PlanKind::kJoin:
        return ExecJoin(node, /*semi=*/false, parent, gather);
      case PlanKind::kSemiJoin:
        return ExecJoin(node, /*semi=*/true, parent, gather);
      case PlanKind::kUnion:
      case PlanKind::kIntersect:
      case PlanKind::kExcept:
        return ExecSetOp(node, parent, gather);
      case PlanKind::kDistinct:
        return ExecDistinct(node, parent, gather);
      case PlanKind::kSort:
        return ExecSort(node, parent, gather);
      case PlanKind::kLimit:
        return ExecLimit(node, parent, gather);
      case PlanKind::kPrefer:
        return Status::Unimplemented(
            "the conventional executor cannot evaluate prefer operators; "
            "use a preference-aware execution strategy");
    }
    return Status::Internal("unknown plan kind");
  }

  // Every operator's exit: counts the output as materialized (the paper's
  // cost metric counts intermediate rows, however they are represented),
  // annotates the span and, at the root, gathers the values.
  RowView Finish(RowView out, obs::Span* span, Relation* gather) {
    stats_->tuples_materialized += out.NumRows();
    obs::SetRowsOut(span, out.NumRows());
    if (gather != nullptr) {
      *gather = Relation(out.schema, out.GatherAll());
      gather->set_key_columns(out.key_columns);
    }
    return out;
  }

  // Partitioning decision for one operator region; counts regions that
  // actually split. The ExecStats block and every span stay owned by the
  // calling thread — worker slots only ever write their own per-morsel
  // buffers, and the caller merges them in morsel order at the join point,
  // so output (rows, order, counters, trace) is bit-identical at every
  // thread count. A serial plan is one covering morsel run inline.
  MorselPlan PlanFor(size_t n) {
    MorselPlan plan = MorselPlan::Make(n, parallel_);
    if (plan.slots() > 1) Bump(metrics_.parallel_regions, 1);
    return plan;
  }

  static void Bump(obs::Counter* counter, size_t n) {
    if (counter != nullptr) counter->Increment(n);
  }

  // The span the region's per-morsel slices attach to: the operator span at
  // TraceLevel::kMorsel, null otherwise (ParallelForTraced degrades to a
  // plain ParallelFor on null).
  obs::Span* MorselParent(obs::Span* op_span) const {
    return trace_level_ == obs::TraceLevel::kMorsel ? op_span : nullptr;
  }

  // Concatenates per-morsel id buffers in morsel order — the join point of
  // every morselized region here.
  static void MergeIds(std::vector<std::vector<uint32_t>>* buffers,
                       std::vector<uint32_t>* out) {
    size_t total = out->size();
    for (const std::vector<uint32_t>& local : *buffers) total += local.size();
    out->reserve(total);
    for (const std::vector<uint32_t>& local : *buffers) {
      out->insert(out->end(), local.begin(), local.end());
    }
  }

  StatusOr<RowView> ExecScan(const PlanNode& node, const Expr* predicate,
                             obs::Span* parent, Relation* gather) {
    obs::SpanScope scope(parent, "native.scan");
    ASSIGN_OR_RETURN(Table * table, catalog_->GetTable(node.table_name));
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
    const std::vector<Tuple>& rows = table->relation().rows();
    RowView out = RowView::Over(schema, table->primary_key(), &rows);

    if (predicate == nullptr) {
      // A predicate-free scan is the id range over the table's rows.
      if (!table->temporary()) out.base_table = table;
      stats_->rows_scanned += rows.size();
      Bump(metrics_.scan_rows, rows.size());
      obs::SetRowsIn(scope.get(), rows.size());
      out.ids.resize(rows.size());
      std::iota(out.ids.begin(), out.ids.end(), 0u);
      return Finish(std::move(out), scope.get(), gather);
    }

    // Try an index scan: find an `col = literal` conjunct.
    ExprPtr bound = predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(schema));
    int index_col = -1;
    Value index_key;
    FindIndexableConjunct(*bound, schema, &index_col, &index_key);
    if (index_col >= 0) {
      const HashIndex& index = table->EnsureIndex(static_cast<size_t>(index_col));
      std::span<const uint32_t> matches = index.Lookup(index_key);
      obs::AppendDetail(scope.get(), "index");
      stats_->rows_scanned += matches.size();
      Bump(metrics_.scan_rows, matches.size());
      obs::SetRowsIn(scope.get(), matches.size());
      for (uint32_t pos : matches) {
        if (IsTruthy(bound->Eval(rows[pos]))) out.ids.push_back(pos);
      }
      return Finish(std::move(out), scope.get(), gather);
    }

    stats_->rows_scanned += rows.size();
    Bump(metrics_.scan_rows, rows.size());
    obs::SetRowsIn(scope.get(), rows.size());
    // Bound expressions are immutable after Bind, so all slots share
    // `bound`; each morsel tests base rows in place and keeps their ids.
    MorselPlan plan = PlanFor(rows.size());
    std::vector<std::vector<uint32_t>> kept(plan.morsel_count());
    ParallelForTraced(plan, MorselParent(scope.get()),
                      [&](size_t, const Morsel& m) {
                        GovernorCheckpoint(parallel_);
                        std::vector<uint32_t>& local = kept[m.index];
                        for (size_t i = m.begin; i < m.end; ++i) {
                          if (IsTruthy(bound->Eval(rows[i]))) {
                            local.push_back(static_cast<uint32_t>(i));
                          }
                        }
                      });
    MergeIds(&kept, &out.ids);
    return Finish(std::move(out), scope.get(), gather);
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

  StatusOr<RowView> ExecSelect(const PlanNode& node, obs::Span* parent,
                               Relation* gather) {
    obs::SpanScope scope(parent, "native.select");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    ExprPtr bound = node.predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(input.schema));
    obs::SetRowsIn(scope.get(), input.NumRows());
    ScratchRow row(*bound, input.schema);
    std::vector<uint32_t> kept;
    for (size_t r = 0; r < input.NumRows(); ++r) {
      row.Load(input, r, 0);
      if (row.Test()) input.AppendRow(input.Row(r), &kept);
    }
    input.ids = std::move(kept);
    return Finish(std::move(input), scope.get(), gather);
  }

  StatusOr<RowView> ExecProject(const PlanNode& node, obs::Span* parent,
                                Relation* gather) {
    obs::SpanScope scope(parent, "native.project");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    PlanShape input_shape{input.schema, input.key_columns};
    ASSIGN_OR_RETURN(ProjectionResolution res,
                     ResolveProjection(input_shape, node.project_columns));
    obs::SetRowsIn(scope.get(), input.NumRows());
    // Projection only remaps columns; the ids pass through untouched.
    std::vector<ColumnSource> columns;
    columns.reserve(res.indices.size());
    for (size_t i : res.indices) columns.push_back(input.columns[i]);
    input.schema = input.schema.Select(res.indices);
    input.columns = std::move(columns);
    input.key_columns = res.key_positions;
    return Finish(std::move(input), scope.get(), gather);
  }

  StatusOr<RowView> ExecJoin(const PlanNode& node, bool semi,
                             obs::Span* parent, Relation* gather) {
    obs::SpanScope scope(parent, "native.join");
    if (semi) obs::AppendDetail(scope.get(), "semi");
    ASSIGN_OR_RETURN(RowView left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(RowView right, Execute(node.child(1), scope.get()));
    const size_t nl = left.NumRows();
    const size_t nr = right.NumRows();
    obs::SetRowsIn(scope.get(), nl + nr);

    Schema combined = left.schema.Concat(right.schema);
    ExprPtr bound = node.predicate->Clone();
    RETURN_IF_ERROR(bound->Bind(combined));
    const size_t left_cols = left.schema.size();

    // The output: the left view for a semi join, else both inputs' ids side
    // by side with the right's columns shifted past the left's inputs.
    RowView out;
    out.sources = left.sources;
    out.columns = left.columns;
    out.owned = left.owned;
    if (semi) {
      out.schema = left.schema;
      out.key_columns = left.key_columns;
    } else {
      out.schema = combined;
      out.key_columns = left.key_columns;
      for (size_t k : right.key_columns) out.key_columns.push_back(k + left_cols);
      const auto shift = static_cast<uint32_t>(left.width());
      for (const ColumnSource& c : right.columns) {
        out.columns.push_back({c.input + shift, c.column});
      }
      out.sources.insert(out.sources.end(), right.sources.begin(),
                         right.sources.end());
      out.owned.insert(out.owned.end(), right.owned.begin(), right.owned.end());
    }
    auto emit = [&](size_t l, size_t r, std::vector<uint32_t>* local) {
      left.AppendRow(left.Row(l), local);
      if (!semi) right.AppendRow(right.Row(r), local);
    };

    std::string left_col;
    std::string right_col;
    bool equi_only = false;
    if (FindEquiConjunct(*node.predicate, left.schema, right.schema, &left_col,
                         &right_col, &equi_only)) {
      // Hash join: build on the right input, probe with the left. A right
      // input that is a full scan of a base table is already indexed: the
      // table's persistent HashIndex on the key column (built on first use)
      // lists the matching row ids, which are that scan's view positions.
      // Any other right input gets a per-query JoinTable. Both yield each
      // key's build positions ascending, which makes the probe's match order
      // (and therefore the output row order) deterministic and the same on
      // either path; the probe is where the work is, and it parallelizes
      // over morsels of the probe side.
      obs::AppendDetail(scope.get(), "hash");
      ASSIGN_OR_RETURN(size_t li, left.schema.FindColumn(left_col));
      ASSIGN_OR_RETURN(size_t ri, right.schema.FindColumn(right_col));
      Table* indexed =
          node.child(1).kind == PlanKind::kScan ? right.base_table : nullptr;
      const HashIndex* index = nullptr;
      std::optional<JoinTable> build;
      {
        obs::SpanScope build_scope(scope.get(), "native.join.build");
        obs::SetRowsIn(build_scope.get(), nr);
        if (indexed != nullptr) {
          obs::AppendDetail(build_scope.get(), "index");
          index = &indexed->EnsureIndex(right.columns[ri].column);
          obs::SetRowsOut(build_scope.get(), index->NumKeys());
          Bump(metrics_.join_index_hits, 1);
        } else {
          build.emplace(right, ri);
          obs::SetRowsOut(build_scope.get(), build->DistinctKeys());
        }
        Bump(metrics_.join_build_rows, nr);
      }
      obs::SpanScope probe_scope(scope.get(), "native.join.probe");
      obs::SetRowsIn(probe_scope.get(), nl);
      Bump(metrics_.join_probe_rows, nl);
      MorselPlan plan = PlanFor(nl);
      // Per-morsel id buffers over the probe side; the build structure,
      // both inputs and the bound predicate are read-only here.
      std::vector<std::vector<uint32_t>> buffers(plan.morsel_count());
      // `for_each_match(i, visit)` calls visit(j) for the build positions j
      // holding left row i's key, ascending, until it returns true. With the
      // equi-conjunct as the whole predicate (bound to exactly these two
      // columns, since the combined bind succeeded), a key match already
      // decides it, so the probe skips re-evaluating the predicate.
      auto probe = [&](const auto& for_each_match) {
        ParallelForTraced(
            plan, MorselParent(probe_scope.get()), [&](size_t, const Morsel& m) {
              GovernorCheckpoint(parallel_);
              std::vector<uint32_t>& local = buffers[m.index];
              ScratchRow row(*bound, combined);
              for (size_t i = m.begin; i < m.end; ++i) {
                bool loaded = false;
                for_each_match(i, [&](uint32_t j) {
                  if (!equi_only) {
                    if (!loaded) {
                      row.Load(left, i, 0);
                      loaded = true;
                    }
                    row.Load(right, j, left_cols);
                    if (!row.Test()) return false;
                  }
                  emit(i, j, &local);
                  return semi;  // A semi join's left row qualifies once.
                });
              }
            });
      };
      if (index != nullptr) {
        probe([&](size_t i, const auto& visit) {
          // A table index was not just built, so its slots are usually
          // cold: start loading a later key's slot now, so that the misses
          // of consecutive probes overlap.
          if (i + kPrefetchAhead < nl) {
            index->Prefetch(left.At(i + kPrefetchAhead, li));
          }
          const Value& key = left.At(i, li);
          if (key.is_null()) return;  // `NULL = x` is not true.
          for (uint32_t j : index->Lookup(key)) {
            if (visit(j)) return;
          }
        });
      } else {
        probe([&](size_t i, const auto& visit) {
          for (uint32_t j = build->Find(left.At(i, li)); j != kNoRow;
               j = build->Next(j)) {
            if (visit(j)) return;
          }
        });
      }
      MergeIds(&buffers, &out.ids);
      obs::SetRowsOut(probe_scope.get(), out.NumRows());
    } else {
      // Nested-loop join; the probe side still morselizes.
      obs::AppendDetail(scope.get(), "nested_loop");
      obs::SpanScope probe_scope(scope.get(), "native.join.probe");
      obs::SetRowsIn(probe_scope.get(), nl);
      Bump(metrics_.join_probe_rows, nl);
      MorselPlan plan = PlanFor(nl);
      std::vector<std::vector<uint32_t>> buffers(plan.morsel_count());
      ParallelForTraced(
          plan, MorselParent(probe_scope.get()), [&](size_t, const Morsel& m) {
            GovernorCheckpoint(parallel_);
            // Quadratic loop: tick per probe so a single covering morsel
            // cannot defer cancellation to the end of the cross product.
            GovernorTicker ticker(parallel_ == nullptr ? nullptr
                                                       : parallel_->governor);
            std::vector<uint32_t>& local = buffers[m.index];
            ScratchRow row(*bound, combined);
            for (size_t i = m.begin; i < m.end; ++i) {
              row.Load(left, i, 0);
              for (size_t j = 0; j < nr; ++j) {
                ticker.Tick();
                row.Load(right, j, left_cols);
                if (!row.Test()) continue;
                emit(i, j, &local);
                if (semi) break;
              }
            }
          });
      MergeIds(&buffers, &out.ids);
      obs::SetRowsOut(probe_scope.get(), out.NumRows());
    }
    return Finish(std::move(out), scope.get(), gather);
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

  // Set operations gather both inputs into one source the result owns
  // (left rows, then right rows) and keep ids into it.
  StatusOr<RowView> ExecSetOp(const PlanNode& node, obs::Span* parent,
                              Relation* gather) {
    obs::SpanScope scope(parent, SetOpSpanName(node.kind));
    ASSIGN_OR_RETURN(RowView left, Execute(node.child(0), scope.get()));
    ASSIGN_OR_RETURN(RowView right, Execute(node.child(1), scope.get()));
    if (left.schema.size() != right.schema.size()) {
      return Status::InvalidArgument("set operation inputs differ in arity");
    }
    const size_t nl = left.NumRows();
    const size_t nr = right.NumRows();
    obs::SetRowsIn(scope.get(), nl + nr);
    std::vector<Tuple> rows = left.GatherAll();
    rows.reserve(nl + nr);
    for (size_t r = 0; r < nr; ++r) rows.push_back(right.Gather(r));
    std::unordered_set<const Tuple*, TuplePtrHash, TuplePtrEq> seen;
    std::vector<uint32_t> keep;
    switch (node.kind) {
      case PlanKind::kUnion: {
        // First-occurrence-wins duplicate elimination is inherently
        // sequential (each insert decides the next); the union stays a
        // serial pass over both inputs.
        for (size_t i = 0; i < nl + nr; ++i) {
          if (seen.insert(&rows[i]).second) keep.push_back(static_cast<uint32_t>(i));
        }
        break;
      }
      case PlanKind::kIntersect:
      case PlanKind::kExcept: {
        // Membership of each left row in the right side is a pure hash
        // probe, so it precomputes in concurrent morsels; the
        // (order-dependent) duplicate-elimination emit stays serial and
        // consumes the flags in input order.
        std::unordered_set<const Tuple*, TuplePtrHash, TuplePtrEq> right_set;
        for (size_t i = nl; i < nl + nr; ++i) right_set.insert(&rows[i]);
        const bool want_member = node.kind == PlanKind::kIntersect;
        Bump(metrics_.setop_probe_rows, nl);
        MorselPlan plan = PlanFor(nl);
        std::vector<uint8_t> member(nl, 0);
        ParallelForTraced(plan, MorselParent(scope.get()),
                          [&](size_t, const Morsel& m) {
                            GovernorCheckpoint(parallel_);
                            for (size_t i = m.begin; i < m.end; ++i) {
                              member[i] = right_set.count(&rows[i]) > 0 ? 1 : 0;
                            }
                          });
        for (size_t i = 0; i < nl; ++i) {
          if ((member[i] != 0) == want_member && seen.insert(&rows[i]).second) {
            keep.push_back(static_cast<uint32_t>(i));
          }
        }
        break;
      }
      default:
        return Status::Internal("not a set operation");
    }
    return Finish(RowView::Owning(left.schema, left.key_columns, std::move(rows),
                                  std::move(keep)),
                  scope.get(), gather);
  }

  StatusOr<RowView> ExecDistinct(const PlanNode& node, obs::Span* parent,
                                 Relation* gather) {
    obs::SpanScope scope(parent, "native.distinct");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    const size_t n = input.NumRows();
    obs::SetRowsIn(scope.get(), n);
    Bump(metrics_.distinct_rows, n);
    // Whole-row hashing (the expensive part of deduplication) precomputes
    // in concurrent morsels; the serial emit then resolves each row against
    // its hash bucket's previously kept rows, preserving
    // first-occurrence-wins order.
    MorselPlan plan = PlanFor(n);
    std::vector<size_t> hashes(n);
    ParallelForTraced(plan, MorselParent(scope.get()),
                      [&](size_t, const Morsel& m) {
                        GovernorCheckpoint(parallel_);
                        for (size_t i = m.begin; i < m.end; ++i) {
                          hashes[i] = RowHash(input, i);
                        }
                      });
    std::unordered_map<size_t, std::vector<uint32_t>> buckets;
    buckets.reserve(n);
    std::vector<uint32_t> kept;
    for (size_t i = 0; i < n; ++i) {
      std::vector<uint32_t>& candidates = buckets[hashes[i]];
      bool duplicate = false;
      for (uint32_t prior : candidates) {
        if (RowEq(input, prior, i)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        candidates.push_back(static_cast<uint32_t>(i));
        input.AppendRow(input.Row(i), &kept);
      }
    }
    input.ids = std::move(kept);
    return Finish(std::move(input), scope.get(), gather);
  }

  StatusOr<RowView> ExecSort(const PlanNode& node, obs::Span* parent,
                             Relation* gather) {
    obs::SpanScope scope(parent, "native.sort");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    const size_t n = input.NumRows();
    obs::SetRowsIn(scope.get(), n);
    struct ResolvedKey {
      size_t index;
      bool descending;
    };
    std::vector<ResolvedKey> keys;
    keys.reserve(node.sort_keys.size());
    for (const SortKey& k : node.sort_keys) {
      ASSIGN_OR_RETURN(size_t idx, input.schema.FindColumn(k.column));
      keys.push_back({idx, k.descending});
    }
    // Stable sort with a tie-break on the relation key: equal-key runs keep
    // their input order *and* the order (plus any LIMIT cutoff above) is
    // deterministic regardless of how upstream operators ordered the input.
    // Value::Compare is a strict total order including NULL and NaN, which
    // std::stable_sort requires (UB otherwise) — see Value::Compare.
    const std::vector<size_t>& pk = input.key_columns;
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&keys, &pk, &input](uint32_t a, uint32_t b) {
                       for (const ResolvedKey& k : keys) {
                         int c = input.At(a, k.index).Compare(input.At(b, k.index));
                         if (c != 0) return k.descending ? c > 0 : c < 0;
                       }
                       for (size_t k : pk) {
                         int c = input.At(a, k).Compare(input.At(b, k));
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
    std::vector<uint32_t> sorted;
    sorted.reserve(input.ids.size());
    for (uint32_t r : order) input.AppendRow(input.Row(r), &sorted);
    input.ids = std::move(sorted);
    return Finish(std::move(input), scope.get(), gather);
  }

  StatusOr<RowView> ExecLimit(const PlanNode& node, obs::Span* parent,
                              Relation* gather) {
    obs::SpanScope scope(parent, "native.limit");
    ASSIGN_OR_RETURN(RowView input, Execute(node.child(), scope.get()));
    obs::SetRowsIn(scope.get(), input.NumRows());
    if (input.NumRows() > node.limit) input.ids.resize(node.limit * input.width());
    return Finish(std::move(input), scope.get(), gather);
  }

  Catalog* catalog_;
  ExecStats* stats_;
  const ParallelContext* parallel_;  // Null = serial.
  obs::TraceLevel trace_level_;      // kMorsel = per-morsel slices.
  NativeExecMetrics metrics_;        // All-null when metrics are off.
};

}  // namespace

StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats,
                               const NativeExecOptions& options) {
  Executor executor(catalog, stats, options);
  return executor.Run(node, options.span);
}

StatusOr<Relation> ExecutePlan(const PlanNode& node, Catalog* catalog,
                               ExecStats* stats) {
  return ExecutePlan(node, catalog, stats, NativeExecOptions());
}

}  // namespace prefdb
