#include "plan/plan.h"

#include <algorithm>

#include "common/string_util.h"

namespace prefdb {

std::string_view PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kSelect:
      return "Select";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kSemiJoin:
      return "SemiJoin";
    case PlanKind::kUnion:
      return "Union";
    case PlanKind::kIntersect:
      return "Intersect";
    case PlanKind::kExcept:
      return "Except";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
    case PlanKind::kPrefer:
      return "Prefer";
  }
  return "?";
}

PlanPtr PlanNode::Clone() const {
  PlanPtr copy = CloneNode();
  copy->children.reserve(children.size());
  for (const PlanPtr& c : children) copy->children.push_back(c->Clone());
  return copy;
}

PlanPtr PlanNode::CloneNode() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->table_name = table_name;
  copy->alias = alias;
  if (predicate) copy->predicate = predicate->Clone();
  copy->project_columns = project_columns;
  copy->preference = preference;  // Shared; immutable.
  copy->sort_keys = sort_keys;
  copy->limit = limit;
  return copy;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string label(PlanKindName(kind));
  switch (kind) {
    case PlanKind::kScan:
      label += "[" + table_name + (alias.empty() || alias == table_name
                                       ? ""
                                       : " AS " + alias) + "]";
      break;
    case PlanKind::kSelect:
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
      if (predicate) label += "[" + predicate->ToString() + "]";
      break;
    case PlanKind::kProject:
      label += "[" + StrJoin(project_columns, ", ") + "]";
      break;
    case PlanKind::kPrefer:
      label += "[" + preference->name() + "]";
      break;
    case PlanKind::kSort: {
      std::vector<std::string> parts;
      for (const SortKey& k : sort_keys) {
        parts.push_back(k.column + (k.descending ? " DESC" : ""));
      }
      label += "[" + StrJoin(parts, ", ") + "]";
      break;
    }
    case PlanKind::kLimit:
      label += StrFormat("[%zu]", limit);
      break;
    default:
      break;
  }
  std::string out = pad + label + "\n";
  for (const PlanPtr& c : children) out += c->ToString(indent + 1);
  return out;
}

bool PlanNode::ContainsPrefer() const {
  if (kind == PlanKind::kPrefer) return true;
  for (const PlanPtr& c : children) {
    if (c->ContainsPrefer()) return true;
  }
  return false;
}

size_t PlanNode::CountKind(PlanKind target) const {
  size_t n = kind == target ? 1 : 0;
  for (const PlanPtr& c : children) n += c->CountKind(target);
  return n;
}

namespace {

Status CheckPredicate(const Expr& expr, const Schema& schema, const char* what) {
  Status st = CheckBinds(expr, schema);
  if (!st.ok()) {
    return Status::InvalidArgument(StrFormat("%s does not bind: %s", what,
                                             st.message().c_str()));
  }
  return Status::OK();
}

Status CheckSetOpCompatible(const PlanShape& left, const PlanShape& right,
                            std::string_view op) {
  if (left.schema.size() != right.schema.size()) {
    return Status::InvalidArgument(
        StrFormat("%.*s inputs have different arity (%zu vs %zu)",
                  static_cast<int>(op.size()), op.data(), left.schema.size(),
                  right.schema.size()));
  }
  for (size_t i = 0; i < left.schema.size(); ++i) {
    ValueType lt = left.schema.column(i).type;
    ValueType rt = right.schema.column(i).type;
    if (lt != rt) {
      return Status::InvalidArgument(
          StrFormat("%.*s inputs differ in type at column %zu",
                    static_cast<int>(op.size()), op.data(), i));
    }
  }
  if (left.key_columns != right.key_columns) {
    return Status::InvalidArgument(
        std::string(op) + " inputs have incompatible keys");
  }
  return Status::OK();
}

}  // namespace

StatusOr<PlanShape> DerivePlanShape(const PlanNode& node, const Catalog& catalog) {
  std::vector<PlanShape> children;
  children.reserve(node.children.size());
  for (const PlanPtr& child : node.children) {
    ASSIGN_OR_RETURN(PlanShape shape, DerivePlanShape(*child, catalog));
    children.push_back(std::move(shape));
  }
  return DeriveNodeShape(node, children, catalog);
}

StatusOr<PlanShape> DeriveNodeShape(const PlanNode& node,
                                    std::span<PlanShape> children,
                                    const Catalog& catalog) {
  switch (node.kind) {
    case PlanKind::kScan: {
      ASSIGN_OR_RETURN(Table * table, catalog.GetTable(node.table_name));
      PlanShape shape;
      shape.schema = node.alias.empty() || node.alias == node.table_name
                         ? table->schema()
                         : table->schema().WithQualifier(node.alias);
      shape.key_columns = table->primary_key();
      return shape;
    }
    case PlanKind::kSelect:
      RETURN_IF_ERROR(
          CheckPredicate(*node.predicate, children[0].schema, "selection"));
      return std::move(children[0]);
    case PlanKind::kProject: {
      const PlanShape& input = children[0];
      ASSIGN_OR_RETURN(ProjectionResolution res,
                       ResolveProjection(input, node.project_columns));
      PlanShape shape;
      shape.schema = input.schema.Select(res.indices);
      shape.key_columns = std::move(res.key_positions);
      return shape;
    }
    case PlanKind::kJoin: {
      PlanShape shape = std::move(children[0]);
      const PlanShape& right = children[1];
      const size_t offset = shape.schema.size();
      shape.schema = std::move(shape.schema).Concat(right.schema);
      for (size_t k : right.key_columns) shape.key_columns.push_back(k + offset);
      RETURN_IF_ERROR(
          CheckPredicate(*node.predicate, shape.schema, "join condition"));
      return shape;
    }
    case PlanKind::kSemiJoin: {
      Schema combined = children[0].schema.Concat(children[1].schema);
      RETURN_IF_ERROR(
          CheckPredicate(*node.predicate, combined, "semijoin condition"));
      return std::move(children[0]);
    }
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kExcept:
      RETURN_IF_ERROR(CheckSetOpCompatible(children[0], children[1],
                                           PlanKindName(node.kind)));
      return std::move(children[0]);
    case PlanKind::kDistinct:
    case PlanKind::kLimit:
      return std::move(children[0]);
    case PlanKind::kSort:
      for (const SortKey& k : node.sort_keys) {
        RETURN_IF_ERROR(children[0].schema.FindColumn(k.column).status());
      }
      return std::move(children[0]);
    case PlanKind::kPrefer: {
      const PlanShape& shape = children[0];
      RETURN_IF_ERROR(CheckPredicate(node.preference->condition(), shape.schema,
                                     "preference condition"));
      Status st = CheckBinds(node.preference->scoring().expr(), shape.schema);
      if (!st.ok()) {
        return Status::InvalidArgument("preference scoring does not bind: " +
                                       st.message());
      }
      if (shape.key_columns.empty()) {
        return Status::InvalidArgument(
            "prefer requires a keyed input (score relations are keyed)");
      }
      return std::move(children[0]);
    }
  }
  return Status::Internal("unknown plan kind");
}

// The p-relation reading of projection (paper §IV-B): π preserves score and
// confidence, and in our side-table representation those are keyed by the
// input's primary key, so the key must survive projection.
StatusOr<ProjectionResolution> ResolveProjection(
    const PlanShape& input, const std::vector<std::string>& columns) {
  ProjectionResolution res;
  res.indices.reserve(columns.size());
  for (const std::string& name : columns) {
    ASSIGN_OR_RETURN(size_t idx, input.schema.FindColumn(name));
    res.indices.push_back(idx);
  }
  for (size_t key_col : input.key_columns) {
    auto it = std::find(res.indices.begin(), res.indices.end(), key_col);
    if (it == res.indices.end()) {
      res.indices.push_back(key_col);
      res.key_positions.push_back(res.indices.size() - 1);
    } else {
      res.key_positions.push_back(static_cast<size_t>(it - res.indices.begin()));
    }
  }
  // Key columns are kept in canonical (ascending-position) order so that
  // semantically equal plans produce identical shapes regardless of how the
  // optimizer reordered their operators.
  std::sort(res.key_positions.begin(), res.key_positions.end());
  return res;
}

namespace plan {

PlanPtr Scan(std::string table_name, std::string alias) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table_name = std::move(table_name);
  node->alias = alias.empty() ? node->table_name : std::move(alias);
  return node;
}

PlanPtr Select(ExprPtr predicate, PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSelect;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr Project(std::vector<std::string> columns, PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kProject;
  node->project_columns = std::move(columns);
  node->children.push_back(std::move(child));
  return node;
}

namespace {
PlanPtr Binary(PlanKind kind, ExprPtr predicate, PlanPtr left, PlanPtr right) {
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}
}  // namespace

PlanPtr Join(ExprPtr predicate, PlanPtr left, PlanPtr right) {
  return Binary(PlanKind::kJoin, std::move(predicate), std::move(left),
                std::move(right));
}

PlanPtr SemiJoin(ExprPtr predicate, PlanPtr left, PlanPtr right) {
  return Binary(PlanKind::kSemiJoin, std::move(predicate), std::move(left),
                std::move(right));
}

PlanPtr Union(PlanPtr left, PlanPtr right) {
  return Binary(PlanKind::kUnion, nullptr, std::move(left), std::move(right));
}

PlanPtr Intersect(PlanPtr left, PlanPtr right) {
  return Binary(PlanKind::kIntersect, nullptr, std::move(left), std::move(right));
}

PlanPtr Except(PlanPtr left, PlanPtr right) {
  return Binary(PlanKind::kExcept, nullptr, std::move(left), std::move(right));
}

PlanPtr Distinct(PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kDistinct;
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr Sort(std::vector<SortKey> keys, PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSort;
  node->sort_keys = std::move(keys);
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr Limit(size_t n, PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->limit = n;
  node->children.push_back(std::move(child));
  return node;
}

PlanPtr Prefer(PreferencePtr preference, PlanPtr child) {
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kPrefer;
  node->preference = std::move(preference);
  node->children.push_back(std::move(child));
  return node;
}

}  // namespace plan
}  // namespace prefdb
