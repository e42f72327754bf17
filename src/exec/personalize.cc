#include "exec/personalize.h"

#include <algorithm>

namespace prefdb {

namespace {

// Walks through order-insensitive unary operators (sort/limit/distinct) to
// the node where prefer operators should be attached: the query's
// projection, or the deepest such unary position otherwise. Returns the
// owner pointer so the subtree can be replaced.
PlanPtr* AttachPoint(PlanPtr* root) {
  PlanPtr* current = root;
  while ((*current)->kind == PlanKind::kSort ||
         (*current)->kind == PlanKind::kLimit ||
         (*current)->kind == PlanKind::kDistinct) {
    current = &(*current)->children[0];
  }
  return current;
}

}  // namespace

std::vector<std::string> PlanRelations(const PlanNode& plan) {
  std::vector<std::string> out;
  if (plan.kind == PlanKind::kScan) {
    out.push_back(plan.alias.empty() ? plan.table_name : plan.alias);
    if (!plan.alias.empty() && plan.alias != plan.table_name) {
      out.push_back(plan.table_name);
    }
    return out;
  }
  for (const PlanPtr& child : plan.children) {
    std::vector<std::string> sub = PlanRelations(*child);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

StatusOr<size_t> InjectProfile(ParsedQuery* query, const Profile& profile,
                               const Catalog& catalog) {
  PlanPtr* attach = AttachPoint(&query->plan);
  std::vector<PreferencePtr> candidates =
      profile.Relevant(PlanRelations(**attach));
  if (candidates.empty()) return size_t{0};

  bool has_project = (*attach)->kind == PlanKind::kProject;
  // The schema the prefer operators will see: below the projection if there
  // is one, at the attach point otherwise.
  const PlanNode& scope =
      has_project ? (*attach)->child() : **attach;
  ASSIGN_OR_RETURN(PlanShape shape, DerivePlanShape(scope, catalog));

  size_t injected = 0;
  for (const PreferencePtr& pref : candidates) {
    if (!pref->BindsTo(shape.schema)) continue;  // E.g. ambiguous.
    if (has_project) {
      PlanNode* project = attach->get();
      // Extend the projection with the attributes the preference needs,
      // resolving duplicates by column identity.
      for (const std::string& col : pref->ReferencedColumns()) {
        ASSIGN_OR_RETURN(size_t idx, shape.schema.FindColumn(col));
        bool present = false;
        for (const std::string& existing : project->project_columns) {
          auto existing_idx = shape.schema.FindColumn(existing);
          if (existing_idx.ok() && *existing_idx == idx) {
            present = true;
            break;
          }
        }
        if (!present) project->project_columns.push_back(col);
      }
      if (pref->membership() != nullptr) {
        const std::string& col = pref->membership()->local_column;
        if (!shape.schema.HasColumn(col)) continue;
        bool present =
            std::find(project->project_columns.begin(),
                      project->project_columns.end(),
                      col) != project->project_columns.end();
        if (!present) project->project_columns.push_back(col);
      }
      project->children[0] =
          plan::Prefer(pref, std::move(project->children[0]));
    } else {
      *attach = plan::Prefer(pref, std::move(*attach));
    }
    query->preferences.push_back(pref);
    ++injected;
  }
  // Re-validate the modified plan.
  RETURN_IF_ERROR(DerivePlanShape(*query->plan, catalog).status());
  return injected;
}

}  // namespace prefdb
