#include "cache/fingerprint.h"

#include "common/string_util.h"

namespace prefdb {
namespace cache {

namespace {

// A format-version salt: bump when the fingerprint scheme changes so that
// persisted keys (if the cache ever becomes durable) cannot alias across
// schemes.
constexpr uint64_t kFingerprintFormatVersion = 1;

Status Walk(const PlanNode& node, const Catalog& catalog, Fingerprinter* fp,
            bool* cacheable) {
  fp->Tag('N');
  fp->Mix(static_cast<uint64_t>(node.kind));
  switch (node.kind) {
    case PlanKind::kScan: {
      // The table *version* — not just the name — is what makes the key
      // self-invalidating: any reload or re-registration bumps the version,
      // so fingerprints of stale plans can never match a fresh one.
      ASSIGN_OR_RETURN(Table * table, catalog.GetTable(node.table_name));
      fp->Tag('T');
      fp->Mix(ToUpper(node.table_name));
      fp->Mix(node.alias);  // Affects output qualifiers, hence the result.
      fp->Mix(table->version());
      if (table->temporary()) *cacheable = false;
      break;
    }
    case PlanKind::kSelect:
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin:
      fp->Tag('E');
      fp->Mix(node.predicate->ToString());
      break;
    case PlanKind::kProject:
      fp->Tag('C');
      fp->Mix(uint64_t{node.project_columns.size()});
      for (const std::string& column : node.project_columns) fp->Mix(column);
      break;
    case PlanKind::kPrefer:
      // The preference's identity is its content hash (see
      // Preference::ContentHash), not its name.
      fp->Tag('P');
      fp->Mix(node.preference->ContentHash());
      break;
    case PlanKind::kSort:
      fp->Tag('S');
      fp->Mix(uint64_t{node.sort_keys.size()});
      for (const SortKey& key : node.sort_keys) {
        fp->Mix(key.column);
        fp->Mix(uint64_t{key.descending ? 1u : 0u});
      }
      break;
    case PlanKind::kLimit:
      fp->Tag('L');
      fp->Mix(uint64_t{node.limit});
      break;
    default:
      break;
  }
  fp->Mix(uint64_t{node.children.size()});
  for (const PlanPtr& child : node.children) {
    RETURN_IF_ERROR(Walk(*child, catalog, fp, cacheable));
  }
  return Status::OK();
}

}  // namespace

std::string CacheKey::ToString() const {
  return StrFormat("%016llx:%016llx", static_cast<unsigned long long>(hi),
                   static_cast<unsigned long long>(lo));
}

StatusOr<PlanFingerprint> FingerprintPlan(const PlanNode& plan,
                                          const Catalog& catalog,
                                          uint64_t seed) {
  Fingerprinter fp;
  fp.Mix(kFingerprintFormatVersion);
  fp.Mix(seed);
  PlanFingerprint out;
  RETURN_IF_ERROR(Walk(plan, catalog, &fp, &out.cacheable));
  out.key = fp.Key();
  return out;
}

}  // namespace cache
}  // namespace prefdb
