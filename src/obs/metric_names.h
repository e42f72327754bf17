#ifndef PREFDB_OBS_METRIC_NAMES_H_
#define PREFDB_OBS_METRIC_NAMES_H_

#include <string_view>

namespace prefdb {
namespace obs {

/// The single declaration point for every `pref.*` metric name in the
/// system. Call sites resolve handles through these constants instead of
/// repeating the string — a typo'd name would otherwise silently create a
/// second, always-zero metric that dashboards scrape forever.
/// tools/prefdb_lint enforces this (rule `metric-registry`): a string
/// literal starting with "pref." anywhere under src/ outside this header
/// is a lint violation.
///
/// Naming scheme: `pref.<subsystem>.<what>`; all lowercase,
/// dot-separated. The Prometheus exposition (`MetricsRegistry::
/// ToPrometheus`) maps dots to underscores, so `pref.cache.hits` scrapes
/// as `pref_cache_hits`.

// --- Result cache (src/cache) -------------------------------------------
inline constexpr std::string_view kPrefCacheHits = "pref.cache.hits";
inline constexpr std::string_view kPrefCacheMisses = "pref.cache.misses";
inline constexpr std::string_view kPrefCacheEvictions = "pref.cache.evictions";
inline constexpr std::string_view kPrefCacheAdmissionRejected =
    "pref.cache.admission_rejected";
inline constexpr std::string_view kPrefCacheBytes = "pref.cache.bytes";
inline constexpr std::string_view kPrefCacheEntries = "pref.cache.entries";

// --- Native executor (src/engine) ---------------------------------------
inline constexpr std::string_view kPrefNativeScanRows = "pref.native.scan_rows";
inline constexpr std::string_view kPrefNativeJoinBuildRows =
    "pref.native.join_build_rows";
inline constexpr std::string_view kPrefNativeJoinProbeRows =
    "pref.native.join_probe_rows";
/// Hash joins whose build side a base table's persistent index served.
inline constexpr std::string_view kPrefNativeJoinIndexHits =
    "pref.native.join_index_hits";
inline constexpr std::string_view kPrefNativeSetopProbeRows =
    "pref.native.setop_probe_rows";
inline constexpr std::string_view kPrefNativeDistinctRows =
    "pref.native.distinct_rows";
inline constexpr std::string_view kPrefNativeParallelRegions =
    "pref.native.parallel_regions";

// --- Preference-aware execution (src/exec, src/engine) ----------------
/// Rows copied out of row-id views: the answer's survivors and the root of
/// a conventional Engine::Execute.
inline constexpr std::string_view kPrefExecRowsGathered =
    "pref.exec.rows_gathered";

// --- Query governor (src/common/governor, folded in by Session::Run) ----
/// Queries that unwound on an external/internal cancellation request.
inline constexpr std::string_view kPrefGovernorCancelled =
    "pref.governor.cancelled";
/// Queries that tripped their statement deadline.
inline constexpr std::string_view kPrefGovernorDeadlineExceeded =
    "pref.governor.deadline_exceeded";
/// Queries that exceeded their cooperative memory budget.
inline constexpr std::string_view kPrefGovernorResourceExhausted =
    "pref.governor.resource_exhausted";
/// Queries that failed at an armed fault-injection point.
inline constexpr std::string_view kPrefGovernorFaultsInjected =
    "pref.governor.faults_injected";

// --- Live telemetry gauges (refreshed at scrape time) -------------------
inline constexpr std::string_view kPrefPoolQueueDepth =
    "pref.pool.queue_depth";
/// ThreadPoolTelemetry::helper_claims of the shared pool (a counter).
inline constexpr std::string_view kPrefPoolHelperClaims =
    "pref.pool.helper_claims";
inline constexpr std::string_view kPrefQuerylogSize = "pref.querylog.size";
inline constexpr std::string_view kPrefQuerylogDropped =
    "pref.querylog.dropped";

}  // namespace obs
}  // namespace prefdb

#endif  // PREFDB_OBS_METRIC_NAMES_H_
