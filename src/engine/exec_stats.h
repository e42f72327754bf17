#ifndef PREFDB_ENGINE_EXEC_STATS_H_
#define PREFDB_ENGINE_EXEC_STATS_H_

#include <cstddef>
#include <string>

namespace prefdb {

/// Counters collected while executing a query. The paper's cost argument
/// (§VI-A) is that the dominant cost is driven by the size of intermediate
/// relations, so `tuples_materialized` is the primary instrumented metric;
/// the benches report it next to wall time.
///
/// Thread-safety discipline: an ExecStats instance is never written from
/// two threads. Concurrently issued engine queries (the plug-ins' batches)
/// each execute into their own ExecStats, merged into the owning counters
/// at the join point, in query order. This keeps the counters' values
/// identical to serial execution, with no atomics on the hot increment
/// paths.
struct ExecStats {
  /// Rows written into materialized intermediate or final relations.
  size_t tuples_materialized = 0;
  /// Rows read out of base tables (sequential or index access).
  size_t rows_scanned = 0;
  /// Conventional queries delegated to the native engine (a plug-in
  /// strategy's "number of queries sent to the DBMS").
  size_t engine_queries = 0;
  /// Physical operator invocations.
  size_t operator_invocations = 0;
  /// Entries written into score relations by prefer/join/set operators.
  size_t score_entries_written = 0;

  void Merge(const ExecStats& other) {
    tuples_materialized += other.tuples_materialized;
    rows_scanned += other.rows_scanned;
    engine_queries += other.engine_queries;
    operator_invocations += other.operator_invocations;
    score_entries_written += other.score_entries_written;
  }

  void Reset() { *this = ExecStats(); }

  std::string ToString() const;
};

}  // namespace prefdb

#endif  // PREFDB_ENGINE_EXEC_STATS_H_
