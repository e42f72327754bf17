#ifndef PREFDB_PARALLEL_PARALLEL_CONTEXT_H_
#define PREFDB_PARALLEL_PARALLEL_CONTEXT_H_

#include <cstddef>

#include "common/governor.h"

namespace prefdb {

/// Per-query execution context, plumbed from the session's QueryOptions
/// through the Engine into the strategies: the fan-out width of the
/// plug-ins' batches of independent delegated queries (ParallelInvoke), and
/// the query's governor. Every operator runs one serial body, so results,
/// row order, counters and traces are the same at every thread count.
struct ParallelContext {
  /// Maximum number of delegated queries a plug-in strategy runs at once.
  /// 0 and 1 both mean serial.
  size_t threads = 1;

  /// Cooperative query governor consulted at cancellation checkpoints
  /// (operator entry, governor tickers, materialization sites). Null — the
  /// default — means ungoverned: each checkpoint is one pointer test.
  /// Session::Run points this at a stack-local governor for the duration
  /// of one query; the object outlives every task observing the context.
  const QueryGovernor* governor = nullptr;
};

}  // namespace prefdb

#endif  // PREFDB_PARALLEL_PARALLEL_CONTEXT_H_
