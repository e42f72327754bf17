#ifndef PREFDB_OBS_TRACE_H_
#define PREFDB_OBS_TRACE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace prefdb {
namespace obs {

struct Span;
using SpanPtr = std::unique_ptr<Span>;

/// One node of a query trace: a named region of execution (a plan operator,
/// a strategy phase, a delegated engine query) with wall time, cardinality
/// and score-relation telemetry, plus child spans.
///
/// One span per operator, strategy phase and delegated query. Ownership and
/// threading discipline mirror ExecStats: a span is never written from two
/// threads. A batch of concurrent delegated queries gives every query a
/// detached root (Detached()) and the owner adopts the roots' children *at
/// the join point, in query order* (Adopt()), so the assembled tree —
/// names, nesting, cardinalities, details — is identical run to run and at
/// every thread count.
///
/// Tracing is disabled by passing null spans: every helper below (and every
/// annotation site in the executors) no-ops on nullptr, so the disabled
/// cost is one pointer test per annotation.
struct Span {
  static constexpr size_t kUnset = static_cast<size_t>(-1);

  std::string name;    // e.g. "Prefer[p1]", "EngineQuery", "strategy[GBU]".
  std::string detail;  // Optional annotation, e.g. "table=MOVIES index".
  double micros = 0.0;
  size_t rows_in = kUnset;
  size_t rows_out = kUnset;
  size_t score_entries = kUnset;  // Score-relation writes attributed here.
  std::vector<SpanPtr> children;

  /// Creates an unattached span (a trace root, or a concurrent task's root).
  static SpanPtr Detached(std::string_view name);

  /// Appends a child and returns it (single-threaded on this span).
  Span* AddChild(std::string_view name);

  /// Splices `child` in as the next child — the join-point adoption of a
  /// concurrent task's spans. No-op on nullptr children.
  void Adopt(SpanPtr child);

  /// Sum of `micros` over this span's direct children.
  double ChildMicros() const;

  /// Time spent in this span outside its direct children: micros minus
  /// ChildMicros(), so self plus the children's time is the span's time.
  /// Negative when children overlap (concurrent delegated queries).
  double SelfMicros() const { return micros - ChildMicros(); }

  /// Multi-line indented rendering:
  ///   Prefer[p1]  (time=1.203ms self=0.911ms rows=1000 -> 1000 score_entries=412)
  /// `include_timing=false` drops the wall-clock figures (time and self) — that rendering
  /// is the determinism contract checked by the tests (byte-identical
  /// across runs and thread counts).
  std::string ToString(bool include_timing = true, int indent = 0) const;

  /// JSON object {"name": ..., "micros": ..., "self_micros": ...,
  /// "children": [...]} — the export the benches embed into BENCH_*.json for
  /// per-phase breakdowns. Timing fields (micros, self_micros) are omitted
  /// when `include_timing` is false.
  std::string ToJson(bool include_timing = true) const;

  /// Chrome trace-event ("Trace Event Format") document — load it at
  /// ui.perfetto.dev or chrome://tracing:
  ///   {"displayTimeUnit": "ms", "traceEvents": [{"ph": "X", ...}, ...]}
  /// One complete ("X") event per span, emitted pre-order on a single
  /// track (pid=1/tid=1); children are laid out sequentially from their
  /// parent's start timestamp, and detail/cardinality annotations ride in
  /// "args". With `include_timing=true` durations are the measured span
  /// micros (what you profile with). With `include_timing=false` durations
  /// are *structural*: every leaf is 1us and every parent the sum of its
  /// children — the rendering is then a pure function of the operator
  /// tree, byte-identical across runs *and* thread counts, while still
  /// loading in Perfetto.
  std::string ToChromeTrace(bool include_timing = true) const;
};

/// RAII scope that times a child span of `parent`. When `parent` is null
/// the scope is a no-op shell: no allocation, no clock reads — the
/// zero-cost-when-disabled contract.
class SpanScope {
 public:
  SpanScope(Span* parent, std::string_view name) {
    if (parent != nullptr) span_ = parent->AddChild(name);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  ~SpanScope() { Finish(); }

  /// The child span, or nullptr when tracing is disabled. Pass this down
  /// to nested regions.
  Span* get() const { return span_; }

  /// Stops the clock now (before destruction), e.g. to exclude result
  /// post-processing from the span.
  void Finish() {
    if (span_ != nullptr) {
      span_->micros = watch_.ElapsedMicros();
      span_ = nullptr;
    }
  }

 private:
  Span* span_ = nullptr;
  Stopwatch watch_;
};

/// Pre-order collection of every span in `root`'s tree (root included)
/// whose name starts with `prefix`. Pre-order matches the deterministic
/// adoption order, so for a fixed query the result sequence is stable. The
/// equivalence tests use this to compare the native-operator subtrees
/// across thread counts.
std::vector<const Span*> FindSpans(const Span& root, std::string_view prefix);

/// Annotation helpers; all no-op on null spans.
inline void SetRowsIn(Span* span, size_t rows) {
  if (span != nullptr) span->rows_in = rows;
}
inline void SetRowsOut(Span* span, size_t rows) {
  if (span != nullptr) span->rows_out = rows;
}
inline void SetScoreEntries(Span* span, size_t entries) {
  if (span != nullptr) span->score_entries = entries;
}
inline void SetDetail(Span* span, std::string detail) {
  if (span != nullptr) span->detail = std::move(detail);
}
/// Appends to an existing detail annotation (space-separated) instead of
/// replacing it — e.g. the cache layer adding "cache=hit" to a span that
/// already carries "root=Scan[MOVIES]".
inline void AppendDetail(Span* span, std::string_view detail) {
  if (span == nullptr) return;
  if (!span->detail.empty()) span->detail += ' ';
  span->detail.append(detail);
}

}  // namespace obs
}  // namespace prefdb

#endif  // PREFDB_OBS_TRACE_H_
