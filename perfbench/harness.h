// Shared pieces of the prefdb benchmark: workload definitions, seeded data
// set-up with reference answers, the cell streams the closed loop draws
// from, the answer check, statistics helpers and the self-time fold.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "exec/runner.h"
#include "obs/trace.h"

namespace perfbench {

using prefdb::QueryOptions;
using prefdb::Relation;
using prefdb::Session;
using prefdb::StrategyKind;
using prefdb::Tuple;

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Dataset scale factor relative to the paper's Table I.
  double sf = 0.0025;
};

enum class Dataset { kImdb, kDblp };

struct QueryText {
  std::string name;
  std::string sql;
  Dataset dataset = Dataset::kImdb;
};

/// One (query text, strategy) pair — the unit the per-cell medians and the
/// geometric means are taken over.
struct Cell {
  size_t text = 0;
  StrategyKind strategy = StrategyKind::kFtP;
};

struct Workload {
  std::string name;
  size_t threads = 1;
  bool cache = false;
  std::vector<QueryText> texts;
  std::vector<Cell> cells;
  /// The cells (indices into `cells`, with repeats) one pass draws, in an
  /// order each pass shuffles.
  std::vector<size_t> pass;
  /// The Table II cells (IMDB-1..3 / DBLP-1..3 × strategies): the side
  /// passes of the traced run (trace overhead, thread speedup) use these.
  std::vector<size_t> core_cells;
  bool uses_dblp = false;
};

/// The names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// A set-up benchmark: generated data (one session per dataset), the
/// workload built against it, and each query text's reference answer.
struct Bench {
  Workload workload;
  std::unique_ptr<Session> imdb;
  std::unique_ptr<Session> dblp;
  size_t movies = 0;
  size_t publications = 0;
  /// Per text: the threads=1, cache-off FtP answer as sorted rows.
  std::vector<std::vector<Tuple>> reference;
  double imdb_gen_s = 0.0;
  double dblp_gen_s = 0.0;
  double warmup_s = 0.0;

  Session* SessionFor(const Cell& cell) const;
  const std::string& Sql(const Cell& cell) const;
  /// The options the workload runs `cell` under (its threads and cache).
  QueryOptions OptionsFor(const Cell& cell) const;
  std::string CellName(const Cell& cell) const;
};

/// Generates the data for `config.seed`, builds the workload and runs the
/// warm-up pass: one reference (FtP, threads=1, cache off) run per text and
/// one run of every cell at the workload's settings with the cache off.
/// Leaves the cache empty. `time_dblp` generates DBLP even when the
/// workload does not query it, so its generation time is measured. Exits
/// the process on error.
std::unique_ptr<Bench> SetUp(const Config& config, bool time_dblp);

/// The closed loop's query sequence: passes over Workload::pass, each in a
/// new order drawn from the seed.
class CellStream {
 public:
  CellStream(const Workload& workload, uint64_t seed)
      : order_(workload.pass), rng_(seed) {}
  size_t Next();
  /// True right after the last cell of a pass was returned.
  bool AtPassEnd() const { return pos_ == 0; }

 private:
  std::vector<size_t> order_;
  std::mt19937_64 rng_;
  size_t pos_ = 0;
};

/// The end-to-end run's yardstick for how much of the machine it gets: a
/// fixed kernel of dependent pseudo-random read-modify-writes over a 4 MiB
/// buffer, timed between queries. On a shared machine other tenants slow
/// the kernel and the queries alike, so each latency is scaled by
/// kCalibrationRefMs / (the kernel time measured right after it). On an
/// idle machine the factor is about 1.
class Calibration {
 public:
  /// `threads` copies of the kernel run at once, one per thread a query
  /// uses, so load on any of their vCPUs shows.
  explicit Calibration(size_t threads);
  /// The mean over the copies of each one's time in ms, which is the
  /// fastest of three runs, so the cache state a query leaves behind does
  /// not count.
  double TimeMs();

 private:
  struct Lane {
    std::vector<uint64_t> buffer;
    uint64_t state = 88172645463325252ull;
  };
  static double TimeLane(Lane* lane);

  static constexpr size_t kWords = size_t{1} << 19;
  static constexpr size_t kSteps = size_t{1} << 17;
  std::vector<Lane> lanes_;
};

/// The kernel's time on an idle 2.1 GHz vCPU of the 4-vCPU machine the
/// benchmark was tuned on.
constexpr double kCalibrationRefMs = 0.5;

/// Rows of `relation` in a canonical order (lexicographic on Value).
std::vector<Tuple> SortedRows(const Relation& relation);

/// True when `actual` holds the same rows as `expected_sorted` up to order,
/// numeric values compared with tolerance `eps` and the rest exactly.
bool SameRows(const Relation& actual, const std::vector<Tuple>& expected_sorted,
              double eps = 1e-9);

double Median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);
double GeoMean(const std::vector<double>& values);
/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMb();
double SecondsSince(const std::chrono::steady_clock::time_point& start);

/// Adds each span's self time (its micros minus its direct children's),
/// in milliseconds, to `self_ms[group]` over the whole tree, where a span's
/// group is its name up to the first '[' ("Prefer[p1]" -> "Prefer").
/// Returns the smallest self time in the tree. The self times sum to the
/// root's time by construction; a negative one means children outlasted
/// their parent, which only concurrent children can.
double FoldSelfTimes(const prefdb::obs::Span& span,
                     std::map<std::string, double>* self_ms);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints every metric as a readable line, then the result object as the
/// last line of standard output.
void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
