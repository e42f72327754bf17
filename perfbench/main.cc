// prefbench — the prefdb benchmark. One client (one Session per dataset,
// one query in flight) runs a workload as a closed loop and checks every
// answer against the threads=1, cache-off FtP answer of the same query
// text.
//
//   prefbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--sf <scale>]
//
// --trace 0 measures the end-to-end metrics (tracing off). --trace 1 is
// the separate traced run: it drives each query through the layers'
// public calls (ParseQuery, ExtendedOptimizer::Optimize,
// MakeStrategy(kind)->ExecuteWithStats, ApplyFilters), folds the span tree
// into self times, and reads ExecStats, the pref.native.* counters, the
// cache snapshot and the thread pool telemetry around each query. The last
// line of standard output is the result object.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "harness.h"
#include "obs/metric_names.h"
#include "palgebra/filters.h"
#include "parallel/thread_pool.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using prefdb::ExecStats;
using prefdb::StatusOr;
using prefdb::ThreadPool;
using prefdb::ThreadPoolTelemetry;
using CacheStats = prefdb::cache::QueryCache::Stats;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
// p95 of this many samples has ten beyond it.
constexpr size_t kMinSamples = 200;
// The closed loop times the calibration kernel after every this many
// answered queries, and at the end of each pass.
constexpr size_t kCalibrateEvery = 10;
// Repetitions of each cell in the traced run's side passes.
constexpr int kSideReps = 3;
// Clock slack of the span nesting check.
constexpr double kNestingSlackMs = 0.001;

double MillisSince(Clock::time_point start) {
  return SecondsSince(start) * 1000.0;
}

void PrintSetting(const Bench& bench, const Config& config) {
  const Workload& w = bench.workload;
  std::printf("# workload %s: closed loop, 1 client, threads=%zu, cache=%s, "
              "seed-shuffled passes of %zu draws (%s), seed=%llu\n",
              w.name.c_str(), w.threads, w.cache ? "on" : "off",
              w.pass.size(),
              w.pass.size() != w.cells.size()
                  ? "Zipf(s=1) multiplicities over a fixed popularity ranking"
                  : "every cell once",
              static_cast<unsigned long long>(config.seed));
  std::printf("# data: SF %g, IMDB %zu movies", config.sf, bench.movies);
  if (bench.publications > 0) {
    std::printf(", DBLP %zu publications", bench.publications);
  }
  std::printf("; %zu query texts x 5 strategies = %zu cells\n",
              w.texts.size(), w.cells.size());
}

// What one untraced closed loop measured.
struct LoopSamples {
  // Per cell: the latencies of its right answers, calibrated and as
  // measured.
  std::vector<std::vector<double>> cell_ms, raw_cell_ms;
  std::vector<double> kernel_ms;
  size_t attempted = 0;
  size_t failed = 0;
  double loop_s = 0.0;
};

std::vector<double> Pooled(const std::vector<std::vector<double>>& per_cell) {
  std::vector<double> all;
  for (const std::vector<double>& ms : per_cell) {
    all.insert(all.end(), ms.begin(), ms.end());
  }
  return all;
}

// The geometric mean, over the cells (of `kind` only, when given), of each
// cell's median.
double CellGeoMean(const Workload& w,
                   const std::vector<std::vector<double>>& per_cell,
                   std::optional<StrategyKind> kind = std::nullopt) {
  std::vector<double> medians;
  for (size_t c = 0; c < w.cells.size(); ++c) {
    if (per_cell[c].empty()) continue;
    if (kind.has_value() && w.cells[c].strategy != *kind) continue;
    medians.push_back(Median(per_cell[c]));
  }
  return GeoMean(medians);
}

// Runs the workload's stream untraced for about `seconds`, ending at a pass
// end with at least kMinSamples answers, and checks every answer. On a
// shared machine other tenants slow the queries and the calibration kernel
// alike, so each latency is also scaled by kCalibrationRefMs / (the kernel
// time measured right after it).
LoopSamples ClosedLoop(const Bench& bench, uint64_t seed, double seconds) {
  const Workload& w = bench.workload;
  CellStream stream(w, seed);
  Calibration calibration(w.threads);
  LoopSamples s;
  s.cell_ms.resize(w.cells.size());
  s.raw_cell_ms.resize(w.cells.size());
  size_t answered = 0;
  // (cell, ms) of the answered queries since the last kernel timing.
  std::vector<std::pair<size_t, double>> group;
  auto calibrate = [&] {
    s.kernel_ms.push_back(calibration.TimeMs());
    const double scale = kCalibrationRefMs / s.kernel_ms.back();
    for (const auto& [c, ms] : group) {
      s.cell_ms[c].push_back(ms * scale);
      s.raw_cell_ms[c].push_back(ms);
    }
    answered += group.size();
    group.clear();
  };
  const Clock::time_point start = Clock::now();
  while (true) {
    const size_t c = stream.Next();
    const Cell& cell = w.cells[c];
    ++s.attempted;
    const Clock::time_point q0 = Clock::now();
    auto result = bench.SessionFor(cell)->Query(bench.Sql(cell),
                                                bench.OptionsFor(cell));
    const double ms = MillisSince(q0);
    if (!result.ok() ||
        !SameRows(result->relation, bench.reference[cell.text])) {
      ++s.failed;
      std::fprintf(stderr, "perfbench: wrong answer: %s %s\n",
                   bench.CellName(cell).c_str(),
                   result.ok() ? "" : result.status().ToString().c_str());
    } else {
      group.emplace_back(c, ms);
    }
    if (group.size() == kCalibrateEvery || stream.AtPassEnd()) calibrate();
    const double elapsed = SecondsSince(start);
    if (stream.AtPassEnd() && elapsed >= seconds && answered >= kMinSamples) {
      break;
    }
    if (elapsed >= 3.0 * seconds + 30.0) break;  // Never overrun.
  }
  if (!group.empty()) calibrate();
  s.loop_s = SecondsSince(start);
  return s;
}

// ---------------------------------------------------------------------------
// End-to-end run (tracing off).

int RunEndToEnd(const Config& config) {
  // The set-up is not calibrated: the loop's kernel does not track the
  // generators' slowdowns (see README.md).
  std::vector<double> setup_s;
  std::unique_ptr<Bench> bench;
  for (int i = 0; i < kSetupReps; ++i) {
    bench.reset();
    const Clock::time_point start = Clock::now();
    bench = SetUp(config, /*time_dblp=*/false);
    setup_s.push_back(SecondsSince(start));
    std::printf("# set-up %d: %.3f s (datagen imdb %.3f s, dblp %.3f s, "
                "warm-up %.3f s)\n",
                i + 1, setup_s.back(), bench->imdb_gen_s, bench->dblp_gen_s,
                bench->warmup_s);
  }
  PrintSetting(*bench, config);

  const Workload& w = bench->workload;
  const LoopSamples s = ClosedLoop(*bench, config.seed, config.seconds);
  const std::vector<double> all_ms = Pooled(s.cell_ms);
  const std::vector<double> raw_ms = Pooled(s.raw_cell_ms);
  double busy_ms = 0.0;
  for (double ms : all_ms) busy_ms += ms;
  std::printf("# %zu queries in %.3f s, failed_ratio %zu/%zu = %g, p95 over "
              "%zu samples\n",
              s.attempted, s.loop_s, s.failed, s.attempted,
              static_cast<double>(s.failed) / static_cast<double>(s.attempted),
              all_ms.size());
  std::printf("# calibration kernel: median %.4f ms over %zu timings "
              "(reference %.4f ms); unscaled p50 %.4f ms, p95 %.4f ms, "
              "geomean %.4f ms\n",
              Median(s.kernel_ms), s.kernel_ms.size(), kCalibrationRefMs,
              Percentile(raw_ms, 0.50), Percentile(raw_ms, 0.95),
              CellGeoMean(w, s.raw_cell_ms));

  // qps is answers per calibrated second spent in Session::Query, which is
  // 1000 / the mean calibrated latency.
  std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"qps", static_cast<double>(all_ms.size()) / (busy_ms / 1000.0),
       "1/cal_s"},
      {"latency_p50_ms", Percentile(all_ms, 0.50), "cal_ms"},
      {"latency_p95_ms", Percentile(all_ms, 0.95), "cal_ms"},
      {"latency_geomean_ms", CellGeoMean(w, s.cell_ms), "cal_ms"},
  };
  for (StrategyKind kind :
       {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
        StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
    metrics.push_back({"latency_geomean_ms." +
                           std::string(prefdb::StrategyKindName(kind)),
                       CellGeoMean(w, s.cell_ms, kind), "cal_ms"});
  }
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  PrintResult(s.failed == 0, s.attempted, s.failed, metrics);
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer ledger.

struct NativeCounters {
  uint64_t scan_rows = 0;
  uint64_t join_build_rows = 0;
  uint64_t join_probe_rows = 0;
  uint64_t parallel_regions = 0;
};

NativeCounters ReadNative(Session* session) {
  prefdb::obs::MetricsRegistry& m = session->engine().metrics();
  return {m.counter(prefdb::obs::kPrefNativeScanRows)->value(),
          m.counter(prefdb::obs::kPrefNativeJoinBuildRows)->value(),
          m.counter(prefdb::obs::kPrefNativeJoinProbeRows)->value(),
          m.counter(prefdb::obs::kPrefNativeParallelRegions)->value()};
}

// What one pass of the traced loop accumulated, summed over its queries.
struct PassTotals {
  size_t queries = 0;
  size_t plan_driven = 0;  // BU/GBU queries, the ones the optimizer serves.
  std::map<std::string, double> self_ms;
  double parse_ms = 0.0;
  double optimize_ms = 0.0;
  double strategy_ms = 0.0;
  double filter_ms = 0.0;
  ExecStats stats;
  NativeCounters native;
  uint64_t result_rows = 0;
  CacheStats cache;  // Deltas; `bytes` is the resident size at pass end.
  ThreadPoolTelemetry pool;
};

// Projects onto the query's output columns plus score and conf — what
// Session::Run does after ApplyFilters, whose helper for it is internal to
// runner.cc.
StatusOr<Relation> Project(Relation scored,
                           const std::vector<std::string>& columns) {
  if (columns.empty()) return scored;
  std::vector<size_t> indices;
  for (const std::string& name : columns) {
    ASSIGN_OR_RETURN(size_t idx, scored.schema().FindColumn(name));
    indices.push_back(idx);
  }
  for (const char* name : {"score", "conf"}) {
    ASSIGN_OR_RETURN(size_t idx, scored.schema().FindColumn(name));
    indices.push_back(idx);
  }
  Relation out(scored.schema().Select(indices));
  out.Reserve(scored.NumRows());
  for (const Tuple& row : scored.rows()) {
    out.AddRow(prefdb::ProjectTuple(row, indices));
  }
  return out;
}

// Runs `sql` through the layers' public calls with the cache off, timing
// each call into `pass`.
StatusOr<Relation> DriveLayers(Session* session, const std::string& sql,
                               const QueryOptions& options, PassTotals* pass) {
  prefdb::Engine& engine = session->engine();
  Clock::time_point t = Clock::now();
  ASSIGN_OR_RETURN(prefdb::ParsedQuery parsed,
                   prefdb::ParseQuery(sql, engine.catalog()));
  pass->parse_ms += MillisSince(t);

  const prefdb::PlanNode* plan = parsed.plan.get();
  prefdb::PlanPtr optimized;
  if (options.strategy == StrategyKind::kBU ||
      options.strategy == StrategyKind::kGBU) {
    t = Clock::now();
    prefdb::ExtendedOptimizer optimizer(&engine, options.optimizer);
    ASSIGN_OR_RETURN(optimized, optimizer.Optimize(*plan));
    plan = optimized.get();
    pass->optimize_ms += MillisSince(t);
    ++pass->plan_driven;
  }
  const prefdb::AggregateFunction* agg = parsed.agg;
  if (agg == nullptr) {
    ASSIGN_OR_RETURN(agg, prefdb::GetAggregateFunction("wsum"));
  }

  const bool cache_was_enabled = engine.cache()->enabled();
  engine.cache()->set_enabled(false);
  engine.set_parallel_context(options.parallel);
  ExecStats stats;
  t = Clock::now();
  auto evaluated = prefdb::MakeStrategy(options.strategy)
                       ->ExecuteWithStats(*plan, *agg, &engine, &stats);
  pass->strategy_ms += MillisSince(t);
  engine.cache()->set_enabled(cache_was_enabled);
  if (!evaluated.ok()) return evaluated.status();

  t = Clock::now();
  ASSIGN_OR_RETURN(Relation filtered,
                   prefdb::ApplyFilters(*evaluated, parsed.filters));
  pass->filter_ms += MillisSince(t);
  return Project(std::move(filtered), parsed.output_columns);
}

class TracedRun {
 public:
  TracedRun(const Config& config, std::unique_ptr<Bench> bench)
      : config_(config), bench_(std::move(bench)), w_(bench_->workload) {}

  int Run();

 private:
  // Runs `cell` traced through Session::Query and through DriveLayers,
  // checks both answers and books everything into `pass`.
  void TraceOne(const Cell& cell, PassTotals* pass);
  // Runs `cell` with `options` and checks the answer. Returns the result
  // when it is right; `ms` receives the latency either way.
  std::optional<prefdb::QueryResult> Checked(const Cell& cell,
                                             const QueryOptions& options,
                                             double* ms);
  // Folds `root` into self times and checks that its spans nest: the
  // root within the query's `wall_ms` and, at threads=1, every child
  // within its parent.
  void Fold(const prefdb::obs::Span& root, double wall_ms, size_t threads,
            std::map<std::string, double>* out);
  // Side passes over the core cells with the cache off.
  void OverheadPass();
  void SpeedupPass();
  std::vector<Metric> Metrics() const;

  const Config& config_;
  std::unique_ptr<Bench> bench_;
  const Workload& w_;
  std::vector<PassTotals> passes_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t fold_errors_ = 0;
  std::vector<double> hit_ms_, miss_ms_, off_ms_, cold_over_off_;
  double traced_ms_ = 0.0;
  double untraced_ms_ = 0.0;
  std::map<std::string, double> speedup_;
  // An untraced closed loop, for the measured (unscaled) end-to-end figures.
  LoopSamples unscaled_;
};

void TracedRun::Fold(const prefdb::obs::Span& root, double wall_ms,
                     size_t threads, std::map<std::string, double>* out) {
  const double smallest = FoldSelfTimes(root, out);
  const double root_ms = root.micros / 1000.0;
  if (root_ms > wall_ms + kNestingSlackMs ||
      (threads == 1 && smallest < -kNestingSlackMs)) {
    ++fold_errors_;
    std::fprintf(stderr,
                 "perfbench: spans do not nest: root %.6f ms, query %.6f ms, "
                 "smallest self time %.6f ms at threads=%zu\n",
                 root_ms, wall_ms, smallest, threads);
  }
}

std::optional<prefdb::QueryResult> TracedRun::Checked(
    const Cell& cell, const QueryOptions& options, double* ms) {
  ++attempted_;
  const Clock::time_point t = Clock::now();
  auto result = bench_->SessionFor(cell)->Query(bench_->Sql(cell), options);
  *ms = MillisSince(t);
  if (!result.ok() ||
      !SameRows(result->relation, bench_->reference[cell.text])) {
    ++failed_;
    std::fprintf(stderr, "perfbench: wrong answer: %s\n",
                 bench_->CellName(cell).c_str());
    return std::nullopt;
  }
  return std::move(*result);
}

void TracedRun::TraceOne(const Cell& cell, PassTotals* pass) {
  Session* session = bench_->SessionFor(cell);
  QueryOptions options = bench_->OptionsFor(cell);
  options.trace = true;

  const CacheStats cache0 = session->engine().cache()->snapshot();
  const ThreadPoolTelemetry pool0 = ThreadPool::Shared().telemetry();
  const NativeCounters native0 = ReadNative(session);
  double ms = 0.0;
  std::optional<prefdb::QueryResult> result = Checked(cell, options, &ms);
  const CacheStats cache1 = session->engine().cache()->snapshot();
  const ThreadPoolTelemetry pool1 = ThreadPool::Shared().telemetry();
  const NativeCounters native1 = ReadNative(session);
  if (!result.has_value()) return;

  ++pass->queries;
  pass->stats.Merge(result->stats);
  pass->result_rows += result->relation.NumRows();
  pass->native.scan_rows += native1.scan_rows - native0.scan_rows;
  pass->native.join_build_rows += native1.join_build_rows - native0.join_build_rows;
  pass->native.join_probe_rows += native1.join_probe_rows - native0.join_probe_rows;
  pass->native.parallel_regions +=
      native1.parallel_regions - native0.parallel_regions;
  pass->cache.hits += cache1.hits - cache0.hits;
  pass->cache.misses += cache1.misses - cache0.misses;
  pass->cache.insertions += cache1.insertions - cache0.insertions;
  pass->cache.admission_rejected +=
      cache1.admission_rejected - cache0.admission_rejected;
  pass->cache.evictions += cache1.evictions - cache0.evictions;
  pass->cache.bytes = cache1.bytes;
  pass->pool.tasks_executed += pool1.tasks_executed - pool0.tasks_executed;
  pass->pool.steals += pool1.steals - pool0.steals;
  pass->pool.help_drains += pool1.help_drains - pool0.help_drains;
  pass->pool.queue_wait_micros +=
      pool1.queue_wait_micros - pool0.queue_wait_micros;
  if (result->trace != nullptr) {
    Fold(*result->trace, ms, options.parallel.threads, &pass->self_ms);
  }

  // The same query through the layers' own entry points must give the
  // same answer as Session::Query.
  ++attempted_;
  auto layered = DriveLayers(session, bench_->Sql(cell), options, pass);
  if (!layered.ok() ||
      !SameRows(*layered, SortedRows(result->relation))) {
    ++failed_;
    std::fprintf(stderr, "perfbench: layered answer differs: %s\n",
                 bench_->CellName(cell).c_str());
  }

  // A query is a hit or a miss by its own cache deltas; misses re-run with
  // the cache off give the cold-path cost.
  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t misses = cache1.misses - cache0.misses;
  if (hits > 0 && misses == 0) hit_ms_.push_back(ms);
  if (hits == 0 && misses > 0) {
    QueryOptions off = options;
    off.cache = false;
    double off_ms = 0.0;
    Checked(cell, off, &off_ms);
    miss_ms_.push_back(ms);
    off_ms_.push_back(off_ms);
    cold_over_off_.push_back(ms / off_ms);
  }
}

void TracedRun::OverheadPass() {
  for (size_t c : w_.core_cells) {
    const Cell& cell = w_.cells[c];
    QueryOptions options = bench_->OptionsFor(cell);
    options.cache = false;
    std::vector<double> plain, traced;
    for (int r = 0; r < kSideReps; ++r) {
      double ms = 0.0;
      options.trace = false;
      Checked(cell, options, &ms);
      plain.push_back(ms);
      options.trace = true;
      Checked(cell, options, &ms);
      traced.push_back(ms);
    }
    untraced_ms_ += Median(plain);
    traced_ms_ += Median(traced);
  }
}

void TracedRun::SpeedupPass() {
  // self_ms[threads - 1][rep][group]
  std::map<std::string, double> self[2][kSideReps];
  for (int r = 0; r < kSideReps; ++r) {
    for (size_t c : w_.core_cells) {
      const Cell& cell = w_.cells[c];
      for (size_t threads : {1, 2}) {
        QueryOptions options = bench_->OptionsFor(cell);
        options.cache = false;
        options.trace = true;
        options.parallel.threads = threads;
        double ms = 0.0;
        std::optional<prefdb::QueryResult> result = Checked(cell, options, &ms);
        if (result.has_value() && result->trace != nullptr) {
          Fold(*result->trace, ms, threads, &self[threads - 1][r]);
        }
      }
    }
  }
  for (const char* group : {"native.scan", "native.join.probe", "Prefer",
                            "PostFilterSweep", "RecombineScores"}) {
    std::vector<double> t1, t2;
    for (int r = 0; r < kSideReps; ++r) {
      t1.push_back(self[0][r][group]);
      t2.push_back(self[1][r][group]);
    }
    const double m2 = Median(t2);
    speedup_[group] = m2 > 0.0 ? Median(t1) / m2 : 0.0;
    std::printf("# speedup %-20s threads=1 %.3f ms / threads=2 %.3f ms\n",
                group, Median(t1), m2);
  }
}

int TracedRun::Run() {
  PrintSetting(*bench_, config_);
  std::printf("# set-up: datagen imdb %.3f s, dblp %.3f s, warm-up %.3f s\n",
              bench_->imdb_gen_s, bench_->dblp_gen_s, bench_->warmup_s);
  CellStream stream(w_, config_.seed);
  const Clock::time_point start = Clock::now();
  passes_.emplace_back();
  while (true) {
    TraceOne(w_.cells[stream.Next()], &passes_.back());
    if (stream.AtPassEnd()) {
      const double elapsed = SecondsSince(start);
      if (elapsed >= config_.seconds) break;
      passes_.emplace_back();
    }
  }
  OverheadPass();
  SpeedupPass();
  // The unscaled loop starts from an empty cache, as the end-to-end run
  // does.
  for (Session* s : {bench_->imdb.get(), bench_->dblp.get()}) {
    if (s != nullptr) s->engine().cache()->Clear();
  }
  unscaled_ = ClosedLoop(*bench_, config_.seed, config_.seconds / 4);
  attempted_ += unscaled_.attempted;
  failed_ += unscaled_.failed;

  std::printf("# %zu traced passes; self time per query by span name "
              "(first pass):\n",
              passes_.size());
  const PassTotals& first = passes_.front();
  for (const auto& [group, ms] : first.self_ms) {
    std::printf("#   %-28s %10.4f ms\n", group.c_str(),
                ms / static_cast<double>(std::max<size_t>(first.queries, 1)));
  }
  std::printf("# cache: %llu hits / %llu lookups (first pass); cold/off over "
              "%zu missed queries\n",
              static_cast<unsigned long long>(first.cache.hits),
              static_cast<unsigned long long>(first.cache.hits +
                                              first.cache.misses),
              miss_ms_.size());
  std::printf("# engine: %llu rows scanned / %llu result rows (first pass)\n",
              static_cast<unsigned long long>(first.native.scan_rows),
              static_cast<unsigned long long>(first.result_rows));
  PrintResult(failed_ == 0 && fold_errors_ == 0, attempted_, failed_,
              Metrics());
  return 0;
}

std::vector<Metric> TracedRun::Metrics() const {
  // Timings: the median over passes of the per-query mean.
  auto per_query = [this](auto field) {
    std::vector<double> values;
    for (const PassTotals& p : passes_) {
      if (p.queries > 0) {
        values.push_back(field(p) / static_cast<double>(p.queries));
      }
    }
    return Median(values);
  };
  auto self = [&](const char* group) {
    return per_query([group](const PassTotals& p) {
      auto it = p.self_ms.find(group);
      return it == p.self_ms.end() ? 0.0 : it->second;
    });
  };
  // Exact counts: the first pass, which every run with the seed repeats.
  const PassTotals& f = passes_.front();
  const double n = static_cast<double>(std::max<size_t>(f.queries, 1));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<double> optimize;
  for (const PassTotals& p : passes_) {
    if (p.plan_driven > 0) {
      optimize.push_back(p.optimize_ms / static_cast<double>(p.plan_driven));
    }
  }
  const double lookups = static_cast<double>(f.cache.hits + f.cache.misses);
  // A first-pass count per query, and a first-pass count as is.
  auto count = [n](auto total) { return static_cast<double>(total) / n; };
  auto exact = [](auto total) { return static_cast<double>(total); };
  using P = const PassTotals&;

  std::vector<Metric> m = {
      {"datagen.imdb_s", bench_->imdb_gen_s, "s"},
      {"datagen.dblp_s", bench_->dblp_gen_s, "s"},
      {"storage.warmup_s", bench_->warmup_s, "s"},
      {"parser.parse_ms", per_query([](P p) { return p.parse_ms; }), "ms"},
      {"optimizer.optimize_ms", Median(optimize), "ms"},
      {"exec.strategy_ms", per_query([](P p) { return p.strategy_ms; }), "ms"},
      {"exec.post_filter_sweep_self_ms", self("PostFilterSweep"), "ms"},
      {"exec.recombine_scores_self_ms", self("RecombineScores"), "ms"},
      {"exec.materialize_region_inputs_self_ms", self("MaterializeRegionInputs"),
       "ms"},
      {"exec.merge_partial_self_ms", self("MergePartial"), "ms"},
      {"exec.filter_and_project_self_ms", self("FilterAndProject"), "ms"},
      {"exec.engine_queries", count(f.stats.engine_queries), "count"},
      {"exec.tuples_materialized", count(f.stats.tuples_materialized), "count"},
      {"exec.score_entries_written", count(f.stats.score_entries_written), "count"},
      {"exec.operator_invocations", count(f.stats.operator_invocations), "count"},
      {"engine.scan_self_ms", self("native.scan"), "ms"},
      {"engine.join_build_self_ms", self("native.join.build"), "ms"},
      {"engine.join_probe_self_ms", self("native.join.probe"), "ms"},
      {"engine.join_self_ms", self("native.join"), "ms"},
      {"engine.project_self_ms", self("native.project"), "ms"},
      {"engine.select_self_ms", self("native.select"), "ms"},
      {"engine.rows_scanned", count(f.native.scan_rows), "count"},
      {"engine.join_build_rows", count(f.native.join_build_rows), "count"},
      {"engine.join_probe_rows", count(f.native.join_probe_rows), "count"},
      {"engine.result_rows", count(f.result_rows), "count"},
      {"engine.rows_examined_per_result",
       ratio(exact(f.native.scan_rows), exact(f.result_rows)), "ratio"},
      {"palgebra.prefer_self_ms", self("Prefer"), "ms"},
      {"palgebra.filter_ms", per_query([](P p) { return p.filter_ms; }), "ms"},
      {"cache.lookups", lookups, "count"},
      {"cache.hits", exact(f.cache.hits), "count"},
      {"cache.hit_ratio", ratio(exact(f.cache.hits), lookups), "ratio"},
      {"cache.insertions", exact(f.cache.insertions), "count"},
      {"cache.admission_rejected", exact(f.cache.admission_rejected), "count"},
      {"cache.evictions", exact(f.cache.evictions), "count"},
      {"cache.resident_mb", exact(f.cache.bytes) / (1024.0 * 1024.0), "MiB"},
      {"cache.hit_query_p50_ms", Median(hit_ms_), "ms"},
      {"cache.miss_query_p50_ms", Median(miss_ms_), "ms"},
      {"cache.off_query_p50_ms", Median(off_ms_), "ms"},
      {"cache.cold_over_off_ratio", Median(cold_over_off_), "ratio"},
      {"parallel.tasks_executed",
       per_query([&](P p) { return exact(p.pool.tasks_executed); }), "count"},
      {"parallel.steals", per_query([&](P p) { return exact(p.pool.steals); }),
       "count"},
      {"parallel.help_drains",
       per_query([&](P p) { return exact(p.pool.help_drains); }), "count"},
      {"parallel.queue_wait_ms",
       per_query([](P p) { return p.pool.queue_wait_micros / 1000.0; }), "ms"},
      {"engine.parallel_regions",
       per_query([&](P p) { return exact(p.native.parallel_regions); }), "count"},
  };
  for (const auto& [group, value] : speedup_) {
    m.push_back({"parallel.speedup." + group, value, "ratio"});
  }
  const std::vector<double> raw_ms = Pooled(unscaled_.raw_cell_ms);
  m.push_back({"e2e.unscaled_p50_ms", Percentile(raw_ms, 0.50), "ms"});
  m.push_back({"e2e.unscaled_p95_ms", Percentile(raw_ms, 0.95), "ms"});
  m.push_back({"e2e.unscaled_geomean_ms",
               CellGeoMean(w_, unscaled_.raw_cell_ms), "ms"});
  m.push_back({"e2e.calibration_kernel_ms", Median(unscaled_.kernel_ms), "ms"});
  m.push_back({"obs.untraced_ms", untraced_ms_, "ms"});
  m.push_back({"obs.traced_ms", traced_ms_, "ms"});
  m.push_back(
      {"obs.trace_overhead_ratio", ratio(traced_ms_, untraced_ms_), "ratio"});
  return m;
}

// ---------------------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: prefbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--sf <scale>]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--sf") {
      config.sf = std::atof(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == config.workload;
  if (!known) return Usage(("unknown workload '" + config.workload + "'").c_str());
  if (config.sf <= 0 || config.seconds <= 0) {
    return Usage("--sf and --seconds must be positive");
  }
  if (!config.trace) return RunEndToEnd(config);
  TracedRun run(config, SetUp(config, /*time_dblp=*/true));
  return run.Run();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
