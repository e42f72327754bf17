#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "workload/workload.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

const std::vector<StrategyKind>& AllStrategies() {
  static const std::vector<StrategyKind> kAll = {
      StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
      StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined};
  return kAll;
}

[[noreturn]] void Die(const std::string& what, const prefdb::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

// Appends `texts` and one cell per (text, strategy); the cells of texts
// named in Table II (IMDB-n / DBLP-n) also become core cells.
void AddTexts(Workload* w, const std::vector<QueryText>& texts) {
  for (const QueryText& text : texts) {
    const size_t t = w->texts.size();
    w->texts.push_back(text);
    const bool core = text.name.rfind("IMDB-", 0) == 0 ||
                      text.name.rfind("DBLP-", 0) == 0;
    for (StrategyKind kind : AllStrategies()) {
      if (core) w->core_cells.push_back(w->cells.size());
      w->cells.push_back(Cell{t, kind});
    }
  }
}

std::vector<QueryText> TableTwo(Dataset dataset) {
  std::vector<QueryText> out;
  for (const prefdb::WorkloadQuery& q : dataset == Dataset::kImdb
                                            ? prefdb::ImdbWorkload()
                                            : prefdb::DblpWorkload()) {
    out.push_back(QueryText{q.name, q.sql, dataset});
  }
  return out;
}

// The repeated-query population of cache_stream: the evaluation's IMDB
// sweeps (preferences 1..8, relations 1..5, ten preference selectivities)
// plus IMDB-1..3. Texts sharing a join graph share their non-preference
// query Q_NP, so a draw can hit the delegated scan yet miss the prefer
// output.
std::vector<QueryText> CachePopulation(size_t movies) {
  std::vector<QueryText> out;
  for (int n = 1; n <= 8; ++n) {
    out.push_back({"prefs" + std::to_string(n),
                   prefdb::ImdbPreferenceSweep(n), Dataset::kImdb});
  }
  for (int n = 1; n <= 5; ++n) {
    out.push_back({"relations" + std::to_string(n),
                   prefdb::ImdbRelationsSweep(n), Dataset::kImdb});
  }
  for (double f : {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0}) {
    char name[32];
    std::snprintf(name, sizeof(name), "selectivity%g", f);
    out.push_back({name,
                   prefdb::ImdbSelectivitySweep(f, static_cast<long long>(movies)),
                   Dataset::kImdb});
  }
  for (const QueryText& q : TableTwo(Dataset::kImdb)) out.push_back(q);
  return out;
}

// Draws per cache_stream pass: twice the population.
constexpr double kZipfPassDraws = 260.0;

// One cache_stream pass draws the cell of popularity rank r about
// kZipfPassDraws / (r * H) times, at least once: Zipf with s=1. The ranking
// is the population order, so the simple sweep variants are the popular
// ones and the heavy joins (relations4/5, IMDB-2/3) are rare and cold.
// Every pass has the same composition, so every seed meets the same
// variants as often; the seed orders them, which decides the repeats that
// still hit after LRU evictions.
std::vector<size_t> ZipfPass(size_t n_cells) {
  double harmonic = 0.0;
  for (size_t r = 1; r <= n_cells; ++r) harmonic += 1.0 / static_cast<double>(r);
  std::vector<size_t> pass;
  for (size_t r = 1; r <= n_cells; ++r) {
    const long draws = std::max(
        1L, std::lround(kZipfPassDraws / (static_cast<double>(r) * harmonic)));
    pass.insert(pass.end(), static_cast<size_t>(draws), r - 1);
  }
  return pass;
}

Workload MakeWorkload(const std::string& name, size_t movies) {
  Workload w;
  w.name = name;
  if (name == "paper_serial") {
    AddTexts(&w, TableTwo(Dataset::kImdb));
    AddTexts(&w, TableTwo(Dataset::kDblp));
    w.uses_dblp = true;
  } else if (name == "paper_parallel") {
    w.threads = 2;
    AddTexts(&w, TableTwo(Dataset::kImdb));
  } else if (name == "cache_stream") {
    w.cache = true;
    AddTexts(&w, CachePopulation(movies));
    w.pass = ZipfPass(w.cells.size());
    return w;
  }
  w.pass.resize(w.cells.size());
  std::iota(w.pass.begin(), w.pass.end(), 0);
  return w;
}

prefdb::StatusOr<prefdb::Catalog> GenerateCatalog(Dataset dataset,
                                                 const Config& config) {
  if (dataset == Dataset::kImdb) {
    prefdb::ImdbOptions options;
    options.scale = config.sf;
    options.seed = config.seed;
    return prefdb::GenerateImdb(options);
  }
  prefdb::DblpOptions options;
  options.scale = config.sf;
  options.seed = config.seed + 1000003;
  return prefdb::GenerateDblp(options);
}

// Generates `dataset` into a new session; `seconds` receives the time the
// generator took.
std::unique_ptr<Session> Generate(Dataset dataset, const Config& config,
                                  double* seconds) {
  const Clock::time_point start = Clock::now();
  auto catalog = GenerateCatalog(dataset, config);
  *seconds = SecondsSince(start);
  if (!catalog.ok()) {
    Die(dataset == Dataset::kImdb ? "GenerateImdb" : "GenerateDblp",
        catalog.status());
  }
  return std::make_unique<Session>(std::move(*catalog));
}

size_t TableRows(Session* session, const std::string& table) {
  auto t = session->engine().catalog().GetTable(table);
  return t.ok() ? (*t)->NumRows() : 0;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_serial",
                                                  "paper_parallel",
                                                  "cache_stream"};
  return kNames;
}

Session* Bench::SessionFor(const Cell& cell) const {
  return workload.texts[cell.text].dataset == Dataset::kImdb ? imdb.get()
                                                             : dblp.get();
}

const std::string& Bench::Sql(const Cell& cell) const {
  return workload.texts[cell.text].sql;
}

QueryOptions Bench::OptionsFor(const Cell& cell) const {
  QueryOptions options;
  options.strategy = cell.strategy;
  options.parallel.threads = workload.threads;
  options.cache = workload.cache;
  return options;
}

std::string Bench::CellName(const Cell& cell) const {
  return workload.texts[cell.text].name + "/" +
         std::string(prefdb::StrategyKindName(cell.strategy));
}

std::unique_ptr<Bench> SetUp(const Config& config, bool time_dblp) {
  auto bench = std::make_unique<Bench>();
  bench->imdb = Generate(Dataset::kImdb, config, &bench->imdb_gen_s);
  bench->movies = TableRows(bench->imdb.get(), "MOVIES");
  bench->workload = MakeWorkload(config.workload, bench->movies);
  if (bench->workload.uses_dblp || time_dblp) {
    bench->dblp = Generate(Dataset::kDblp, config, &bench->dblp_gen_s);
    bench->publications = TableRows(bench->dblp.get(), "PUBLICATIONS");
    if (!bench->workload.uses_dblp) bench->dblp.reset();
  }

  const Clock::time_point start = Clock::now();
  const Workload& w = bench->workload;
  for (size_t t = 0; t < w.texts.size(); ++t) {
    Cell cell{t, StrategyKind::kFtP};
    QueryOptions options;
    options.strategy = StrategyKind::kFtP;
    options.cache = false;
    auto result = bench->SessionFor(cell)->Query(w.texts[t].sql, options);
    if (!result.ok()) Die("reference " + w.texts[t].name, result.status());
    bench->reference.push_back(SortedRows(result->relation));
  }
  for (const Cell& cell : w.cells) {
    QueryOptions options = bench->OptionsFor(cell);
    options.cache = false;
    auto result = bench->SessionFor(cell)->Query(bench->Sql(cell), options);
    if (!result.ok()) Die("warm-up " + bench->CellName(cell), result.status());
  }
  for (Session* s : {bench->imdb.get(), bench->dblp.get()}) {
    if (s != nullptr) s->engine().cache()->Clear();
  }
  bench->warmup_s = SecondsSince(start);
  return bench;
}

size_t CellStream::Next() {
  if (pos_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
  const size_t cell = order_[pos_];
  pos_ = (pos_ + 1) % order_.size();
  return cell;
}

Calibration::Calibration(size_t threads)
    : lanes_(std::max<size_t>(threads, 1)) {
  for (Lane& lane : lanes_) lane.buffer.assign(kWords, 0);
}

double Calibration::TimeLane(Lane* lane) {
  std::vector<uint64_t>& buffer = lane->buffer;
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    const Clock::time_point start = Clock::now();
    uint64_t x = lane->state;
    for (size_t i = 0; i < kSteps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buffer[(x ^ buffer[x & (kWords - 1)]) & (kWords - 1)] += x;
    }
    lane->state = x;
    const double ms = SecondsSince(start) * 1000.0;
    if (run == 0 || ms < best) best = ms;
  }
  return best;
}

double Calibration::TimeMs() {
  std::vector<double> ms(lanes_.size());
  std::vector<std::thread> helpers;
  for (size_t i = 1; i < lanes_.size(); ++i) {
    helpers.emplace_back([this, &ms, i] { ms[i] = TimeLane(&lanes_[i]); });
  }
  ms[0] = TimeLane(&lanes_[0]);
  for (std::thread& helper : helpers) helper.join();
  return std::accumulate(ms.begin(), ms.end(), 0.0) /
         static_cast<double>(ms.size());
}

std::vector<Tuple> SortedRows(const Relation& relation) {
  std::vector<Tuple> rows = relation.rows();
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

bool SameRows(const Relation& actual, const std::vector<Tuple>& expected_sorted,
              double eps) {
  if (actual.NumRows() != expected_sorted.size()) return false;
  const std::vector<Tuple> rows = SortedRows(actual);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Tuple& a = rows[i];
    const Tuple& e = expected_sorted[i];
    if (a.size() != e.size()) return false;
    for (size_t j = 0; j < a.size(); ++j) {
      if (a[j].is_numeric() && e[j].is_numeric()) {
        if (std::fabs(a[j].NumericValue() - e[j].NumericValue()) > eps) {
          return false;
        }
      } else if (!(a[j] == e[j])) {
        return false;
      }
    }
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double FoldSelfTimes(const prefdb::obs::Span& span,
                     std::map<std::string, double>* self_ms) {
  const double self = (span.micros - span.ChildMicros()) / 1000.0;
  (*self_ms)[span.name.substr(0, span.name.find('['))] += self;
  double smallest = self;
  for (const prefdb::obs::SpanPtr& child : span.children) {
    smallest = std::min(smallest, FoldSelfTimes(*child, self_ms));
  }
  return smallest;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-44s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
