// Pins the front end's outputs — the parsed plan, the extended optimizer's
// rewrite, the native optimizer's EXPLAIN and join order — for the Table II
// queries and the cache_stream sweep texts, against a golden file. The
// front end (parser, extended optimizer, native optimizer) may change how
// it derives shapes and binds columns, but never what it produces.
//
// To regenerate after an intended plan change:
//   PREFDB_REGENERATE_GOLDEN=1 ./frontend_golden_test
// rewrites tests/golden/frontend_plans.txt in the source tree.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "exec/strategy.h"
#include "gtest/gtest.h"
#include "optimizer/extended_optimizer.h"
#include "parser/parser.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

std::string GoldenPath() {
  return std::string(PREFDB_SOURCE_DIR) + "/tests/golden/frontend_plans.txt";
}

void AppendExplain(const Engine& engine, const std::string& label,
                   const PlanNode& plan, std::string* out) {
  *out += "-- explain " + label + "\n";
  StatusOr<std::string> explained = engine.Explain(plan);
  *out += explained.ok() ? *explained : "error: " + explained.status().ToString() + "\n";
}

// The maximal prefer-free subtrees of an extended plan: what BU and GBU
// hand to the engine.
void CollectDelegated(const PlanNode& node, std::vector<const PlanNode*>* out) {
  if (!node.ContainsPrefer()) {
    out->push_back(&node);
    return;
  }
  for (const PlanPtr& child : node.children) CollectDelegated(*child, out);
}

// Everything the front end produces for one query text.
std::string Describe(Session* session, const std::string& name,
                     const std::string& sql) {
  const Engine& engine = session->engine();
  std::string out = "== " + name + "\n";
  StatusOr<ParsedQuery> parsed = ParseQuery(sql, engine.catalog());
  if (!parsed.ok()) return out + "parse error: " + parsed.status().ToString() + "\n";
  const PlanNode& plan = *parsed->plan;
  out += "-- parsed\n" + plan.ToString();

  // BU and GBU both run the extended optimizer with the default options;
  // the second variant covers the greedy order and cost-based placement.
  ExtendedOptimizerOptions greedy;
  greedy.match_native_join_order = false;
  greedy.cost_based_prefer_placement = true;
  const std::pair<const char*, ExtendedOptimizerOptions> variants[] = {
      {"extended (BU, GBU)", ExtendedOptimizerOptions{}},
      {"extended (greedy, cost-based)", greedy}};
  for (const auto& [label, options] : variants) {
    out += std::string("-- ") + label + "\n";
    StatusOr<PlanPtr> optimized = ExtendedOptimizer(&engine, options).Optimize(plan);
    if (!optimized.ok()) {
      out += "error: " + optimized.status().ToString() + "\n";
      continue;
    }
    out += (*optimized)->ToString();
    std::vector<const PlanNode*> delegated;
    CollectDelegated(**optimized, &delegated);
    for (size_t i = 0; i < delegated.size(); ++i) {
      AppendExplain(engine, StrFormat("delegated[%zu]", i), *delegated[i], &out);
    }
  }

  PlanPtr q_np = StripPrefers(plan);
  AppendExplain(engine, "Q_NP", *q_np, &out);
  StatusOr<std::vector<std::string>> order = engine.ExplainJoinOrder(*q_np);
  out += "-- join order\n" +
         (order.ok() ? StrJoin(*order, ", ") : order.status().ToString()) + "\n";

  // The plug-ins' rewrites (RewriteForPlugIn): per preference,
  // PlugInCombined's MembershipQuery (a membership preference's) and
  // PlugInBasic's RewriteQuery, then PlugInCombined's CombinedQuery.
  const std::vector<PreferencePtr> prefs = CollectPrefers(plan);
  StatusOr<PlugInRewrites> basic = RewriteForPlugIn(*q_np, prefs, false, engine.catalog());
  StatusOr<PlugInRewrites> combined = RewriteForPlugIn(*q_np, prefs, true, engine.catalog());
  if (!basic.ok()) return out + "error: " + basic.status().ToString() + "\n";
  if (!combined.ok()) return out + "error: " + combined.status().ToString() + "\n";
  auto explain = [&](const PlugInRewrites& rewrites, const std::string& label) {
    auto it = std::find(rewrites.labels.begin(), rewrites.labels.end(), label);
    if (it == rewrites.labels.end()) return;
    AppendExplain(engine, label, *rewrites.plans[static_cast<size_t>(
                                     it - rewrites.labels.begin())], &out);
  };
  for (const PreferencePtr& pref : prefs) {
    explain(*combined, "MembershipQuery[" + pref->name() + "]");
    explain(*basic, "RewriteQuery[" + pref->name() + "]");
  }
  explain(*combined, "CombinedQuery");
  return out;
}

std::string DescribeAll() {
  ImdbOptions imdb_options;
  imdb_options.scale = 0.001;
  imdb_options.seed = 3;
  StatusOr<Catalog> imdb = GenerateImdb(imdb_options);
  DblpOptions dblp_options;
  dblp_options.scale = 0.001;
  dblp_options.seed = 3;
  StatusOr<Catalog> dblp = GenerateDblp(dblp_options);
  EXPECT_TRUE(imdb.ok() && dblp.ok());
  if (!imdb.ok() || !dblp.ok()) return "";
  const long long movies =
      static_cast<long long>((*imdb->GetTable("MOVIES"))->NumRows());
  Session imdb_session(std::move(*imdb));
  Session dblp_session(std::move(*dblp));

  std::string out;
  for (const WorkloadQuery& q : ImdbWorkload()) {
    out += Describe(&imdb_session, q.name, q.sql);
  }
  for (const WorkloadQuery& q : DblpWorkload()) {
    out += Describe(&dblp_session, q.name, q.sql);
  }
  for (int n = 1; n <= 8; ++n) {
    out += Describe(&imdb_session, StrFormat("prefs%d", n), ImdbPreferenceSweep(n));
  }
  for (int n = 1; n <= 5; ++n) {
    out += Describe(&imdb_session, StrFormat("relations%d", n),
                    ImdbRelationsSweep(n));
  }
  for (double f : {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0}) {
    out += Describe(&imdb_session, StrFormat("selectivity%g", f),
                    ImdbSelectivitySweep(f, movies));
  }
  return out;
}

TEST(FrontendGoldenTest, PlansMatchGoldenFile) {
  const std::string actual = DescribeAll();
  ASSERT_FALSE(actual.empty());
  if (std::getenv("PREFDB_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream(GoldenPath()) << actual;
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }
  std::ifstream in(GoldenPath());
  ASSERT_TRUE(in.good()) << "missing golden file " << GoldenPath();
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  // Report the first differing line, with the query it belongs to.
  std::istringstream want(expected.str()), got(actual);
  std::string want_line, got_line, query;
  for (size_t line = 1;; ++line) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (more_want && want_line.rfind("== ", 0) == 0) query = want_line;
    if (!more_want || !more_got || want_line != got_line) {
      FAIL() << "front-end output differs from " << GoldenPath() << " at line "
             << line << " (" << query << ")\n  expected: " << want_line
             << "\n  actual:   " << got_line;
    }
  }
}

}  // namespace
}  // namespace prefdb
