// An independent semantic oracle for preference queries. OracleEval below
// evaluates a parsed (unoptimized) extended plan straight from the paper's
// definitions:
//   * every tuple carries its ⟨score, conf⟩ pair inline (and the match count
//     the §V "at least n preferences" filter reads);
//   * prefer λ_{p,F} tests membership, then σ_φ, then scores with S and C and
//     folds the contribution with F, tuple by tuple;
//   * σ, π, ⋈, ⋉, ∪, ∩, − and DISTINCT are nested loops over lists, and the
//     binary operators fold the two sides' pairs with F (Fig. 3);
//   * the filters follow §V, with NOT DOMINATED as Chomicki's winnow.
// The aggregate functions are re-implemented here from their definitions.
// Nothing is shared with the engine beyond expression evaluation, the plan
// and the catalog: no optimizer, no ScoreRelation, no hashing, no cache, no
// temp tables. Every strategy × optimizer {on, off} × threads
// {1, 2} × result cache {off, cold, warm} must return the oracle's answer
// on ≥500 fuzzed queries and on
// Table II at a tiny scale. Scores and confidences match within kMaxUlps:
// the engine folds the same pairs in a different (optimizer-chosen) order.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "gtest/gtest.h"
#include "parser/parser.h"
#include "test_util.h"
#include "workload/workload.h"

namespace prefdb {
namespace {

constexpr int64_t kMaxUlps = 64;

struct Pair {
  bool known = false;
  double score = 0.0;
  double conf = 0.0;
  uint32_t matches = 0;
};

Pair Known(double score, double conf) {
  if (conf <= 0.0 || !std::isfinite(score) || !std::isfinite(conf)) return {};
  return {true, score, conf, 1};
}

// F by its definition (paper Def. 3 and the extensions), plus the count.
Pair Fold(const std::string& agg, const Pair& a, const Pair& b) {
  if (!a.known) return b;
  if (!b.known) return a;
  Pair out;
  if (agg == "wsum") {
    double total = a.conf + b.conf;
    out = Known((a.conf * a.score + b.conf * b.score) / total, total);
  } else if (agg == "maxconf") {
    out = a.conf != b.conf ? (a.conf > b.conf ? a : b)
                           : (a.score >= b.score ? a : b);
  } else if (agg == "maxscore") {
    out = a.score != b.score ? (a.score > b.score ? a : b)
                             : (a.conf >= b.conf ? a : b);
  } else {  // noisyor
    double sa = std::clamp(a.score, 0.0, 1.0);
    double sb = std::clamp(b.score, 0.0, 1.0);
    out = Known(1.0 - (1.0 - sa) * (1.0 - sb), a.conf + b.conf);
  }
  if (out.known) out.matches = a.matches + b.matches;
  return out;
}

struct Row {
  Tuple values;
  Pair pair;
};

struct PRel {
  Schema schema;
  std::vector<size_t> keys;
  std::vector<Row> rows;
};

// Position of a row equal to `values` in `rows`, or -1.
int Find(const std::vector<Row>& rows, const Tuple& values) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (TupleEq()(rows[i].values, values)) return static_cast<int>(i);
  }
  return -1;
}

StatusOr<PRel> OracleEval(const PlanNode& node, Catalog* catalog,
                          const std::string& agg) {
  switch (node.kind) {
    case PlanKind::kScan: {
      ASSIGN_OR_RETURN(Table * table, catalog->GetTable(node.table_name));
      PRel out{table->schema(), table->primary_key(), {}};
      if (!node.alias.empty() && node.alias != node.table_name) {
        out.schema = out.schema.WithQualifier(node.alias);
      }
      const Relation table_rel = table->Gather();
      for (const Tuple& t : table_rel.rows()) out.rows.push_back({t, {}});
      return out;
    }
    case PlanKind::kSelect: {
      ASSIGN_OR_RETURN(PRel in, OracleEval(node.child(), catalog, agg));
      ExprPtr pred = node.predicate->Clone();
      RETURN_IF_ERROR(pred->Bind(in.schema));
      PRel out{in.schema, in.keys, {}};
      for (Row& row : in.rows) {
        if (IsTruthy(pred->Eval(row.values))) out.rows.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kProject: {
      ASSIGN_OR_RETURN(PRel in, OracleEval(node.child(), catalog, agg));
      ASSIGN_OR_RETURN(ProjectionResolution res,
                       ResolveProjection(PlanShape{in.schema, in.keys},
                                         node.project_columns));
      PRel out{in.schema.Select(res.indices), res.key_positions, {}};
      for (const Row& row : in.rows) {
        out.rows.push_back({ProjectTuple(row.values, res.indices), row.pair});
      }
      return out;
    }
    case PlanKind::kJoin:
    case PlanKind::kSemiJoin: {
      const bool semi = node.kind == PlanKind::kSemiJoin;
      ASSIGN_OR_RETURN(PRel left, OracleEval(node.child(0), catalog, agg));
      ASSIGN_OR_RETURN(PRel right, OracleEval(node.child(1), catalog, agg));
      Schema combined = left.schema.Concat(right.schema);
      ExprPtr pred = node.predicate->Clone();
      RETURN_IF_ERROR(pred->Bind(combined));
      PRel out{semi ? left.schema : combined, left.keys, {}};
      if (!semi) {
        for (size_t k : right.keys) out.keys.push_back(k + left.schema.size());
      }
      for (const Row& l : left.rows) {
        for (const Row& r : right.rows) {
          Tuple joined = ConcatTuples(l.values, r.values);
          if (!IsTruthy(pred->Eval(joined))) continue;
          if (semi) {
            out.rows.push_back(l);
            break;
          }
          out.rows.push_back({std::move(joined), Fold(agg, l.pair, r.pair)});
        }
      }
      return out;
    }
    case PlanKind::kUnion:
    case PlanKind::kIntersect:
    case PlanKind::kExcept: {
      ASSIGN_OR_RETURN(PRel left, OracleEval(node.child(0), catalog, agg));
      ASSIGN_OR_RETURN(PRel right, OracleEval(node.child(1), catalog, agg));
      PRel out{left.schema, left.keys, {}};
      for (const Row& row : left.rows) {
        if (Find(out.rows, row.values) >= 0) continue;
        int match = Find(right.rows, row.values);
        if (node.kind == PlanKind::kExcept) {
          if (match < 0) out.rows.push_back(row);
        } else if (match >= 0) {
          out.rows.push_back({row.values, Fold(agg, row.pair, right.rows[match].pair)});
        } else if (node.kind == PlanKind::kUnion) {
          out.rows.push_back(row);
        }
      }
      if (node.kind == PlanKind::kUnion) {
        for (const Row& row : right.rows) {
          if (Find(out.rows, row.values) < 0) out.rows.push_back(row);
        }
      }
      return out;
    }
    case PlanKind::kDistinct: {
      ASSIGN_OR_RETURN(PRel in, OracleEval(node.child(), catalog, agg));
      PRel out{in.schema, in.keys, {}};
      for (const Row& row : in.rows) {
        if (Find(out.rows, row.values) < 0) out.rows.push_back(row);
      }
      return out;
    }
    case PlanKind::kSort: {
      ASSIGN_OR_RETURN(PRel out, OracleEval(node.child(), catalog, agg));
      std::vector<std::pair<size_t, bool>> keys;
      for (const SortKey& k : node.sort_keys) {
        ASSIGN_OR_RETURN(size_t idx, out.schema.FindColumn(k.column));
        keys.push_back({idx, k.descending});
      }
      for (size_t k : out.keys) keys.push_back({k, false});
      std::stable_sort(out.rows.begin(), out.rows.end(),
                       [&keys](const Row& a, const Row& b) {
                         for (const auto& [idx, desc] : keys) {
                           int c = a.values[idx].Compare(b.values[idx]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
      return out;
    }
    case PlanKind::kLimit: {
      ASSIGN_OR_RETURN(PRel out, OracleEval(node.child(), catalog, agg));
      if (out.rows.size() > node.limit) out.rows.resize(node.limit);
      return out;
    }
    case PlanKind::kPrefer: {
      ASSIGN_OR_RETURN(PRel out, OracleEval(node.child(), catalog, agg));
      const Preference& pref = *node.preference;
      ExprPtr cond = pref.CloneCondition();
      RETURN_IF_ERROR(cond->Bind(out.schema));
      ExprPtr score = pref.scoring().expr().Clone();
      RETURN_IF_ERROR(score->Bind(out.schema));
      const Table* member = nullptr;
      size_t member_col = 0;
      size_t local_col = 0;
      if (const MembershipSpec* m = pref.membership()) {
        ASSIGN_OR_RETURN(Table * t, catalog->GetTable(m->member_relation));
        member = t;
        ASSIGN_OR_RETURN(member_col, t->schema().FindColumn(m->member_column));
        ASSIGN_OR_RETURN(local_col, out.schema.FindColumn(m->local_column));
      }
      for (Row& row : out.rows) {
        if (member != nullptr) {
          // Membership is SQL `=`: a NULL never has a partner.
          const Value& local = row.values[local_col];
          bool found = false;
          const Relation member_rel = member->Gather();
          for (const Tuple& t : member_rel.rows()) {
            found = found || (!local.is_null() && !t[member_col].is_null() &&
                              t[member_col] == local);
          }
          if (!found) continue;
        }
        if (!IsTruthy(cond->Eval(row.values))) continue;
        Value s = score->Eval(row.values);
        if (!s.is_numeric()) continue;  // S(r) = ⊥.
        row.pair = Fold(agg, row.pair,
                        Known(std::clamp(s.NumericValue(), 0.0, 1.0),
                              pref.confidence()));
      }
      return out;
    }
  }
  return Status::Internal("unknown plan kind");
}

double Target(const Pair& p, FilterTarget target) {
  if (target == FilterTarget::kConf) return p.conf;
  return p.known ? p.score : -std::numeric_limits<double>::infinity();
}

// Ranking by (target desc, other dimension desc, key asc), stable.
void Rank(PRel* rel, FilterTarget target) {
  FilterTarget other =
      target == FilterTarget::kScore ? FilterTarget::kConf : FilterTarget::kScore;
  std::stable_sort(rel->rows.begin(), rel->rows.end(),
                   [&](const Row& a, const Row& b) {
                     if (Target(a.pair, target) != Target(b.pair, target)) {
                       return Target(a.pair, target) > Target(b.pair, target);
                     }
                     if (Target(a.pair, other) != Target(b.pair, other)) {
                       return Target(a.pair, other) > Target(b.pair, other);
                     }
                     for (size_t k : rel->keys) {
                       int c = a.values[k].Compare(b.values[k]);
                       if (c != 0) return c < 0;
                     }
                     return false;
                   });
}

// The §V filters; match-count filters run first (they read the pairs).
void OracleFilter(PRel* rel, const std::vector<FilterSpec>& specs) {
  for (const FilterSpec& spec : specs) {
    if (spec.kind != FilterSpec::Kind::kMinMatches) continue;
    std::erase_if(rel->rows, [&](const Row& r) { return r.pair.matches < spec.k; });
  }
  for (const FilterSpec& spec : specs) {
    switch (spec.kind) {
      case FilterSpec::Kind::kMinMatches:
        break;
      case FilterSpec::Kind::kTopK:
        Rank(rel, spec.target);
        if (rel->rows.size() > spec.k) rel->rows.resize(spec.k);
        break;
      case FilterSpec::Kind::kThreshold:
        std::erase_if(rel->rows, [&](const Row& r) {
          double v = Target(r.pair, spec.target);
          return !(spec.strict ? v > spec.threshold : v >= spec.threshold);
        });
        break;
      case FilterSpec::Kind::kRankAll:
        Rank(rel, FilterTarget::kScore);
        break;
      case FilterSpec::Kind::kNotDominated: {
        // Winnow: drop t when some t' is >= on both dimensions and > on one.
        auto dominates = [](const Pair& a, const Pair& b) {
          double as = Target(a, FilterTarget::kScore);
          double bs = Target(b, FilterTarget::kScore);
          return as >= bs && a.conf >= b.conf && (as > bs || a.conf > b.conf);
        };
        std::vector<Row> kept;
        for (const Row& t : rel->rows) {
          bool dominated = false;
          for (const Row& u : rel->rows) dominated = dominated || dominates(u.pair, t.pair);
          if (!dominated) kept.push_back(t);
        }
        rel->rows = std::move(kept);
        Rank(rel, FilterTarget::kScore);
        break;
      }
    }
  }
}

// The oracle's answer in the engine's result shape: the requested columns
// (all when none), then score and conf.
StatusOr<std::vector<Tuple>> OracleAnswer(const std::string& sql, Catalog* catalog) {
  ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql, *catalog));
  std::string agg = parsed.agg == nullptr ? "wsum" : std::string(parsed.agg->name());
  ASSIGN_OR_RETURN(PRel rel, OracleEval(*parsed.plan, catalog, agg));
  OracleFilter(&rel, parsed.filters);
  std::vector<size_t> columns;
  for (const std::string& name : parsed.output_columns) {
    ASSIGN_OR_RETURN(size_t idx, rel.schema.FindColumn(name));
    columns.push_back(idx);
  }
  if (columns.empty()) {
    for (size_t c = 0; c < rel.schema.size(); ++c) columns.push_back(c);
  }
  std::vector<Tuple> out;
  for (const Row& row : rel.rows) {
    Tuple t = ProjectTuple(row.values, columns);
    t.push_back(row.pair.known ? Value::Double(row.pair.score) : Value::Null());
    t.push_back(Value::Double(row.pair.conf));
    out.push_back(std::move(t));
  }
  return out;
}

int64_t UlpDistance(double a, double b) {
  if (a == b) return 0;
  if (std::signbit(a) != std::signbit(b)) return std::numeric_limits<int64_t>::max();
  int64_t ia;
  int64_t ib;
  std::memcpy(&ia, &a, sizeof(a));
  std::memcpy(&ib, &b, sizeof(b));
  return ia > ib ? ia - ib : ib - ia;
}

// Same rows up to order; the trailing score/conf within kMaxUlps.
void ExpectOracleRows(std::vector<Tuple> actual, std::vector<Tuple> expected,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  auto less = [](const Tuple& a, const Tuple& b) {
    for (size_t c = 0; c < a.size() && c < b.size(); ++c) {
      if (int cmp = a[c].Compare(b[c]); cmp != 0) return cmp < 0;
    }
    return a.size() < b.size();
  };
  std::sort(actual.begin(), actual.end(), less);
  std::sort(expected.begin(), expected.end(), less);
  for (size_t i = 0; i < actual.size(); ++i) {
    const Tuple& a = actual[i];
    const Tuple& e = expected[i];
    ASSERT_EQ(a.size(), e.size()) << label;
    for (size_t c = 0; c < a.size(); ++c) {
      if (c + 2 >= a.size() && a[c].is_numeric() && e[c].is_numeric()) {
        ASSERT_LE(UlpDistance(a[c].NumericValue(), e[c].NumericValue()), kMaxUlps)
            << label << "\nrow " << TupleToString(a) << " vs " << TupleToString(e);
      } else {
        ASSERT_EQ(a[c], e[c]) << label << "\nrow " << TupleToString(a) << " vs "
                              << TupleToString(e);
      }
    }
  }
}

// query_fuzz_test's generator, over the same Fig. 1 join lattice.
std::string RandomQuery(Rng* rng) {
  static constexpr const char* kJoins[][2] = {
      {"GENRES", "MOVIES.m_id = GENRES.m_id"},
      {"DIRECTORS", "MOVIES.d_id = DIRECTORS.d_id"},
      {"RATINGS", "MOVIES.m_id = RATINGS.m_id"}};
  std::string sql = "SELECT title, year FROM MOVIES ";
  bool has[3] = {false, false, false};
  for (int j = 0, n = static_cast<int>(rng->Uniform(0, 3)); j < n; ++j) {
    int pick = static_cast<int>(rng->Uniform(0, 2));
    if (has[pick]) continue;
    has[pick] = true;
    sql += StrFormat("JOIN %s ON %s ", kJoins[pick][0], kJoins[pick][1]);
  }
  if (rng->Bernoulli(0.6)) {
    sql += StrFormat("WHERE year >= %lld ",
                     static_cast<long long>(rng->Uniform(1950, 2010)));
  }
  std::vector<std::string> pool = {
      StrFormat("(year >= %lld) SCORE recency(year, 2011) CONF 0.%lld",
                static_cast<long long>(rng->Uniform(1980, 2010)),
                static_cast<long long>(rng->Uniform(1, 9))),
      StrFormat("(duration BETWEEN 90 AND 150) SCORE around(duration, %lld) CONF 0.5",
                static_cast<long long>(rng->Uniform(100, 140))),
      StrFormat("(MOVIES.m_id <= %lld) SCORE 0.8 CONF 0.9",
                static_cast<long long>(rng->Uniform(1, 300))),
      "(true) SCORE 1.0 CONF 0.7 EXISTS IN AWARDS ON MOVIES.m_id = m_id"};
  if (has[0]) pool.push_back("(genre = 'Drama') SCORE recency(year, 2011) CONF 0.6");
  if (has[1]) pool.push_back("(DIRECTORS.d_id <= 40) SCORE 0.9 CONF 1.0");
  if (has[2]) pool.push_back("(votes > 100) SCORE rating_score(rating) CONF 0.8");
  sql += "PREFERRING ";
  std::vector<bool> used(pool.size(), false);
  for (int p = 0, n = static_cast<int>(rng->Uniform(1, 4)); p < n; ++p) {
    size_t pick = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1));
    if (used[pick]) continue;
    sql += std::string(p > 0 ? ", " : "") + pool[pick];
    used[pick] = true;
  }
  static constexpr const char* kAggs[] = {"wsum", "maxconf", "maxscore", "noisyor"};
  sql += StrFormat(" USING AGG %s", kAggs[rng->Uniform(0, 3)]);
  switch (rng->Uniform(0, 4)) {
    case 0:
      return sql + " RANKED";
    case 1:
      return sql + StrFormat(" TOP %lld BY %s", static_cast<long long>(rng->Uniform(1, 40)),
                             rng->Bernoulli(0.5) ? "SCORE" : "CONF");
    case 2:
      return sql + StrFormat(" WITH CONF >= 0.%lld RANKED",
                             static_cast<long long>(rng->Uniform(1, 9)));
    case 3:
      return sql + StrFormat(" WITH MATCHES >= %lld RANKED",
                             static_cast<long long>(rng->Uniform(1, 3)));
    default:
      return sql + " NOT DOMINATED";
  }
}

// Every strategy × optimizer × threads × cache configuration against the
// oracle;
// returns how many oracle rows were compared (so a suite can check it did
// not only compare empty answers).
size_t CheckAgainstOracle(Session* session, const std::vector<std::string>& queries) {
  size_t rows = 0;
  for (const std::string& sql : queries) {
    StatusOr<std::vector<Tuple>> expected =
        OracleAnswer(sql, session->engine().mutable_catalog());
    EXPECT_TRUE(expected.ok()) << expected.status().ToString() << "\n" << sql;
    if (!expected.ok()) return rows;
    rows += expected->size();
    for (StrategyKind kind : {StrategyKind::kFtP, StrategyKind::kBU, StrategyKind::kGBU,
                              StrategyKind::kPlugInBasic, StrategyKind::kPlugInCombined}) {
      for (bool optimize : {false, true}) {
        for (size_t threads : {size_t{1}, size_t{2}}) {
          // Cache off, then cold (emptied first), then warm (the cold run's
          // entries): GBU's temps are then views of cache entries.
          for (const char* cache : {"off", "cold", "warm"}) {
            QueryOptions options;
            options.strategy = kind;
            options.optimize = optimize;
            options.parallel.threads = threads;
            options.cache = std::string_view(cache) != "off";
            if (std::string_view(cache) == "cold") session->engine().cache()->Clear();
            std::string label =
                StrFormat("%s optimize=%d threads=%zu cache=%s\n%s",
                          std::string(StrategyKindName(kind)).c_str(), optimize ? 1 : 0,
                          threads, cache, sql.c_str());
            StatusOr<QueryResult> actual = session->Query(sql, options);
            EXPECT_TRUE(actual.ok()) << actual.status().ToString() << "\n" << label;
            if (!actual.ok()) return rows;
            ExpectOracleRows(actual->relation.rows(), *expected, label);
            if (::testing::Test::HasFailure()) return rows;
          }
        }
      }
    }
  }
  return rows;
}

TEST(PreferenceOracleTest, FuzzedQueriesMatchOracle) {
  ImdbOptions options;
  options.scale = 0.0003;
  options.seed = 99;
  StatusOr<Catalog> catalog = GenerateImdb(options);
  ASSERT_TRUE(catalog.ok());
  Session session(std::move(*catalog));
  Rng rng(20121);
  std::vector<std::string> queries;
  for (int i = 0; i < 500; ++i) queries.push_back(RandomQuery(&rng));
  EXPECT_GT(CheckAgainstOracle(&session, queries), 5000u);
}

TEST(PreferenceOracleTest, TableTwoMatchesOracle) {
  ImdbOptions imdb_options;
  imdb_options.scale = 0.00015;
  StatusOr<Catalog> imdb = GenerateImdb(imdb_options);
  ASSERT_TRUE(imdb.ok());
  Session imdb_session(std::move(*imdb));
  std::vector<std::string> imdb_queries;
  for (const WorkloadQuery& q : ImdbWorkload()) imdb_queries.push_back(q.sql);
  EXPECT_GT(CheckAgainstOracle(&imdb_session, imdb_queries), 0u);

  DblpOptions dblp_options;
  dblp_options.scale = 0.0003;
  StatusOr<Catalog> dblp = GenerateDblp(dblp_options);
  ASSERT_TRUE(dblp.ok());
  Session dblp_session(std::move(*dblp));
  std::vector<std::string> dblp_queries;
  for (const WorkloadQuery& q : DblpWorkload()) dblp_queries.push_back(q.sql);
  EXPECT_GT(CheckAgainstOracle(&dblp_session, dblp_queries), 0u);
}

}  // namespace
}  // namespace prefdb
