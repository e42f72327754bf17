// Movie recommendations: the paper's §V scenario end to end — an online
// video-rental service that collects preferences for its users and blends
// them into queries (Examples 9, 10 and 11).
//
// This example exercises the programmatic API (preferences built in C++,
// plans composed by hand, extended-algebra operators invoked directly) in
// addition to PrefSQL, showing how an application embeds the library.

#include <cstdio>
#include <utility>

#include "datagen/imdb_gen.h"
#include "exec/runner.h"
#include "expr/expr_builder.h"
#include "palgebra/filters.h"
#include "palgebra/p_ops.h"

using namespace prefdb;      // NOLINT: example code.
using namespace prefdb::eb;  // NOLINT

namespace {

void PrintTop(const Relation& relation, const char* heading, size_t k = 8) {
  std::printf("%s\n%s", heading, relation.ToString(k).c_str());
  std::printf("\n");
}

// Alice's profile, mirroring the paper's Fig. 5: explicit preferences carry
// confidence 1; learnt preferences carry less.
std::vector<PreferencePtr> AliceProfile() {
  std::vector<PreferencePtr> prefs;
  // "Alice loves comedies" — learnt from her rental history.
  prefs.push_back(Preference::Generic("alice_comedy", "GENRES",
                                      Eq(Col("genre"), Lit("Comedy")),
                                      ScoringFunction::Constant(1.0), 0.8));
  // "Her favourite director is director 1" — explicitly stated.
  prefs.push_back(Preference::Generic("alice_director", "DIRECTORS",
                                      Eq(Col("DIRECTORS.d_id"), Lit(int64_t{1})),
                                      ScoringFunction::Constant(0.9), 1.0));
  // "She prefers higher-rated movies when voted by many users" (paper p4).
  std::vector<ExprPtr> args;
  args.push_back(Col("rating"));
  prefs.push_back(Preference::Generic(
      "alice_rating", "RATINGS", Gt(Col("votes"), Lit(int64_t{500})),
      ScoringFunction(Fn("rating_score", std::move(args))), 0.8));
  return prefs;
}

}  // namespace

int main() {
  ImdbOptions gen;
  gen.scale = 0.004;
  auto catalog = GenerateImdb(gen);
  if (!catalog.ok()) {
    std::printf("datagen failed: %s\n", catalog.status().ToString().c_str());
    return 1;
  }
  Session session(std::move(*catalog));

  // ---------------------------------------------------------------------
  // Example 9 (paper Q1): highlight titles Alice may like among recent
  // movies — top-k by score. Expressed in PrefSQL.
  auto q1 = session.Query(
      "SELECT title, year, rating FROM MOVIES "
      "JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "JOIN RATINGS ON MOVIES.m_id = RATINGS.m_id "
      "WHERE year >= 2008 "
      "PREFERRING "
      "  (genre = 'Comedy') SCORE 1.0 CONF 0.8, "
      "  (votes > 500) SCORE rating_score(rating) CONF 0.8 "
      "TOP 8 BY SCORE");
  if (!q1.ok()) {
    std::printf("Q1 failed: %s\n", q1.status().ToString().c_str());
    return 1;
  }
  PrintTop(q1->relation, "== Q1: top-8 recent movies for Alice ==");

  // ---------------------------------------------------------------------
  // Example 10 (paper Q2): only *safe* suggestions — a confidence
  // threshold keeps tuples that satisfy enough of Alice's preferences.
  auto q2 = session.Query(
      "SELECT title, year, rating FROM MOVIES "
      "JOIN GENRES ON MOVIES.m_id = GENRES.m_id "
      "JOIN RATINGS ON MOVIES.m_id = RATINGS.m_id "
      "WHERE year >= 2008 "
      "PREFERRING "
      "  (genre = 'Comedy') SCORE 1.0 CONF 0.8, "
      "  (votes > 500) SCORE rating_score(rating) CONF 0.8 "
      "WITH CONF >= 1.6 TOP 8 BY SCORE");
  if (!q2.ok()) {
    std::printf("Q2 failed: %s\n", q2.status().ToString().c_str());
    return 1;
  }
  PrintTop(q2->relation, "== Q2: only confident suggestions (conf >= 1.6) ==");

  // ---------------------------------------------------------------------
  // Example 11 (paper Q3): blend Alice's preferences with her friend Bob's
  // — composed directly with the extended algebra (the programmatic API).
  Engine& engine = session.engine();
  ExecStats* stats = engine.mutable_stats();
  const AggregateFunction& fsum = **GetAggregateFunction("wsum");

  // Evaluate Alice's mandatory director preference over MOVIES ⋈ DIRECTORS.
  auto base = engine.Execute(*plan::Join(
      Eq(Col("MOVIES.d_id"), Col("DIRECTORS.d_id")), plan::Scan("MOVIES"),
      plan::Scan("DIRECTORS")));
  if (!base.ok()) return 1;
  PRelation alice_side(*base);
  PreferencePtr alice_dir = Preference::Generic(
      "alice_director", "DIRECTORS", Eq(Col("DIRECTORS.d_id"), Lit(int64_t{1})),
      ScoringFunction::Constant(0.9), 1.0);
  alice_side = *EvalPrefer(*alice_dir, std::move(alice_side), fsum,
                          &engine.catalog(), stats);
  // Mandatory: keep only movies matching at least one of Alice's
  // preferences (σ_{conf > 0} in the paper).
  {
    Relation scored = ToScoredRelation(alice_side);
    auto kept = ApplyFilter(scored, FilterSpec::Threshold(FilterTarget::kConf,
                                                          0.0, /*strict=*/true));
    if (!kept.ok()) return 1;
    std::printf("Alice's mandatory picks: %zu movies\n\n", kept->NumRows());
  }

  // Bob's side: recent movies by director 2, learnt with lower confidence.
  PreferencePtr bob_recent = Preference::MultiRelational(
      "bob_recent", {"MOVIES", "DIRECTORS"},
      Eq(Col("DIRECTORS.d_id"), Lit(int64_t{2})),
      [] {
        std::vector<ExprPtr> args;
        args.push_back(Col("year"));
        args.push_back(Lit(int64_t{2011}));
        return ScoringFunction(Fn("recency", std::move(args)));
      }(),
      0.9);
  PRelation bob_side(*base);
  bob_side = *EvalPrefer(*bob_recent, std::move(bob_side), fsum,
                        &engine.catalog(), stats);

  // Union the two evidence streams: movies liked by both get combined
  // score/confidence via F_S (paper Example 6 semantics).
  auto blended = PUnion(alice_side, bob_side, fsum, stats);
  if (!blended.ok()) return 1;
  auto final_rel = ApplyFilters(
      *blended, {FilterSpec::Threshold(FilterTarget::kConf, 0.0, true),
                 FilterSpec::TopK(8)});
  if (!final_rel.ok()) return 1;
  PrintTop(*final_rel, "== Q3: social blending (Alice + Bob, union of evidence) ==");

  // ---------------------------------------------------------------------
  // Serendipity: the not-dominated filter surfaces both safe bets (high
  // confidence) and long shots (high score, lower confidence).
  auto skyline = session.Query(
      "SELECT title, year FROM MOVIES "
      "PREFERRING "
      "  (year >= 2009) SCORE recency(year, 2011) CONF 0.4, "
      "  (true) SCORE 1.0 CONF 0.9 EXISTS IN AWARDS ON m_id = m_id "
      "NOT DOMINATED");
  if (!skyline.ok()) return 1;
  PrintTop(skyline->relation,
           "== Serendipity: (score, confidence) skyline ==", 12);

  std::printf("Alice's profile for reference:\n");
  for (const PreferencePtr& p : AliceProfile()) {
    std::printf("  %s\n", p->ToString().c_str());
  }
  return 0;
}
