#include "datagen/dblp_gen.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "common/string_util.h"
#include "storage/table.h"

namespace prefdb {

namespace {

constexpr const char* kLocations[] = {
    "San Jose",  "Athens",   "Paris",   "Tokyo",    "Sydney", "Berlin",
    "Istanbul",  "Shanghai", "Seattle", "Vancouver", "Madrid", "Seoul",
    "Hong Kong", "Chicago",  "Boston",  "Vienna"};

// Paper Table I row counts (scale = 1.0).
constexpr double kPublicationsBase = 2659337;
constexpr double kAuthorsBase = 977494;
constexpr double kPubAuthorsPerPub = 2.029;   // ≈ 5,394,948 / 2,659,337.
constexpr double kConferencesFraction = 0.36;  // ≈ 956,888 / 2,659,337.
constexpr double kJournalsFraction = 0.259;    // ≈ 689,160 / 2,659,337.
constexpr double kCitationsPerPub = 1.5;

int64_t Scaled(double base, double scale, int64_t minimum) {
  return std::max<int64_t>(minimum, static_cast<int64_t>(base * scale));
}

}  // namespace

StatusOr<Catalog> GenerateDblp(const DblpOptions& options) {
  Rng rng(options.seed);
  Catalog catalog;

  const int64_t n_pubs = Scaled(kPublicationsBase, options.scale, 100);
  const int64_t n_authors = Scaled(kAuthorsBase, options.scale, 30);
  const int64_t n_conf_venues = std::max<int64_t>(20, n_pubs / 2000);
  const int64_t n_journal_venues = std::max<int64_t>(10, n_pubs / 4000);

  // AUTHORS.
  {
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(n_authors));
    for (int64_t i = 1; i <= n_authors; ++i) {
      rows.push_back({Value::Int(i), Value::String(StrFormat("Author %lld",
                                                   static_cast<long long>(i)))});
    }
    RETURN_IF_ERROR(catalog.CreateTable(
        "AUTHORS",
        Schema({{"", "a_id", ValueType::kInt}, {"", "name", ValueType::kString}}),
        std::move(rows), {"a_id"}));
  }

  std::vector<Tuple> publications;
  std::vector<Tuple> pub_authors;
  std::vector<Tuple> conferences;
  std::vector<Tuple> journals;
  std::vector<Tuple> citations;
  publications.reserve(static_cast<size_t>(n_pubs));

  for (int64_t p = 1; p <= n_pubs; ++p) {
    // Publication year skews recent over 1970-2011.
    int64_t year = 2011 - (rng.Zipf(42, 0.6) - 1);

    double venue_draw = rng.UniformReal(0.0, 1.0);
    const char* pub_type = "other";
    if (venue_draw < kConferencesFraction) {
      pub_type = "conference";
      int64_t venue = rng.Zipf(n_conf_venues, 1.05);
      conferences.push_back(
          {Value::Int(p),
           Value::String(StrFormat("Conference %lld", static_cast<long long>(venue))),
           Value::Int(year),
           Value::String(kLocations[rng.Uniform(
               0, static_cast<int64_t>(std::size(kLocations)) - 1)])});
    } else if (venue_draw < kConferencesFraction + kJournalsFraction) {
      pub_type = "journal";
      int64_t venue = rng.Zipf(n_journal_venues, 1.05);
      journals.push_back(
          {Value::Int(p),
           Value::String(StrFormat("Journal %lld", static_cast<long long>(venue))),
           Value::Int(year), Value::Int(rng.Uniform(1, 60))});
    }
    publications.push_back(
        {Value::Int(p),
         Value::String(StrFormat("Publication %lld", static_cast<long long>(p))),
         Value::String(pub_type)});

    // Authors per publication around the Table I average; Zipfian
    // productivity (a few authors write many papers).
    int64_t n_pub_authors =
        std::clamp<int64_t>(static_cast<int64_t>(rng.Gaussian(kPubAuthorsPerPub, 1.2)),
                            1, 8);
    int64_t prev = 0;
    for (int64_t a = 0; a < n_pub_authors; ++a) {
      int64_t a_id = rng.Zipf(n_authors, 0.75);
      if (a_id == prev) continue;
      prev = a_id;
      pub_authors.push_back({Value::Int(p), Value::Int(a_id)});
    }

    // Citations: preferential attachment — cite Zipf-ranked earlier papers.
    if (p > 1) {
      int64_t n_citations = rng.Zipf(12, 1.0) - 1;
      n_citations = std::min<int64_t>(
          n_citations, static_cast<int64_t>(kCitationsPerPub * 4));
      int64_t prev_cite = 0;
      for (int64_t c = 0; c < n_citations; ++c) {
        int64_t cited = rng.Zipf(p - 1, 0.9);
        if (cited == prev_cite) continue;
        prev_cite = cited;
        citations.push_back({Value::Int(p), Value::Int(cited)});
      }
    }
  }

  // Deduplicate composite-key tables.
  auto dedupe = [](std::vector<Tuple>* rows) {
    std::unordered_set<Tuple, TupleHash, TupleEq> seen;
    std::vector<Tuple> unique;
    unique.reserve(rows->size());
    for (Tuple& row : *rows) {
      if (seen.insert(row).second) unique.push_back(std::move(row));
    }
    *rows = std::move(unique);
  };
  dedupe(&pub_authors);
  dedupe(&citations);

  RETURN_IF_ERROR(catalog.CreateTable(
      "PUBLICATIONS",
      Schema({{"", "p_id", ValueType::kInt},
              {"", "title", ValueType::kString},
              {"", "pub_type", ValueType::kString}}),
      std::move(publications), {"p_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "PUB_AUTHORS",
      Schema({{"", "p_id", ValueType::kInt}, {"", "a_id", ValueType::kInt}}),
      std::move(pub_authors), {"p_id", "a_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "CONFERENCES",
      Schema({{"", "p_id", ValueType::kInt},
              {"", "name", ValueType::kString},
              {"", "year", ValueType::kInt},
              {"", "location", ValueType::kString}}),
      std::move(conferences), {"p_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "JOURNALS",
      Schema({{"", "p_id", ValueType::kInt},
              {"", "name", ValueType::kString},
              {"", "year", ValueType::kInt},
              {"", "volume", ValueType::kInt}}),
      std::move(journals), {"p_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "CITATIONS",
      Schema({{"", "p1_id", ValueType::kInt}, {"", "p2_id", ValueType::kInt}}),
      std::move(citations), {"p1_id", "p2_id"}));
  ReleaseFreeHeapPages();
  return catalog;
}

}  // namespace prefdb
