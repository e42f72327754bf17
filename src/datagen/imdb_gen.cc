#include "datagen/imdb_gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/string_util.h"
#include "storage/table.h"

namespace prefdb {

namespace {

constexpr const char* kGenres[] = {
    "Drama",     "Comedy",   "Action",    "Thriller", "Romance",  "Horror",
    "Documentary", "Crime",  "Adventure", "SciFi",    "Fantasy",  "Mystery",
    "Biography", "Animation", "Family",   "War",      "History",  "Music",
    "Western",   "Sport",    "Musical",   "FilmNoir"};

constexpr const char* kAwards[] = {"Oscar", "GoldenGlobe", "BAFTA", "Cannes",
                                   "Venice", "Berlin"};

// Paper Table I row counts (scale = 1.0).
constexpr double kMoviesBase = 1573401;
constexpr double kDirectorsBase = 191686;
constexpr double kActorsBase = 1200000;
constexpr double kCastPerMovie = 8.35;    // ≈ 13,145,520 / 1,573,401.
constexpr double kGenresPerMovie = 0.634;  // ≈ 997,500 / 1,573,401.
constexpr double kRatingsFraction = 0.2024;  // ≈ 318,374 / 1,573,401.
constexpr double kAwardsFraction = 0.02;

int64_t Scaled(double base, double scale, int64_t minimum) {
  return std::max<int64_t>(minimum, static_cast<int64_t>(base * scale));
}

// Production year skewed toward the present (the real IMDB snapshot is
// dominated by recent decades): 2011 - Zipf over a 111-year span.
int64_t DrawYear(Rng* rng) {
  int64_t back = rng->Zipf(111, 0.7) - 1;
  return 2011 - back;
}

}  // namespace

StatusOr<Catalog> GenerateImdb(const ImdbOptions& options) {
  Rng rng(options.seed);
  Catalog catalog;

  const int64_t n_movies = Scaled(kMoviesBase, options.scale, 100);
  const int64_t n_directors = Scaled(kDirectorsBase, options.scale, 20);
  const int64_t n_actors = Scaled(kActorsBase, options.scale, 50);

  // DIRECTORS.
  {
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(n_directors));
    for (int64_t i = 1; i <= n_directors; ++i) {
      rows.push_back({Value::Int(i), Value::String(StrFormat("Director %lld",
                                                   static_cast<long long>(i)))});
    }
    RETURN_IF_ERROR(catalog.CreateTable(
        "DIRECTORS",
        Schema({{"", "d_id", ValueType::kInt}, {"", "director", ValueType::kString}}),
        std::move(rows), {"d_id"}));
  }

  // ACTORS.
  {
    std::vector<Tuple> rows;
    rows.reserve(static_cast<size_t>(n_actors));
    for (int64_t i = 1; i <= n_actors; ++i) {
      rows.push_back({Value::Int(i), Value::String(StrFormat("Actor %lld",
                                                   static_cast<long long>(i)))});
    }
    RETURN_IF_ERROR(catalog.CreateTable(
        "ACTORS",
        Schema({{"", "a_id", ValueType::kInt}, {"", "actor", ValueType::kString}}),
        std::move(rows), {"a_id"}));
  }

  // MOVIES plus dependent tables in one pass.
  std::vector<Tuple> movies;
  std::vector<Tuple> genres;
  std::vector<Tuple> cast;
  std::vector<Tuple> ratings;
  std::vector<Tuple> awards;
  movies.reserve(static_cast<size_t>(n_movies));

  for (int64_t m = 1; m <= n_movies; ++m) {
    int64_t year = DrawYear(&rng);
    int64_t duration =
        std::clamp<int64_t>(static_cast<int64_t>(rng.Gaussian(108, 24)), 55, 280);
    int64_t d_id = rng.Zipf(n_directors, 0.8);
    movies.push_back({Value::Int(m),
                      Value::String(StrFormat("Movie %lld", static_cast<long long>(m))),
                      Value::Int(year), Value::Int(duration), Value::Int(d_id)});

    // GENRES: Poisson-ish count via Bernoulli cascade, Zipfian genre choice.
    double expected = kGenresPerMovie;
    int n_genres = 0;
    while (expected > 0 && rng.Bernoulli(std::min(1.0, expected)) && n_genres < 4) {
      ++n_genres;
      expected -= 1.0;
    }
    int64_t taken_mask = 0;
    for (int g = 0; g < n_genres; ++g) {
      int64_t idx = rng.Zipf(static_cast<int64_t>(std::size(kGenres)), 0.9) - 1;
      if (taken_mask & (int64_t{1} << idx)) continue;  // No duplicate genre.
      taken_mask |= int64_t{1} << idx;
      genres.push_back({Value::Int(m), Value::String(kGenres[idx])});
    }

    // CAST: heavy-tailed cast size whose mean matches the Table I average
    // (Zipf over 1..34 with s=1 has mean 34/H_34 ≈ 8.3 ≈ kCastPerMovie).
    int64_t cast_size = std::min<int64_t>(n_actors, rng.Zipf(34, 1.0));
    int64_t prev = 0;
    for (int64_t c = 0; c < cast_size; ++c) {
      int64_t a_id = rng.Zipf(n_actors, 0.7);
      if (a_id == prev) continue;  // Cheap duplicate (m_id, a_id) avoidance.
      prev = a_id;
      cast.push_back({Value::Int(m), Value::Int(a_id),
                      Value::String(StrFormat("Role %lld", static_cast<long long>(c)))});
    }

    // RATINGS for roughly a fifth of the movies.
    if (rng.Bernoulli(kRatingsFraction)) {
      double rating = std::clamp(rng.Gaussian(6.3, 1.6), 1.0, 10.0);
      rating = std::round(rating * 10.0) / 10.0;
      int64_t votes = rng.Zipf(200000, 1.1);
      ratings.push_back({Value::Int(m), Value::Double(rating), Value::Int(votes)});
    }

    // AWARDS for a small fraction, skewed to acclaimed (recent) movies.
    if (rng.Bernoulli(kAwardsFraction)) {
      int n_awards = static_cast<int>(rng.Uniform(1, 2));
      int64_t award_mask = 0;
      for (int a = 0; a < n_awards; ++a) {
        int64_t idx = rng.Zipf(static_cast<int64_t>(std::size(kAwards)), 1.0) - 1;
        if (award_mask & (int64_t{1} << idx)) continue;
        award_mask |= int64_t{1} << idx;
        awards.push_back(
            {Value::Int(m), Value::String(kAwards[idx]), Value::Int(year)});
      }
    }
  }

  // The paper's CAST(m_id, a_id) pair may still rarely repeat under Zipf;
  // deduplicate to honour the primary key.
  {
    std::unordered_set<Tuple, TupleHash, TupleEq> seen;
    std::vector<Tuple> unique;
    unique.reserve(cast.size());
    for (Tuple& row : cast) {
      Tuple key{row[0], row[1]};
      if (seen.insert(std::move(key)).second) unique.push_back(std::move(row));
    }
    cast = std::move(unique);
  }

  RETURN_IF_ERROR(catalog.CreateTable(
      "MOVIES",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "title", ValueType::kString},
              {"", "year", ValueType::kInt},
              {"", "duration", ValueType::kInt},
              {"", "d_id", ValueType::kInt}}),
      std::move(movies), {"m_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "GENRES",
      Schema({{"", "m_id", ValueType::kInt}, {"", "genre", ValueType::kString}}),
      std::move(genres), {"m_id", "genre"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "CAST",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "a_id", ValueType::kInt},
              {"", "role", ValueType::kString}}),
      std::move(cast), {"m_id", "a_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "RATINGS",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "rating", ValueType::kDouble},
              {"", "votes", ValueType::kInt}}),
      std::move(ratings), {"m_id"}));
  RETURN_IF_ERROR(catalog.CreateTable(
      "AWARDS",
      Schema({{"", "m_id", ValueType::kInt},
              {"", "award", ValueType::kString},
              {"", "year", ValueType::kInt}}),
      std::move(awards), {"m_id", "award"}));
  ReleaseFreeHeapPages();
  return catalog;
}

}  // namespace prefdb
