#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_set>

#include "common/hash.h"
#include "datagen/dblp_gen.h"
#include "datagen/imdb_gen.h"
#include "gtest/gtest.h"

namespace prefdb {
namespace {

// Verifies primary-key uniqueness for a table.
void ExpectUniqueKeys(Catalog& catalog, const std::string& table_name) {
  Table* table = *catalog.GetTable(table_name);
  std::unordered_set<Tuple, TupleHash, TupleEq> keys;
  for (const Tuple& row : table->relation().rows()) {
    Tuple key = table->relation().KeyOf(row);
    EXPECT_TRUE(keys.insert(std::move(key)).second)
        << table_name << " has duplicate key in row " << TupleToString(row);
  }
}

// FNV-1a over a table's name, schema, key and every value (type tag plus
// exact payload: int64 bits, IEEE-754 double bits, string bytes). Pins the
// generated data bit for bit, independent of the standard library's hashes.
uint64_t TableDigest(const Table& table) {
  uint64_t h = kFnvOffsetBasis;
  auto mix = [&h](const void* data, size_t n) { h = FnvMixBytes(h, data, n); };
  auto mix_string = [&mix](const std::string& s) {
    uint64_t len = s.size();
    mix(&len, sizeof(len));
    mix(s.data(), s.size());
  };
  mix_string(table.name());
  for (const Column& c : table.schema().columns()) {
    mix_string(c.FullName());
    uint8_t type = static_cast<uint8_t>(c.type);
    mix(&type, 1);
  }
  for (size_t k : table.primary_key()) {
    uint64_t key = k;
    mix(&key, sizeof(key));
  }
  for (const Tuple& row : table.relation().rows()) {
    for (const Value& v : row) {
      uint8_t type = static_cast<uint8_t>(v.type());
      mix(&type, 1);
      if (v.is_int()) {
        int64_t x = v.AsInt();
        mix(&x, sizeof(x));
      } else if (v.is_double()) {
        double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        mix(&bits, sizeof(bits));
      } else if (v.is_string()) {
        mix_string(v.AsString());
      }
    }
  }
  return h;
}

void ExpectDigest(Catalog& catalog, const std::string& table_name,
                  uint64_t expected) {
  Table* table = *catalog.GetTable(table_name);
  EXPECT_EQ(TableDigest(*table), expected)
      << table_name << " digest 0x" << std::hex << TableDigest(*table);
}

class ImdbGenTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* instance = [] {
      ImdbOptions options;
      options.scale = 0.002;
      options.seed = 99;
      auto result = GenerateImdb(options);
      EXPECT_TRUE(result.ok());
      return new Catalog(std::move(*result));
    }();
    return *instance;
  }
};

TEST_F(ImdbGenTest, AllSevenTablesPresent) {
  for (const char* name :
       {"MOVIES", "DIRECTORS", "GENRES", "ACTORS", "CAST", "RATINGS", "AWARDS"}) {
    EXPECT_TRUE(catalog().HasTable(name)) << name;
  }
}

TEST_F(ImdbGenTest, SizesScaleWithTableIRatios) {
  size_t movies = (*catalog().GetTable("MOVIES"))->NumRows();
  size_t ratings = (*catalog().GetTable("RATINGS"))->NumRows();
  size_t cast = (*catalog().GetTable("CAST"))->NumRows();
  EXPECT_GT(movies, 1000u);
  // About a fifth of movies are rated (Table I: 318,374 / 1,573,401).
  EXPECT_NEAR(static_cast<double>(ratings) / movies, 0.2, 0.05);
  // Cast is the dominant table, several entries per movie.
  EXPECT_GT(cast, 3 * movies);
}

TEST_F(ImdbGenTest, PrimaryKeysUnique) {
  for (const char* name :
       {"MOVIES", "DIRECTORS", "GENRES", "ACTORS", "CAST", "RATINGS", "AWARDS"}) {
    ExpectUniqueKeys(catalog(), name);
  }
}

TEST_F(ImdbGenTest, ForeignKeysResolve) {
  Table* movies = *catalog().GetTable("MOVIES");
  size_t n_directors = (*catalog().GetTable("DIRECTORS"))->NumRows();
  for (const Tuple& row : movies->relation().rows()) {
    int64_t d_id = row[4].AsInt();
    ASSERT_GE(d_id, 1);
    ASSERT_LE(d_id, static_cast<int64_t>(n_directors));
  }
  Table* genres = *catalog().GetTable("GENRES");
  size_t n_movies = movies->NumRows();
  for (const Tuple& row : genres->relation().rows()) {
    ASSERT_GE(row[0].AsInt(), 1);
    ASSERT_LE(row[0].AsInt(), static_cast<int64_t>(n_movies));
  }
}

TEST_F(ImdbGenTest, ValueRangesAreSane) {
  Table* movies = *catalog().GetTable("MOVIES");
  for (const Tuple& row : movies->relation().rows()) {
    int64_t year = row[2].AsInt();
    int64_t duration = row[3].AsInt();
    ASSERT_GE(year, 1900);
    ASSERT_LE(year, 2011);
    ASSERT_GE(duration, 55);
    ASSERT_LE(duration, 280);
  }
  Table* ratings = *catalog().GetTable("RATINGS");
  for (const Tuple& row : ratings->relation().rows()) {
    double rating = row[1].AsDouble();
    ASSERT_GE(rating, 1.0);
    ASSERT_LE(rating, 10.0);
    ASSERT_GE(row[2].AsInt(), 1);
  }
}

TEST_F(ImdbGenTest, YearsSkewRecent) {
  Table* movies = *catalog().GetTable("MOVIES");
  size_t recent = 0;
  for (const Tuple& row : movies->relation().rows()) {
    if (row[2].AsInt() >= 1990) ++recent;
  }
  EXPECT_GT(recent, movies->NumRows() / 2);
}

TEST_F(ImdbGenTest, DeterministicInSeed) {
  ImdbOptions options;
  options.scale = 0.0005;
  options.seed = 4242;
  auto a = GenerateImdb(options);
  auto b = GenerateImdb(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Table* ta = *a->GetTable("MOVIES");
  Table* tb = *b->GetTable("MOVIES");
  ASSERT_EQ(ta->NumRows(), tb->NumRows());
  for (size_t i = 0; i < ta->NumRows(); ++i) {
    ASSERT_TRUE(TupleEq()(ta->relation().rows()[i], tb->relation().rows()[i]));
  }
}

// Every generated table, bit for bit, as of the seed generator: a change to
// the random streams (e.g. the Zipf sampler) must leave these unchanged.
TEST_F(ImdbGenTest, TableDigestsPinned) {
  ExpectDigest(catalog(), "MOVIES", 0xac21a3f13cc63461ULL);
  ExpectDigest(catalog(), "DIRECTORS", 0xde9d4ed36af23ad7ULL);
  ExpectDigest(catalog(), "GENRES", 0x39ffe99668a9958aULL);
  ExpectDigest(catalog(), "ACTORS", 0xe5bb5157c8da39a2ULL);
  ExpectDigest(catalog(), "CAST", 0x9d2013c68cd9c41aULL);
  ExpectDigest(catalog(), "RATINGS", 0xedea3920ba73ff2cULL);
  ExpectDigest(catalog(), "AWARDS", 0xf7588f697a279403ULL);
}

class DblpGenTest : public ::testing::Test {
 protected:
  static Catalog& catalog() {
    static Catalog* instance = [] {
      DblpOptions options;
      options.scale = 0.002;
      options.seed = 77;
      auto result = GenerateDblp(options);
      EXPECT_TRUE(result.ok());
      return new Catalog(std::move(*result));
    }();
    return *instance;
  }
};

TEST_F(DblpGenTest, AllSixTablesPresent) {
  for (const char* name : {"PUBLICATIONS", "PUB_AUTHORS", "AUTHORS",
                           "CONFERENCES", "JOURNALS", "CITATIONS"}) {
    EXPECT_TRUE(catalog().HasTable(name)) << name;
  }
}

TEST_F(DblpGenTest, PrimaryKeysUnique) {
  for (const char* name : {"PUBLICATIONS", "PUB_AUTHORS", "AUTHORS",
                           "CONFERENCES", "JOURNALS", "CITATIONS"}) {
    ExpectUniqueKeys(catalog(), name);
  }
}

TEST_F(DblpGenTest, PubTypeMatchesVenueTables) {
  Table* pubs = *catalog().GetTable("PUBLICATIONS");
  Table* conferences = *catalog().GetTable("CONFERENCES");
  Table* journals = *catalog().GetTable("JOURNALS");
  std::unordered_set<Value, ValueHash> conf_ids;
  for (const Tuple& row : conferences->relation().rows()) conf_ids.insert(row[0]);
  std::unordered_set<Value, ValueHash> journal_ids;
  for (const Tuple& row : journals->relation().rows()) journal_ids.insert(row[0]);
  for (const Tuple& row : pubs->relation().rows()) {
    const std::string& type = row[2].AsString();
    if (type == "conference") {
      ASSERT_TRUE(conf_ids.count(row[0]) > 0);
    } else if (type == "journal") {
      ASSERT_TRUE(journal_ids.count(row[0]) > 0);
    }
  }
  // Venue fractions roughly match Table I.
  double conf_fraction =
      static_cast<double>(conferences->NumRows()) / pubs->NumRows();
  EXPECT_NEAR(conf_fraction, 0.36, 0.05);
}

TEST_F(DblpGenTest, TableDigestsPinned) {
  ExpectDigest(catalog(), "PUBLICATIONS", 0x4b6bba1ce8a48dddULL);
  ExpectDigest(catalog(), "PUB_AUTHORS", 0x2cb3acb759e46fbcULL);
  ExpectDigest(catalog(), "AUTHORS", 0x93c935b22f9a9c71ULL);
  ExpectDigest(catalog(), "CONFERENCES", 0xe84040bb60958f7eULL);
  ExpectDigest(catalog(), "JOURNALS", 0x8f2df42f0759a386ULL);
  ExpectDigest(catalog(), "CITATIONS", 0xce2a212d9bbe3aecULL);
}

TEST_F(DblpGenTest, CitationsPointBackward) {
  Table* citations = *catalog().GetTable("CITATIONS");
  EXPECT_GT(citations->NumRows(), 0u);
  for (const Tuple& row : citations->relation().rows()) {
    ASSERT_LT(row[1].AsInt(), row[0].AsInt());  // p2 published before p1.
  }
}

}  // namespace
}  // namespace prefdb
