#include "storage/csv_loader.h"

#include "exec/runner.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace prefdb {
namespace {

using testing_util::D;
using testing_util::I;
using testing_util::S;

Schema BooksSchema() {
  return Schema({{"", "id", ValueType::kInt},
                 {"", "title", ValueType::kString},
                 {"", "price", ValueType::kDouble}});
}

TEST(CsvLoaderTest, LoadsTypedRows) {
  Catalog catalog;
  Status st = LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\n"
                            "1,Dune,9.99\n"
                            "2,Hyperion,12.50\n",
                            {"id"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  Table* table = *catalog.GetTable("BOOKS");
  ASSERT_EQ(table->NumRows(), 2u);
  EXPECT_EQ(table->Gather().rows()[0][0], I(1));
  EXPECT_EQ(table->Gather().rows()[0][1], S("Dune"));
  EXPECT_EQ(table->Gather().rows()[1][2], D(12.50));
  EXPECT_EQ(table->primary_key(), std::vector<size_t>{0});
}

TEST(CsvLoaderTest, QuotedFieldsAndEscapes) {
  Catalog catalog;
  Status st = LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\n"
                            "1,\"Dune, Messiah\",9.99\n"
                            "2,\"The \"\"Best\"\" Book\",1\n",
                            {"id"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  Table* table = *catalog.GetTable("BOOKS");
  EXPECT_EQ(table->Gather().rows()[0][1], S("Dune, Messiah"));
  EXPECT_EQ(table->Gather().rows()[1][1], S("The \"Best\" Book"));
}

TEST(CsvLoaderTest, EmptyAndUnparseableFieldsBecomeNull) {
  Catalog catalog;
  Status st = LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\n"
                            "1,Dune,\n"
                            "2,,abc\n",
                            {"id"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  Table* table = *catalog.GetTable("BOOKS");
  EXPECT_TRUE(table->Gather().rows()[0][2].is_null());
  EXPECT_TRUE(table->Gather().rows()[1][1].is_null());
  EXPECT_TRUE(table->Gather().rows()[1][2].is_null());
}

TEST(CsvLoaderTest, CrlfAndBlankLinesTolerated) {
  Catalog catalog;
  Status st = LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\r\n"
                            "1,Dune,9.99\r\n"
                            "\n"
                            "2,Hyperion,1\r\n",
                            {"id"});
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ((*catalog.GetTable("BOOKS"))->NumRows(), 2u);
}

TEST(CsvLoaderTest, HeaderValidation) {
  Catalog catalog;
  EXPECT_FALSE(LoadCsvString(&catalog, "B", BooksSchema(), "", {"id"}).ok());
  EXPECT_FALSE(LoadCsvString(&catalog, "B", BooksSchema(),
                             "id,title\n1,Dune\n", {"id"})
                   .ok());
  EXPECT_FALSE(LoadCsvString(&catalog, "B", BooksSchema(),
                             "id,name,price\n1,Dune,1\n", {"id"})
                   .ok());
  // Case-insensitive header match is fine.
  EXPECT_TRUE(LoadCsvString(&catalog, "B", BooksSchema(),
                            "ID,Title,PRICE\n1,Dune,1\n", {"id"})
                  .ok());
}

TEST(CsvLoaderTest, MalformedRecordsRejected) {
  Catalog catalog;
  Status st = LoadCsvString(&catalog, "B", BooksSchema(),
                            "id,title,price\n1,\"unterminated,9.99\n", {"id"});
  EXPECT_FALSE(st.ok());
  st = LoadCsvString(&catalog, "B", BooksSchema(),
                     "id,title,price\n1,Dune\n", {"id"});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 2"), std::string::npos);
}

TEST(CsvLoaderTest, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\n"
                            "1,\"Dune, Messiah\",9.99\n"
                            "2,Hyperion,\n",
                            {"id"})
                  .ok());
  std::string csv = RelationToCsv((*catalog.GetTable("BOOKS"))->Gather());
  Catalog catalog2;
  ASSERT_TRUE(
      LoadCsvString(&catalog2, "BOOKS", BooksSchema(), csv, {"id"}).ok());
  testing_util::ExpectSameRows((*catalog2.GetTable("BOOKS"))->Gather(),
                               (*catalog.GetTable("BOOKS"))->Gather());
}

// Every table the tests above load gathers back out of its column store as
// exactly the typed rows the loader parsed: type tags (Int vs Double,
// NULL) and payloads.
TEST(CsvLoaderTest, GathersBackTheTypedRowsExactly) {
  using testing_util::N;
  struct Case {
    std::string csv;
    std::vector<Tuple> rows;
  };
  const std::vector<Case> cases = {
      {"id,title,price\n1,Dune,9.99\n2,Hyperion,12.50\n",
       {{I(1), S("Dune"), D(9.99)}, {I(2), S("Hyperion"), D(12.5)}}},
      {"id,title,price\n1,\"Dune, Messiah\",9.99\n2,\"The \"\"Best\"\" Book\",1\n",
       {{I(1), S("Dune, Messiah"), D(9.99)},
        {I(2), S("The \"Best\" Book"), D(1.0)}}},
      {"id,title,price\n1,Dune,\n2,,abc\n",
       {{I(1), S("Dune"), N()}, {I(2), N(), N()}}},
      {"id,title,price\n1,\"Dune, Messiah\",9.99\n2,Hyperion,\n",
       {{I(1), S("Dune, Messiah"), D(9.99)}, {I(2), S("Hyperion"), N()}}},
      {"id,title,price\n1,Dune,9.99\n2,Hyperion,25.00\n3,Neuromancer,7.50\n",
       {{I(1), S("Dune"), D(9.99)},
        {I(2), S("Hyperion"), D(25.0)},
        {I(3), S("Neuromancer"), D(7.5)}}},
  };
  for (const Case& c : cases) {
    Catalog catalog;
    ASSERT_TRUE(LoadCsvString(&catalog, "BOOKS", BooksSchema(), c.csv, {"id"}).ok());
    const Relation rel = (*catalog.GetTable("BOOKS"))->Gather();
    ASSERT_EQ(rel.NumRows(), c.rows.size()) << c.csv;
    for (size_t r = 0; r < c.rows.size(); ++r) {
      for (size_t k = 0; k < c.rows[r].size(); ++k) {
        EXPECT_EQ(rel.rows()[r][k].type(), c.rows[r][k].type()) << c.csv;
        EXPECT_EQ(rel.rows()[r][k], c.rows[r][k]) << c.csv;
      }
    }
  }
}

TEST(CsvLoaderTest, MissingFileIsNotFound) {
  Catalog catalog;
  Status st = LoadCsvFile(&catalog, "B", BooksSchema(),
                          "/nonexistent/books.csv", {"id"});
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(CsvLoaderTest, LoadedTablesAreQueryableWithPreferences) {
  Catalog catalog;
  ASSERT_TRUE(LoadCsvString(&catalog, "BOOKS", BooksSchema(),
                            "id,title,price\n"
                            "1,Dune,9.99\n"
                            "2,Hyperion,25.00\n"
                            "3,Neuromancer,7.50\n",
                            {"id"})
                  .ok());
  Session session(std::move(catalog));
  auto result = session.Query(
      "SELECT title, price FROM BOOKS "
      "PREFERRING cheap: (price <= 10) SCORE 1 - price / 20 CONF 0.9 "
      "TOP 2 BY SCORE");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->relation.NumRows(), 2u);
  EXPECT_EQ(result->relation.rows()[0][0], S("Neuromancer"));
  EXPECT_EQ(result->relation.rows()[1][0], S("Dune"));
}

}  // namespace
}  // namespace prefdb
