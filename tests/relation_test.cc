// Unit tests for src/relation: schema, relation container, dictionary,
// CSV codec, tuple wire codec.

#include <gtest/gtest.h>

#include "common/random.h"
#include "relation/csv.h"
#include "relation/dictionary.h"
#include "relation/relation.h"
#include "relation/relation_view.h"
#include "relation/schema.h"
#include "relation/tuple_codec.h"

namespace spcube {
namespace {

TEST(SchemaTest, MakeValid) {
  auto schema = Schema::Make({"name", "city", "year"}, "sales");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->num_dims(), 3);
  EXPECT_EQ(schema->dimension_name(1), "city");
  EXPECT_EQ(schema->measure_name(), "sales");
  EXPECT_EQ(schema->ToString(), "R(name, city, year; sales)");
}

TEST(SchemaTest, RejectsEmptyDimensions) {
  EXPECT_FALSE(Schema::Make({}, "m").ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  EXPECT_FALSE(Schema::Make({"a", "a"}, "m").ok());
  EXPECT_FALSE(Schema::Make({"a", "m"}, "m").ok());
}

TEST(SchemaTest, RejectsEmptyNames) {
  EXPECT_FALSE(Schema::Make({"a", ""}, "m").ok());
  EXPECT_FALSE(Schema::Make({"a"}, "").ok());
}

TEST(SchemaTest, DimensionIndex) {
  Schema schema({"x", "y"}, "m");
  EXPECT_EQ(schema.DimensionIndex("x"), 0);
  EXPECT_EQ(schema.DimensionIndex("y"), 1);
  EXPECT_EQ(schema.DimensionIndex("z"), -1);
}

TEST(SchemaTest, AnonymousSchema) {
  Schema schema = MakeAnonymousSchema(3);
  EXPECT_EQ(schema.num_dims(), 3);
  EXPECT_EQ(schema.dimension_name(0), "a0");
  EXPECT_EQ(schema.dimension_name(2), "a2");
  EXPECT_EQ(schema.measure_name(), "m");
}

TEST(RelationTest, AppendAndRead) {
  Relation rel(MakeAnonymousSchema(2));
  rel.AppendRow(std::vector<int64_t>{1, 2}, 10);
  rel.AppendRow(std::vector<int64_t>{3, 4}, 20);
  ASSERT_EQ(rel.num_rows(), 2);
  EXPECT_EQ(rel.dim(0, 0), 1);
  EXPECT_EQ(rel.dim(0, 1), 2);
  EXPECT_EQ(rel.dim(1, 0), 3);
  EXPECT_EQ(rel.measure(0), 10);
  EXPECT_EQ(rel.measure(1), 20);
  const auto row = rel.row(1);
  EXPECT_EQ(row[0], 3);
  EXPECT_EQ(row[1], 4);
}

TEST(RelationTest, ColumnSpansMirrorRows) {
  Relation rel(MakeAnonymousSchema(2));
  rel.AppendRow(std::vector<int64_t>{1, 2}, 10);
  rel.AppendRow(std::vector<int64_t>{3, 4}, 20);
  const auto col0 = rel.column(0);
  const auto col1 = rel.column(1);
  ASSERT_EQ(col0.size(), 2u);
  EXPECT_EQ(col0[0], 1);
  EXPECT_EQ(col0[1], 3);
  EXPECT_EQ(col1[0], 2);
  EXPECT_EQ(col1[1], 4);
  const auto measures = rel.measures();
  ASSERT_EQ(measures.size(), 2u);
  EXPECT_EQ(measures[1], 20);
}

TEST(RelationViewTest, ContiguousRange) {
  Relation rel(MakeAnonymousSchema(1));
  for (int64_t i = 0; i < 10; ++i) {
    rel.AppendRow(std::vector<int64_t>{i}, i * 100);
  }
  RelationView view(rel, 3, 7);
  ASSERT_EQ(view.num_rows(), 4);
  EXPECT_FALSE(view.has_indirection());
  EXPECT_EQ(&view.base(), &rel);
  EXPECT_EQ(view.dim(0, 0), 3);
  EXPECT_EQ(view.measure(3), 600);
  EXPECT_EQ(view.base_row(0), 3);
}

TEST(RelationViewTest, EmptyRange) {
  Relation rel(MakeAnonymousSchema(1));
  rel.AppendRow(std::vector<int64_t>{1}, 1);
  RelationView view(rel, 1, 1);
  EXPECT_EQ(view.num_rows(), 0);
  EXPECT_FALSE(view.has_indirection());
}

TEST(RelationViewTest, RowIndirection) {
  Relation rel(MakeAnonymousSchema(2));
  for (int64_t i = 0; i < 5; ++i) {
    rel.AppendRow(std::vector<int64_t>{i, i * 10}, i);
  }
  const std::vector<int64_t> rows = {4, 0, 2};
  RelationView view(rel, rows);
  ASSERT_EQ(view.num_rows(), 3);
  EXPECT_TRUE(view.has_indirection());
  EXPECT_EQ(view.base_row(0), 4);
  EXPECT_EQ(view.dim(0, 0), 4);
  EXPECT_EQ(view.dim(0, 1), 40);
  EXPECT_EQ(view.dim(2, 1), 20);
  EXPECT_EQ(view.measure(2), 2);
  const auto row = view.row(1);
  EXPECT_EQ(row[0], 0);
  EXPECT_EQ(row.size(), 2u);
}

TEST(RelationViewTest, WholeRelationView) {
  Relation rel(MakeAnonymousSchema(1));
  rel.AppendRow(std::vector<int64_t>{7}, 70);
  RelationView view(rel);
  EXPECT_EQ(view.num_rows(), 1);
  EXPECT_EQ(view.MaterializedByteSize(), 2 * 8);
}

TEST(RelationTest, ByteSizeGrows) {
  Relation rel(MakeAnonymousSchema(4));
  const int64_t empty = rel.ByteSize();
  rel.AppendRow(std::vector<int64_t>{1, 2, 3, 4}, 5);
  EXPECT_EQ(rel.ByteSize() - empty, 5 * 8);
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  EXPECT_EQ(dict.Intern("rome"), 0);
  EXPECT_EQ(dict.Intern("paris"), 1);
  EXPECT_EQ(dict.Intern("rome"), 0);
  EXPECT_EQ(dict.size(), 2);
}

TEST(DictionaryTest, LookupAndDecode) {
  Dictionary dict;
  dict.Intern("laptop");
  EXPECT_EQ(dict.Lookup("laptop").value(), 0);
  EXPECT_FALSE(dict.Lookup("printer").ok());
  EXPECT_EQ(dict.Decode(0).value(), "laptop");
  EXPECT_FALSE(dict.Decode(1).ok());
  EXPECT_FALSE(dict.Decode(-1).ok());
}

constexpr char kSalesCsv[] =
    "name,city,year,sales\n"
    "laptop,Rome,2012,2000\n"
    "laptop,Paris,2012,1500\n"
    "printer,Rome,2013,700\n";

TEST(CsvTest, LoadBasic) {
  auto loaded = LoadCsv(kSalesCsv);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const Relation& rel = loaded->relation;
  EXPECT_EQ(rel.num_dims(), 3);
  EXPECT_EQ(rel.num_rows(), 3);
  EXPECT_EQ(rel.schema().dimension_name(0), "name");
  EXPECT_EQ(rel.schema().measure_name(), "sales");
  // laptop interned first -> code 0; printer -> 1.
  EXPECT_EQ(rel.dim(0, 0), 0);
  EXPECT_EQ(rel.dim(2, 0), 1);
  EXPECT_EQ(rel.measure(0), 2000);
  EXPECT_EQ(loaded->dictionaries[0].Decode(0).value(), "laptop");
}

TEST(CsvTest, RoundTrip) {
  auto loaded = LoadCsv(kSalesCsv);
  ASSERT_TRUE(loaded.ok());
  const std::string csv = ToCsv(*loaded);
  auto reloaded = LoadCsv(csv);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->relation.num_rows(), 3);
  EXPECT_EQ(ToCsv(*reloaded), csv);
}

TEST(CsvTest, TrimsWhitespace) {
  auto loaded = LoadCsv("a, b ,m\n 1 ,2, 3 \n");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->relation.schema().dimension_name(1), "b");
  EXPECT_EQ(loaded->relation.measure(0), 3);
}

TEST(CsvTest, RejectsEmpty) { EXPECT_FALSE(LoadCsv("").ok()); }

TEST(CsvTest, RejectsSingleColumn) {
  EXPECT_FALSE(LoadCsv("only\n1\n").ok());
}

TEST(CsvTest, RejectsArityMismatch) {
  EXPECT_FALSE(LoadCsv("a,b,m\n1,2\n").ok());
}

TEST(CsvTest, RejectsBadMeasure) {
  EXPECT_FALSE(LoadCsv("a,m\nx,notanumber\n").ok());
}

TEST(TupleCodecTest, RoundTrip) {
  const std::vector<int64_t> dims = {5, -7, 1LL << 40};
  const std::string encoded = EncodeTuple(dims, -99);
  std::vector<int64_t> decoded_dims;
  int64_t measure = 0;
  ASSERT_TRUE(DecodeTuple(encoded, &decoded_dims, &measure).ok());
  EXPECT_EQ(decoded_dims, dims);
  EXPECT_EQ(measure, -99);
}

TEST(TupleCodecTest, RejectsTrailingBytes) {
  std::string encoded = EncodeTuple(std::vector<int64_t>{1}, 2);
  encoded += "x";
  std::vector<int64_t> dims;
  int64_t measure = 0;
  EXPECT_EQ(DecodeTuple(encoded, &dims, &measure).code(),
            StatusCode::kCorruption);
}

TEST(TupleCodecTest, RejectsTruncation) {
  std::string encoded = EncodeTuple(std::vector<int64_t>{1, 2, 3}, 4);
  encoded.resize(encoded.size() - 1);
  std::vector<int64_t> dims;
  int64_t measure = 0;
  EXPECT_FALSE(DecodeTuple(encoded, &dims, &measure).ok());
}

class TupleCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TupleCodecPropertyTest, RandomTuplesRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const int d = 1 + static_cast<int>(rng.NextBounded(8));
    std::vector<int64_t> dims;
    for (int i = 0; i < d; ++i) {
      dims.push_back(static_cast<int64_t>(rng.Next()));
    }
    const int64_t measure = static_cast<int64_t>(rng.Next());
    std::vector<int64_t> decoded;
    int64_t decoded_measure = 0;
    ASSERT_TRUE(DecodeTuple(EncodeTuple(dims, measure), &decoded,
                            &decoded_measure)
                    .ok());
    EXPECT_EQ(decoded, dims);
    EXPECT_EQ(decoded_measure, measure);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleCodecPropertyTest,
                         ::testing::Values(10, 20, 30));

}  // namespace
}  // namespace spcube
