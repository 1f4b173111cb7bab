// Tests for CubeStore, the per-cuboid sorted view spcube_cli writes cuboid
// files and top-k listings from, checked against the reference cube.

#include <gtest/gtest.h>

#include "cube/cube_result.h"
#include "query/cube_store.h"

namespace spcube {
namespace {

/// Small hand-checkable relation: (product, city) -> sales.
Relation SalesRelation() {
  Relation rel(MakeAnonymousSchema(2));
  // product 0 = laptop, 1 = printer; city 0 = rome, 1 = paris.
  rel.AppendRow(std::vector<int64_t>{0, 0}, 10);
  rel.AppendRow(std::vector<int64_t>{0, 0}, 20);
  rel.AppendRow(std::vector<int64_t>{0, 1}, 5);
  rel.AppendRow(std::vector<int64_t>{1, 0}, 7);
  rel.AppendRow(std::vector<int64_t>{1, 1}, 3);
  return rel;
}

TEST(CubeStoreTest, CuboidsAreSortedAndComplete) {
  CubeStore store(ComputeCubeReference(SalesRelation(),
                                       AggregateKind::kCount));
  EXPECT_EQ(store.Cuboid(0).size(), 1u);
  EXPECT_EQ(store.Cuboid(0b01).size(), 2u);
  EXPECT_EQ(store.Cuboid(0b10).size(), 2u);
  EXPECT_EQ(store.Cuboid(0b11).size(), 4u);
  const auto& base = store.Cuboid(0b11);
  for (size_t i = 1; i < base.size(); ++i) {
    EXPECT_LT(base[i - 1].key.values, base[i].key.values);
  }
}

TEST(CubeStoreTest, TopK) {
  CubeStore store(ComputeCubeReference(SalesRelation(),
                                       AggregateKind::kSum));
  auto top = store.TopK(0b11, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, GroupKey(0b11, {0, 0}));  // 30
  EXPECT_EQ(top[1].key, GroupKey(0b11, {1, 0}));  // 7
  // k larger than the cuboid returns everything, sorted.
  EXPECT_EQ(store.TopK(0b01, 10).size(), 2u);
}

}  // namespace
}  // namespace spcube
