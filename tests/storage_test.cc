// Table, hash index, catalog, and partitioning (incl. PartitionInfo /
// Definition 2).

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/catalog.h"
#include "storage/hash_index.h"
#include "storage/partition.h"
#include "storage/table.h"

namespace skalla {
namespace {

Table SmallTable() {
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64},
                                   {"v", ValueType::kString}})
                         .ValueOrDie();
  Table t(schema);
  t.Append({Value(1), Value("a")}).Check();
  t.Append({Value(2), Value("b")}).Check();
  t.Append({Value(1), Value("c")}).Check();
  return t;
}

TEST(TableTest, AppendValidatesArity) {
  Table t = SmallTable();
  Status s = t.Append({Value(1)});
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(TableTest, AppendValidatesTypes) {
  Table t = SmallTable();
  EXPECT_TRUE(t.Append({Value("oops"), Value("a")}).IsTypeError());
  // NULL is accepted anywhere; INT64/FLOAT64 interchange.
  EXPECT_TRUE(t.Append({Value::Null(), Value::Null()}).ok());
  SchemaPtr num = Schema::Make({{"x", ValueType::kFloat64}}).ValueOrDie();
  Table nt(num);
  EXPECT_TRUE(nt.Append({Value(1)}).ok());
}

TEST(TableTest, SameRowsIsOrderInsensitive) {
  Table a = SmallTable();
  SchemaPtr schema = a.schema();
  Table b(schema);
  b.AppendUnchecked({Value(1), Value("c")});
  b.AppendUnchecked({Value(2), Value("b")});
  b.AppendUnchecked({Value(1), Value("a")});
  EXPECT_TRUE(a.SameRows(b));
  b.AppendUnchecked({Value(9), Value("z")});
  EXPECT_FALSE(a.SameRows(b));
}

TEST(TableTest, SortRowsBy) {
  Table t = SmallTable();
  t.SortRowsBy({0, 1});
  EXPECT_EQ(t.at(0, 1).str(), "a");
  EXPECT_EQ(t.at(1, 1).str(), "c");
  EXPECT_EQ(t.at(2, 0).int64(), 2);
}

TEST(TableTest, ToStringTruncates) {
  Table t = SmallTable();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("k | v"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

TEST(HashIndexTest, LookupByDifferentProbeColumns) {
  Table t = SmallTable();
  HashIndex index = HashIndex::Build(t, {0});
  // Probe with a wider row whose key sits at position 2.
  Row probe = {Value("x"), Value("y"), Value(1)};
  const std::vector<uint32_t>* rows = index.Lookup(probe, {2});
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 2u);  // Rows 0 and 2 have k=1.
  EXPECT_EQ(index.num_keys(), 2u);
  probe[2] = Value(99);
  EXPECT_EQ(index.Lookup(probe, {2}), nullptr);
}

TEST(HashIndexTest, MultiColumnKeysAndNulls) {
  SchemaPtr schema = Schema::Make({{"a", ValueType::kInt64},
                                   {"b", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value(1), Value(1)});
  t.AppendUnchecked({Value(1), Value::Null()});
  t.AppendUnchecked({Value(1), Value::Null()});
  HashIndex index = HashIndex::Build(t, {0, 1});
  EXPECT_EQ(index.num_keys(), 2u);
  Row probe = {Value(1), Value::Null()};
  const auto* rows = index.Lookup(probe, {0, 1});
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 2u);  // NULL groups together (GROUP BY style).
}

TEST(HashIndexTest, LargeRandomAgainstLinearScan) {
  Random rng(5);
  SchemaPtr schema = Schema::Make({{"k", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 5000; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 99))});
  }
  HashIndex index = HashIndex::Build(t, {0});
  EXPECT_EQ(index.num_keys(), 100u);
  for (int64_t key = 0; key < 100; ++key) {
    Row probe = {Value(key)};
    const auto* rows = index.Lookup(probe, {0});
    size_t expected = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (t.at(r, 0).int64() == key) ++expected;
    }
    ASSERT_NE(rows, nullptr);
    EXPECT_EQ(rows->size(), expected);
  }
}

TEST(CatalogTest, RegisterGetAndReplace) {
  Catalog catalog;
  catalog.Register("t", SmallTable());
  ASSERT_TRUE(catalog.Contains("t"));
  const Table* t = catalog.Get("t").ValueOrDie();
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_TRUE(catalog.Get("missing").status().IsNotFound());

  Table empty(t->schema());
  catalog.Register("t", empty);
  EXPECT_EQ(catalog.Get("t").ValueOrDie()->num_rows(), 0u);
  EXPECT_EQ(catalog.TableNames().size(), 1u);
}

TEST(PartitionTest, ByValueKeepsValuesTogether) {
  Random rng(7);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 1000; ++i) {
    t.AppendUnchecked({Value(rng.UniformInt(0, 19)),
                       Value(rng.UniformInt(0, 9))});
  }
  auto parts = PartitionByValue(t, "g", 4).ValueOrDie();
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, t.num_rows());

  // Each g value appears in exactly one partition.
  PartitionInfo info =
      PartitionInfo::ComputeFromPartitions(parts, {"g", "v"}).ValueOrDie();
  EXPECT_TRUE(info.IsPartitionAttribute("g"));
  EXPECT_FALSE(info.IsPartitionAttribute("v"));
}

TEST(PartitionTest, ByModuloIsEvenAndPartitionAttribute) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 800; ++i) t.AppendUnchecked({Value(i % 25)});
  auto parts = PartitionByModulo(t, "g", 8).ValueOrDie();
  PartitionInfo info =
      PartitionInfo::ComputeFromPartitions(parts, {"g"}).ValueOrDie();
  EXPECT_TRUE(info.IsPartitionAttribute("g"));
  // 25 values over 8 sites: between 3 and 4 values per site -> sizes
  // within 2x of each other.
  size_t lo = t.num_rows();
  size_t hi = 0;
  for (const Table& p : parts) {
    lo = std::min(lo, p.num_rows());
    hi = std::max(hi, p.num_rows());
  }
  EXPECT_GE(lo * 2, hi);
}

TEST(PartitionTest, ByModuloRejectsNonIntColumns) {
  SchemaPtr schema = Schema::Make({{"s", ValueType::kString}}).ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value("x")});
  EXPECT_TRUE(PartitionByModulo(t, "s", 2).status().IsTypeError());
}

TEST(PartitionTest, RoundRobinIsNotPartitionAttribute) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  for (int i = 0; i < 100; ++i) t.AppendUnchecked({Value(i % 5)});
  auto parts = PartitionRoundRobin(t, 4).ValueOrDie();
  PartitionInfo info =
      PartitionInfo::ComputeFromPartitions(parts, {"g"}).ValueOrDie();
  EXPECT_FALSE(info.IsPartitionAttribute("g"));
}

TEST(PartitionTest, ZeroSitesRejected) {
  Table t = SmallTable();
  EXPECT_FALSE(PartitionByValue(t, "k", 0).ok());
  EXPECT_FALSE(PartitionRoundRobin(t, 0).ok());
}

TEST(PartitionInfoTest, ColumnDistributionMayContain) {
  ColumnDistribution dist;
  EXPECT_TRUE(dist.MayContain(Value(5)));  // Nothing known.
  dist.min = 0.0;
  dist.max = 10.0;
  EXPECT_TRUE(dist.MayContain(Value(5)));
  EXPECT_FALSE(dist.MayContain(Value(11)));
  EXPECT_FALSE(dist.MayContain(Value(-1)));
  EXPECT_TRUE(dist.MayContain(Value("str")));  // Ranges ignore non-numerics.
  dist.values.emplace();
  dist.values->Insert(Value(3));
  EXPECT_TRUE(dist.MayContain(Value(3)));
  EXPECT_FALSE(dist.MayContain(Value(5)));  // Exact set dominates.
}

TEST(ValueSetTest, InsertContainsIntersects) {
  ValueSet a;
  a.Insert(Value(1));
  a.Insert(Value(1));
  a.Insert(Value("x"));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.Contains(Value(1)));
  EXPECT_TRUE(a.Contains(Value(1.0)));  // Cross-type numeric equality.
  EXPECT_FALSE(a.Contains(Value(2)));
  ValueSet b;
  b.Insert(Value("x"));
  EXPECT_TRUE(a.Intersects(b));
  ValueSet c;
  c.Insert(Value(7));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_FALSE(ValueSet().Intersects(a));
}

}  // namespace
}  // namespace skalla
