#include "relalg/operators.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "expr/builder.h"
#include "net/serde.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"

namespace skalla {
namespace {

Table SampleTable() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value(1), Value("a"), Value(10)});
  t.AppendUnchecked({Value(1), Value("a"), Value(20)});
  t.AppendUnchecked({Value(2), Value("b"), Value(30)});
  t.AppendUnchecked({Value(2), Value("a"), Value::Null()});
  return t;
}

TEST(RelalgTest, ProjectKeepsDuplicatesWithoutDistinct) {
  Table t = SampleTable();
  Table p = Project(t, {"g"}, /*distinct=*/false).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 4u);
  EXPECT_EQ(p.num_columns(), 1u);
}

TEST(RelalgTest, ProjectDistinct) {
  Table t = SampleTable();
  Table p = Project(t, {"g", "h"}, /*distinct=*/true).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 3u);  // (1,a), (2,b), (2,a).
}

TEST(RelalgTest, ProjectReordersColumns) {
  Table t = SampleTable();
  Table p = Project(t, {"v", "g"}, false).ValueOrDie();
  EXPECT_EQ(p.schema()->field(0).name, "v");
  EXPECT_EQ(p.at(0, 0).int64(), 10);
  EXPECT_EQ(p.at(0, 1).int64(), 1);
}

TEST(RelalgTest, ProjectUnknownColumnFails) {
  Table t = SampleTable();
  EXPECT_TRUE(Project(t, {"nope"}, false).status().IsNotFound());
}

TEST(RelalgTest, SelectFiltersWithNullSemantics) {
  Table t = SampleTable();
  Table s = Select(t, Ge(RCol("v"), Lit(Value(20)))).ValueOrDie();
  EXPECT_EQ(s.num_rows(), 2u);  // NULL v row excluded.
}

TEST(RelalgTest, UnionAllChecksArity) {
  Table t = SampleTable();
  Table p = Project(t, {"g"}, false).ValueOrDie();
  EXPECT_TRUE(UnionAll(t, p).status().IsInvalidArgument());
  Table u = UnionAll(t, t).ValueOrDie();
  EXPECT_EQ(u.num_rows(), 8u);
}

TEST(RelalgTest, DistinctGroupsNulls) {
  SchemaPtr schema = Schema::Make({{"x", ValueType::kInt64}}).ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value::Null()});
  t.AppendUnchecked({Value(1)});
  Table d = Distinct(t);
  EXPECT_EQ(d.num_rows(), 2u);
}

TEST(RelalgTest, SortBy) {
  Table t = SampleTable();
  Table s = SortBy(t, {"v"}).ValueOrDie();
  // NULL sorts first.
  EXPECT_TRUE(s.at(0, 2).is_null());
  EXPECT_EQ(s.at(1, 2).int64(), 10);
  EXPECT_EQ(s.at(3, 2).int64(), 30);
}

TEST(RelalgTest, TopKDescendingAndAscending) {
  SchemaPtr schema = Schema::Make({{"name", ValueType::kString},
                                   {"bytes", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.AppendUnchecked({Value("a"), Value(30)});
  t.AppendUnchecked({Value("b"), Value(10)});
  t.AppendUnchecked({Value("c"), Value(50)});
  t.AppendUnchecked({Value("d"), Value(20)});
  t.AppendUnchecked({Value("e"), Value(50)});

  Table top2 = TopK(t, "bytes", 2).ValueOrDie();
  ASSERT_EQ(top2.num_rows(), 2u);
  EXPECT_EQ(top2.at(0, 1).int64(), 50);
  EXPECT_EQ(top2.at(1, 1).int64(), 50);
  // Tie broken deterministically ("c" < "e").
  EXPECT_EQ(top2.at(0, 0).str(), "c");

  Table bottom1 = TopK(t, "bytes", 1, /*descending=*/false).ValueOrDie();
  ASSERT_EQ(bottom1.num_rows(), 1u);
  EXPECT_EQ(bottom1.at(0, 0).str(), "b");

  // k larger than the table returns everything, ordered.
  Table all = TopK(t, "bytes", 99).ValueOrDie();
  EXPECT_EQ(all.num_rows(), 5u);
  EXPECT_EQ(all.at(4, 1).int64(), 10);

  EXPECT_TRUE(TopK(t, "nope", 2).status().IsNotFound());
}

TEST(RelalgTest, BaseQueryExecuteWithWhere) {
  Catalog catalog;
  catalog.Register("t", SampleTable());
  BaseQuery q{"t", {"g"}, true, Eq(RCol("h"), Lit(Value("a")))};
  Table result = q.Execute(catalog).ValueOrDie();
  EXPECT_EQ(result.num_rows(), 2u);  // g in {1, 2} among h='a' rows.
  EXPECT_EQ(q.ToString(),
            "SELECT DISTINCT g FROM t WHERE (r.h = 'a')");
}

TEST(RelalgTest, BaseQueryUnknownTableFails) {
  Catalog catalog;
  BaseQuery q{"missing", {"g"}, true, nullptr};
  EXPECT_TRUE(q.Execute(catalog).status().IsNotFound());
}

TEST(RelalgTest, BaseQueryOutputSchema) {
  Table t = SampleTable();
  BaseQuery q{"t", {"h", "g"}, true, nullptr};
  SchemaPtr s = q.OutputSchema(*t.schema()).ValueOrDie();
  ASSERT_EQ(s->num_fields(), 2u);
  EXPECT_EQ(s->field(0).name, "h");
  EXPECT_EQ(s->field(0).type, ValueType::kString);
  EXPECT_EQ(s->field(1).name, "g");
}

TEST(RelalgTest, EmptyProjectionYieldsSingleEmptyRowUnderDistinct) {
  // The grand-total cuboid relies on this: distinct over zero columns is
  // one empty row for a non-empty input, zero rows for an empty input.
  Table t = SampleTable();
  Table p = Project(t, {}, true).ValueOrDie();
  EXPECT_EQ(p.num_rows(), 1u);
  EXPECT_EQ(p.num_columns(), 0u);

  Table empty(t.schema());
  Table pe = Project(empty, {}, true).ValueOrDie();
  EXPECT_EQ(pe.num_rows(), 0u);
}

TEST(RelalgTest, BaseQueryKeepsDuplicatesAndEmptyProjection) {
  Catalog catalog;
  catalog.Register("t", SampleTable());
  Table all = BaseQuery{"t", {"g"}, false, nullptr}.Execute(catalog)
                  .ValueOrDie();
  EXPECT_EQ(all.num_rows(), 4u);
  // Zero key columns: one empty row under DISTINCT, one per row without.
  Table one = BaseQuery{"t", {}, true, nullptr}.Execute(catalog).ValueOrDie();
  EXPECT_EQ(one.num_rows(), 1u);
  EXPECT_EQ(one.num_columns(), 0u);
  Table four =
      BaseQuery{"t", {}, false, nullptr}.Execute(catalog).ValueOrDie();
  EXPECT_EQ(four.num_rows(), 4u);
}

TEST(RelalgTest, BaseQueryRejectsBaseSideReferences) {
  Catalog catalog;
  catalog.Register("t", SampleTable());
  BaseQuery q{"t", {"g"}, true, Eq(RCol("g"), BCol("g"))};
  EXPECT_FALSE(q.Execute(catalog).ok());
}

// Wraps a provider and cancels `token` right after chunk `cancel_at` is
// pinned, counting every Pin.
class CancellingProvider : public DataProvider {
 public:
  CancellingProvider(const DataProvider& inner, size_t cancel_at,
                     CancellationToken* token)
      : inner_(inner), cancel_at_(cancel_at), token_(token) {}

  const SchemaPtr& schema() const override { return inner_.schema(); }
  size_t num_rows() const override { return inner_.num_rows(); }
  size_t num_chunks() const override { return inner_.num_chunks(); }
  size_t chunk_row_begin(size_t c) const override {
    return inner_.chunk_row_begin(c);
  }
  size_t chunk_rows(size_t c) const override { return inner_.chunk_rows(c); }
  Result<PinnedChunk> Pin(size_t chunk,
                          const std::vector<size_t>& columns) const override {
    ++pins_;
    Result<PinnedChunk> pin = inner_.Pin(chunk, columns);
    if (chunk == cancel_at_) token_->Cancel(Status::Cancelled("test cancel"));
    return pin;
  }

  size_t pins() const { return pins_; }

 private:
  const DataProvider& inner_;
  size_t cancel_at_;
  CancellationToken* token_;
  mutable size_t pins_ = 0;
};

std::vector<uint8_t> Bytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

// 512 rows in 8 chunks of 64, `v` ascending: chunk c holds v in
// [64c, 64c + 63].
Table SortedTable() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (int64_t i = 0; i < 512; ++i) t.AppendUnchecked({Value(i % 5), Value(i)});
  return t;
}

TEST(RelalgTest, BaseQueryStopsAtTheChunkAfterCancellation) {
  auto table = std::make_shared<const Table>(SortedTable());
  MemoryDataProvider memory(table, 64);
  for (size_t k : {size_t{0}, size_t{3}, size_t{7}}) {
    CancellationToken token;
    CancellingProvider provider(memory, k, &token);
    EvalContext context;
    context.cancellation = &token;
    Result<Table> result =
        BaseQuery{"t", {"g"}, true, nullptr}.Execute(provider, context);
    ASSERT_FALSE(result.ok()) << k;
    EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
    EXPECT_EQ(provider.pins(), k + 1);
  }
}

TEST(RelalgTest, BaseQueryWhereOverSortedColumnPinsOnlyUnprunedChunks) {
  const Table table = SortedTable();
  const std::string path = "/tmp/skalla_relalg_sorted_test.skc";
  WriteChunkFile(table, path, /*chunk_rows=*/64).Check();
  // v >= 400 can only hold in chunks 6 (v 384..447) and 7.
  BaseQuery q{"t", {"g", "v"}, true, Ge(RCol("v"), Lit(Value(400)))};
  Table expected =
      Project(Select(table, q.where).ValueOrDie(), q.columns, true)
          .ValueOrDie();
  for (bool pruning : {true, false}) {
    auto buffers = std::make_shared<BufferManager>(0);
    auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
    EvalProfile profile;
    EvalContext context;
    context.chunk_pruning = pruning;
    context.profile = &profile;
    Table result = q.Execute(*provider, context).ValueOrDie();
    EXPECT_EQ(Bytes(result), Bytes(expected));
    // Misses count column pages: g and v for every pinned chunk.
    EXPECT_EQ(buffers->stats().misses, (pruning ? 2u : 8u) * 2);
    EXPECT_EQ(profile.chunks_pruned.load(), pruning ? 6u : 0u);
    EXPECT_EQ(profile.rows_scanned.load(), pruning ? 128u : 512u);
    EXPECT_EQ(profile.engines_used.load(), kEngineBitColumnar);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skalla
