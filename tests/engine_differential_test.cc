// Row-vs-columnar differential test: the row engine is the oracle and
// the columnar kernels must reproduce its output BYTE for byte across
// randomized condition shapes (equality atoms, ranges, IN-sets, NOT,
// mixed residual conjuncts, correlated comparisons, empty base/detail),
// thread counts, memory-backed chunk sizes, chunk-file buffer budgets,
// and chunk pruning on/off. Both oracle modes (indexed and nested loop)
// must agree with each other too.
//
// All generated values are representation-matching (int64 columns get
// int64 Values, float64 columns get doubles), the well-typed-table
// contract both engines' byte-identity is defined over
// (docs/KERNELS.md).

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "columnar/vector_eval.h"
#include "common/random.h"
#include "core/evaluate.h"
#include "core/local_eval.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "relalg/operators.h"
#include "storage/catalog.h"
#include "storage/chunk_file.h"
#include "storage/data_provider.h"
#include "types/value_set.h"

namespace skalla {
namespace {

std::vector<uint8_t> Bytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

// Random detail relation over the fixed differential schema. Values are
// representation-matching per column type; iv and dv carry NULLs.
Table MakeDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"iv", ValueType::kInt64},
                                   {"dv", ValueType::kFloat64}})
                         .ValueOrDie();
  const char* labels[] = {"x", "y", "z", "w"};
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng.UniformInt(0, 9)),
               Value(std::string(labels[rng.Uniform(4)])),
               Value(rng.UniformInt(-40, 40)),
               Value(static_cast<double>(rng.UniformInt(-200, 200)) / 8.0)};
    if (rng.Bernoulli(0.12)) row[2] = Value::Null();
    if (rng.Bernoulli(0.12)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

// One random conjunct over the detail side (and sometimes the base
// side), drawn from every shape the predicate compiler classifies:
// typed comparisons, IN-sets, NOT, arithmetic (kGeneric), correlated
// comparisons, base-only gates.
ExprPtr RandomConjunct(Random* rng) {
  switch (rng->Uniform(9)) {
    case 0:  // int range atom (prunable)
      return Gt(RCol("iv"), Lit(Value(rng->UniformInt(-30, 30))));
    case 1:  // double range atom (prunable)
      return Le(RCol("dv"),
                Lit(Value(static_cast<double>(rng->UniformInt(-20, 20)))));
    case 2:  // equality atom on a measure (prunable)
      return Eq(RCol("iv"), Lit(Value(rng->UniformInt(-10, 10))));
    case 3: {  // IN-set over strings
      auto set = std::make_shared<ValueSet>();
      set->Insert(Value("x"));
      if (rng->Bernoulli(0.5)) set->Insert(Value("z"));
      return Expr::InSet(RCol("h"), std::move(set));
    }
    case 4: {  // IN-set over ints
      auto set = std::make_shared<ValueSet>();
      for (int k = 0; k < 3; ++k) set->Insert(Value(rng->UniformInt(-5, 5)));
      return Expr::InSet(RCol("iv"), std::move(set));
    }
    case 5:  // NOT of a comparison (generic fallback)
      return Not(Ge(RCol("iv"), Lit(Value(rng->UniformInt(-15, 15)))));
    case 6:  // arithmetic on the detail side (generic fallback)
      return Lt(Add(RCol("iv"), Lit(Value(int64_t{1}))),
                Lit(Value(rng->UniformInt(-20, 20))));
    case 7:  // not-equal (unprunable typed comparison)
      return Ne(RCol("h"), Lit(Value("y")));
    default:  // correlated comparison (candidates / scan paths)
      return rng->Bernoulli(0.5) ? Ge(RCol("iv"), BCol("g"))
                                 : Lt(RCol("dv"), BCol("bd"));
  }
}

// A random θ: optionally equality atoms (exercising grouped/candidates
// vs scan), plus 0-3 conjuncts of random shape, plus sometimes a
// base-only gate.
ExprPtr RandomTheta(Random* rng) {
  ExprPtr theta;
  auto conjoin = [&theta](ExprPtr c) {
    theta = theta == nullptr ? std::move(c)
                             : And(std::move(theta), std::move(c));
  };
  if (rng->Bernoulli(0.7)) conjoin(Eq(RCol("g"), BCol("g")));
  if (rng->Bernoulli(0.25)) conjoin(Eq(RCol("h"), BCol("bh")));
  const size_t extra = rng->Uniform(4);
  for (size_t i = 0; i < extra; ++i) conjoin(RandomConjunct(rng));
  if (rng->Bernoulli(0.2)) conjoin(Gt(BCol("g"), Lit(Value(int64_t{2}))));
  if (theta == nullptr) theta = Lit(Value(int64_t{1}));  // cross product
  return theta;
}

GmdjOp RandomOp(Random* rng) {
  GmdjOp op;
  op.detail_table = "d";
  const size_t blocks = 1 + rng->Uniform(2);
  for (size_t b = 0; b < blocks; ++b) {
    op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                   {AggKind::kCount, "iv", "ci"},
                                   {AggKind::kSum, "iv", "si"},
                                   {AggKind::kSum, "dv", "sd"},
                                   {AggKind::kAvg, "dv", "ad"},
                                   {AggKind::kMin, "iv", "lo"},
                                   {AggKind::kMax, "dv", "hi"},
                                   {AggKind::kVarPop, "iv", "vp"}},
                                  RandomTheta(rng)});
    // Distinct output names per block.
    for (AggSpec& agg : op.blocks.back().aggs) {
      agg.output += std::to_string(b);
    }
  }
  return op;
}

// Base relation: the distinct equality keys plus derived comparison
// inputs (bd, bh) and one guaranteed-unmatched row.
Table MakeBase(const Table& detail, Random* rng, bool empty_base) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"bh", ValueType::kString},
                                   {"bd", ValueType::kFloat64}})
                         .ValueOrDie();
  Table base(schema);
  if (empty_base) return base;
  const char* labels[] = {"x", "y", "z", "w"};
  for (int64_t g = 0; g <= 9; ++g) {
    base.AppendUnchecked(
        {Value(g), Value(std::string(labels[rng->Uniform(4)])),
         Value(static_cast<double>(rng->UniformInt(-40, 40)) / 4.0)});
  }
  base.AppendUnchecked({Value(int64_t{999}), Value("none"), Value(0.75)});
  (void)detail;
  return base;
}

class EngineDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_engine_differential_test";
    mkdir(dir_.c_str(), 0755);
  }
  std::string dir_;
};

TEST_P(EngineDifferentialTest, ColumnarMatchesRowOracleByteForByte) {
  const uint64_t seed = GetParam();
  Random rng(seed * 7919 + 1);
  const bool empty_detail = seed % 7 == 3;
  const bool empty_base = seed % 7 == 5;
  Table detail = MakeDetail(seed, empty_detail ? 0 : 200 + seed * 37);
  Table base = MakeBase(detail, &rng, empty_base);
  auto resident = std::make_shared<const Table>(detail);
  GmdjOp op = RandomOp(&rng);

  const std::string path =
      dir_ + "/detail_" + std::to_string(seed) + ".skc";
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();

  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (bool sub : {false, true}) {
    for (bool compute_rng : {false, true}) {
      EvalContext context;
      context.sub_aggregates = sub;
      context.compute_rng = compute_rng;
      context.morsel_rows = 96;
      const std::string label =
          "seed=" + std::to_string(seed) + " sub=" + std::to_string(sub) +
          " rng=" + std::to_string(compute_rng);

      Table oracle = EvalGmdj(base, detail, op, context).ValueOrDie();
      const std::vector<uint8_t> expected = Bytes(oracle);
      EvalContext nested = context;
      nested.engine = EvalEngine::kNestedLoop;
      EXPECT_EQ(Bytes(EvalGmdj(base, detail, op, nested).ValueOrDie()),
                expected)
          << label << " nested loop";

      for (size_t threads : {size_t{1}, hw}) {
        context.eval_threads = threads;

        // Memory-backed columnar: chunk views of 64 rows (evaluation
        // crosses chunk boundaries) and of the default size.
        for (size_t chunk_rows : {size_t{64}, kDefaultChunkRows}) {
          MemoryDataProvider memory(resident, chunk_rows);
          Table columnar =
              EvalGmdjColumnar(base, memory, op, context).ValueOrDie();
          EXPECT_EQ(Bytes(columnar), expected)
              << label << " threads=" << threads
              << " chunk_rows=" << chunk_rows << "\noracle:\n"
              << oracle.ToString(30) << "columnar:\n"
              << columnar.ToString(30);
        }

        // Chunk-paged columnar at a tight and an unlimited buffer
        // budget, pruning on and off.
        for (uint64_t budget : {uint64_t{16} << 20, uint64_t{0}}) {
          for (bool pruning : {true, false}) {
            auto buffers = std::make_shared<BufferManager>(budget);
            auto provider =
                ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
            context.chunk_pruning = pruning;
            Table chunked =
                EvalGmdjColumnar(base, *provider, op, context).ValueOrDie();
            EXPECT_EQ(Bytes(chunked), expected)
                << label << " threads=" << threads << " budget=" << budget
                << " pruning=" << pruning << "\noracle:\n"
                << oracle.ToString(30) << "chunked:\n"
                << chunked.ToString(30);
          }
          context.chunk_pruning = true;
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{14}));

// --- Read sets: pins load only the column pages a block reads --------------

// Detail relation where every column has one reader: `gen` only a
// kGeneric conjunct, `cor` only a correlated conjunct, `agg` only an
// aggregate, and `pad` nothing at all.
Table MakeReadSetDetail(size_t rows) {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"gen", ValueType::kInt64},
                                   {"cor", ValueType::kFloat64},
                                   {"agg", ValueType::kFloat64},
                                   {"pad", ValueType::kString}})
                         .ValueOrDie();
  Random rng(4242);
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng.UniformInt(0, 5)), Value(rng.UniformInt(-6, 6)),
               Value(static_cast<double>(rng.UniformInt(-40, 40)) / 4.0),
               Value(static_cast<double>(rng.UniformInt(-90, 90)) / 8.0),
               Value(std::string(1 + rng.Uniform(20), 'p'))};
    if (rng.Bernoulli(0.1)) row[1] = Value::Null();
    if (rng.Bernoulli(0.1)) row[2] = Value::Null();
    if (rng.Bernoulli(0.1)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

Table MakeReadSetBase() {
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"bd", ValueType::kFloat64}})
                         .ValueOrDie();
  Table base(schema);
  for (int64_t g = 0; g <= 6; ++g) {
    base.AppendUnchecked({Value(g), Value(static_cast<double>(g) - 2.5)});
  }
  return base;
}

GmdjBlock ReadSetBlock(ExprPtr theta, std::vector<AggSpec> aggs,
                       const std::string& suffix) {
  for (AggSpec& agg : aggs) agg.output += suffix;
  return GmdjBlock{std::move(aggs), std::move(theta)};
}

// One block per path, each reading a column no other block reads.
GmdjOp ReadSetOp() {
  GmdjOp op;
  op.detail_table = "d";
  // Grouped: a kGeneric conjunct (arithmetic) is the only reader of gen.
  op.blocks.push_back(ReadSetBlock(
      And(Eq(RCol("g"), BCol("g")),
          Lt(Add(RCol("gen"), Lit(Value(int64_t{1}))), Lit(Value(int64_t{3})))),
      {{AggKind::kCountStar, "", "c"}}, "_gen"));
  // Candidates: a correlated conjunct is the only reader of cor.
  op.blocks.push_back(ReadSetBlock(
      And(Eq(RCol("g"), BCol("g")), Lt(RCol("cor"), BCol("bd"))),
      {{AggKind::kCountStar, "", "c"}}, "_cor"));
  // Grouped: an aggregate is the only reader of agg.
  op.blocks.push_back(ReadSetBlock(Eq(RCol("g"), BCol("g")),
                                   {{AggKind::kSum, "agg", "s"},
                                    {AggKind::kMax, "agg", "hi"}},
                                   "_agg"));
  // Scan: no equality atom, correlated cor plus aggregate agg.
  op.blocks.push_back(ReadSetBlock(Ge(RCol("cor"), BCol("bd")),
                                   {{AggKind::kAvg, "agg", "a"},
                                    {AggKind::kCountStar, "", "c"}},
                                   "_scan"));
  return op;
}

TEST(ReadSetDifferentialTest, ProjectedPinsMatchResidentAtEveryBudget) {
  const std::string dir = "/tmp/skalla_engine_differential_test";
  mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/read_set.skc";
  Table detail = MakeReadSetDetail(600);
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();
  Table base = MakeReadSetBase();
  GmdjOp op = ReadSetOp();
  auto resident = std::make_shared<const Table>(detail);
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());

  for (bool sub : {false, true}) {
    EvalContext context;
    context.sub_aggregates = sub;
    context.morsel_rows = 40;  // several morsels per chunk
    const std::vector<uint8_t> expected =
        Bytes(EvalGmdj(base, detail, op, context).ValueOrDie());
    MemoryDataProvider memory(resident, 64);
    EXPECT_EQ(Bytes(EvalGmdjColumnar(base, memory, op, context).ValueOrDie()),
              expected);
    for (size_t threads : {size_t{1}, hw}) {
      context.eval_threads = threads;
      for (uint64_t budget : {uint64_t{1}, uint64_t{2048}, uint64_t{0}}) {
        for (bool pruning : {true, false}) {
          auto buffers = std::make_shared<BufferManager>(budget);
          auto provider =
              ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
          context.chunk_pruning = pruning;
          Table chunked =
              EvalGmdjColumnar(base, *provider, op, context).ValueOrDie();
          EXPECT_EQ(Bytes(chunked), expected)
              << "sub=" << sub << " threads=" << threads
              << " budget=" << budget << " pruning=" << pruning;
        }
      }
    }
  }
  std::remove(path.c_str());
}

// Scan-path blocks keep a worker's chunk pinned across its consecutive
// morsels: at a budget below one page, a single worker loads each page
// of each chunk exactly once however many morsels the chunk spans.
TEST(ReadSetDifferentialTest, ScanPathLoadsEachChunkPageOnce) {
  const std::string dir = "/tmp/skalla_engine_differential_test";
  mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/scan_pages.skc";
  Table detail = MakeReadSetDetail(512);
  WriteChunkFile(detail, path, /*chunk_rows=*/128).Check();
  Table base = MakeReadSetBase();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(ReadSetBlock(Lt(RCol("cor"), BCol("bd")),
                                   {{AggKind::kSum, "agg", "s"}}, ""));
  EvalContext context;
  context.eval_threads = 1;
  context.morsel_rows = 16;  // 8 morsels per chunk
  const std::vector<uint8_t> expected =
      Bytes(EvalGmdj(base, detail, op, context).ValueOrDie());

  auto buffers = std::make_shared<BufferManager>(1);
  auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
  EvalProfile profile;
  context.profile = &profile;
  EXPECT_EQ(Bytes(EvalGmdjColumnar(base, *provider, op, context).ValueOrDie()),
            expected);
  // No detail-only conjunct, so nothing prunes and the only pins are the
  // folds': 4 chunks x 2 pages (cor, agg).
  const BufferStats stats = buffers->stats();
  EXPECT_EQ(profile.chunks_pruned.load(), 0u);
  EXPECT_EQ(stats.misses, provider->num_chunks() * 2);
  EXPECT_EQ(profile.pages_loaded.load(), stats.misses);
  EXPECT_EQ(profile.bytes_loaded.load(), stats.loaded_bytes);
  std::remove(path.c_str());
}

TEST(EnginePruningTest, StatsPruneChunksWithoutChangingBytes) {
  // Clustered detail: chunk-sized runs of disjoint iv ranges, so a
  // range conjunct disqualifies most chunks by min/max alone.
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"iv", ValueType::kInt64}})
                         .ValueOrDie();
  Table detail(schema);
  for (int64_t c = 0; c < 8; ++c) {
    for (int64_t i = 0; i < 64; ++i) {
      detail.AppendUnchecked({Value(i % 4), Value(c * 1000 + i)});
    }
  }
  const std::string path = "/tmp/skalla_engine_pruning_test.skc";
  WriteChunkFile(detail, path, /*chunk_rows=*/64).Check();
  auto buffers = std::make_shared<BufferManager>(0);
  auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();

  SchemaPtr base_schema =
      Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  for (int64_t g = 0; g < 4; ++g) base.AppendUnchecked({Value(g)});

  GmdjOp op;
  op.detail_table = "d";
  // Only the last chunk (iv >= 7000) can satisfy the range conjunct.
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kSum, "iv", "s"}},
      And(Eq(RCol("g"), BCol("g")), Ge(RCol("iv"), Lit(Value(int64_t{7000}))))});

  EvalContext context;
  EvalProfile pruned_profile;
  context.profile = &pruned_profile;
  Table with_pruning =
      EvalGmdjColumnar(base, *provider, op, context).ValueOrDie();
  EXPECT_EQ(pruned_profile.chunks_pruned.load(), 7u);

  EvalProfile full_profile;
  context.profile = &full_profile;
  context.chunk_pruning = false;
  Table without_pruning =
      EvalGmdjColumnar(base, *provider, op, context).ValueOrDie();
  EXPECT_EQ(full_profile.chunks_pruned.load(), 0u);

  EXPECT_EQ(Bytes(with_pruning), Bytes(without_pruning));
  // And both agree with the row oracle.
  Table oracle = EvalGmdj(base, detail, op).ValueOrDie();
  EXPECT_EQ(Bytes(with_pruning), Bytes(oracle));
  std::remove(path.c_str());
}

// --- Base queries -----------------------------------------------------------
//
// The base-values query 𝔅 runs as a columnar chunk scan (selection
// bitmap, stat pruning, first-occurrence typed distinct). Its oracle is
// the resident Select -> Project(distinct) pipeline; results must match
// byte for byte across WHERE shapes, key columns, distinct on/off, chunk
// sizes, buffer budgets and pruning on/off.

// Detail relation with every key type the typed distinct handles: int g,
// float fk carrying NULL, -0.0, 0.0 and NaN, string h carrying NULL, and
// an int measure iv (NULLs). Odd seeds cluster iv by row so range
// conjuncts prune whole chunks.
Table MakeBaseDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"fk", ValueType::kFloat64},
                                   {"h", ValueType::kString},
                                   {"iv", ValueType::kInt64}})
                         .ValueOrDie();
  const double floats[] = {-0.0, 0.0, std::nan(""), 1.5, -2.25, 7.0};
  const char* labels[] = {"x", "y", "z"};
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    const int64_t iv = seed % 2 == 1
                           ? static_cast<int64_t>(i / 16) - 20
                           : rng.UniformInt(-40, 40);
    Row row = {Value(rng.UniformInt(0, 5)), Value(floats[rng.Uniform(6)]),
               Value(std::string(labels[rng.Uniform(3)])), Value(iv)};
    if (rng.Bernoulli(0.1)) row[1] = Value::Null();
    if (rng.Bernoulli(0.1)) row[2] = Value::Null();
    if (rng.Bernoulli(0.1)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

// One random base WHERE conjunct: typed int/double/string literals (on
// the NaN-carrying column too), IN-sets, generic fallbacks, NULL
// literals, and constant-only conjuncts (*never_true set when a
// constant one is false).
ExprPtr RandomBaseConjunct(Random* rng, bool* never_true) {
  switch (rng->Uniform(11)) {
    case 0:  // int range (prunable)
      return Gt(RCol("iv"), Lit(Value(rng->UniformInt(-30, 30))));
    case 1:  // double range over NULL, -0.0 and NaN (prunable)
      return Le(RCol("fk"), Lit(Value(static_cast<double>(
                                rng->UniformInt(-3, 3)))));
    case 2:  // the other non-strict side, int literal on a float column
      return Ge(RCol("fk"), Lit(Value(rng->UniformInt(-1, 2))));
    case 3:  // int equality (prunable)
      return Eq(RCol("g"), Lit(Value(rng->UniformInt(0, 5))));
    case 4: {  // IN-set over strings
      auto set = std::make_shared<ValueSet>();
      set->Insert(Value("x"));
      if (rng->Bernoulli(0.5)) set->Insert(Value("z"));
      return Expr::InSet(RCol("h"), std::move(set));
    }
    case 5: {  // IN-set over ints
      auto set = std::make_shared<ValueSet>();
      for (int k = 0; k < 3; ++k) set->Insert(Value(rng->UniformInt(-5, 5)));
      return Expr::InSet(RCol("iv"), std::move(set));
    }
    case 6:  // NOT (generic)
      return Not(Lt(RCol("fk"), Lit(Value(0.5))));
    case 7:  // OR across columns (generic)
      return Or(Eq(RCol("h"), Lit(Value("y"))),
                Lt(Add(RCol("iv"), Lit(Value(int64_t{1}))),
                   Lit(Value(rng->UniformInt(-20, 20)))));
    case 8:  // NULL literal: false on every row (generic)
      return Eq(RCol("iv"), Lit(Value::Null()));
    case 9:  // string not-equal (typed, unprunable)
      return Ne(RCol("h"), Lit(Value("y")));
    default:  // constant-only: true or false once per query
      if (rng->Bernoulli(0.5)) {
        return Ge(Lit(Value(int64_t{2})), Lit(Value(int64_t{1})));
      }
      *never_true = true;
      return Lt(Lit(Value(int64_t{2})), Lit(Value(int64_t{1})));
  }
}

ExprPtr RandomBaseWhere(Random* rng, bool* never_true) {
  ExprPtr where;
  const size_t conjuncts = rng->Uniform(4);  // 0 = no WHERE
  for (size_t i = 0; i < conjuncts; ++i) {
    ExprPtr c = RandomBaseConjunct(rng, never_true);
    where = where == nullptr ? std::move(c) : And(std::move(where), std::move(c));
  }
  return where;
}

// The column pages one chunk pin of `query` reads: its projection plus
// its WHERE's columns.
size_t BaseReadPages(const BaseQuery& query, const Schema& schema) {
  std::vector<std::string> names = query.columns;
  if (query.where != nullptr) {
    query.where->CollectColumns(ExprSide::kDetail, &names);
  }
  std::set<int> cols;
  for (const std::string& name : names) cols.insert(schema.IndexOf(name));
  return cols.size();
}

Table BaseOracle(const Table& detail, const BaseQuery& query) {
  if (query.where == nullptr) {
    return Project(detail, query.columns, query.distinct).ValueOrDie();
  }
  Table selected = Select(detail, query.where).ValueOrDie();
  return Project(selected, query.columns, query.distinct).ValueOrDie();
}

class BaseQueryDifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_engine_differential_test";
    mkdir(dir_.c_str(), 0755);
  }
  std::string dir_;
};

TEST_P(BaseQueryDifferentialTest, ColumnarScanMatchesSelectProject) {
  const uint64_t seed = GetParam();
  Random rng(seed * 104729 + 7);
  const size_t rows = seed % 9 == 4 ? 0 : 150 + seed * 41;
  Table detail = MakeBaseDetail(seed, rows);
  auto resident = std::make_shared<const Table>(detail);
  const std::string path =
      dir_ + "/base_" + std::to_string(seed) + ".skc";
  WriteChunkFile(detail, path, /*chunk_rows=*/32).Check();
  Catalog catalog;
  catalog.Register("d", detail);

  const std::vector<std::vector<std::string>> key_sets = {
      {"g"}, {"fk"}, {"h"}, {"h", "fk", "g"}, {}};
  for (int q = 0; q < 6; ++q) {
    bool never_true = false;
    BaseQuery query{"d", key_sets[rng.Uniform(key_sets.size())],
                    rng.Bernoulli(0.75), RandomBaseWhere(&rng, &never_true)};
    const std::vector<uint8_t> expected = Bytes(BaseOracle(detail, query));
    const std::string label = "seed=" + std::to_string(seed) + " " +
                              query.ToString();

    EXPECT_EQ(Bytes(query.Execute(catalog).ValueOrDie()), expected)
        << label << " catalog";
    // Memory-backed, twice each: the second run sees the chunk stats the
    // first one built, so pruning applies.
    for (size_t chunk_rows : {size_t{16}, kDefaultChunkRows}) {
      MemoryDataProvider memory(resident, chunk_rows);
      for (int pass = 0; pass < 2; ++pass) {
        EXPECT_EQ(Bytes(query.Execute(memory).ValueOrDie()), expected)
            << label << " chunk_rows=" << chunk_rows << " pass=" << pass;
      }
    }
    // Chunk-paged at an unlimited, a tight and a 1-byte budget, pruning
    // on and off.
    for (uint64_t budget : {uint64_t{0}, uint64_t{2048}, uint64_t{1}}) {
      for (bool pruning : {true, false}) {
        auto buffers = std::make_shared<BufferManager>(budget);
        auto provider = ChunkFileDataProvider::Open(path, buffers).ValueOrDie();
        EvalContext context;
        context.chunk_pruning = pruning;
        EvalProfile profile;
        context.profile = &profile;
        Table scanned = query.Execute(*provider, context).ValueOrDie();
        EXPECT_EQ(Bytes(scanned), expected)
            << label << " budget=" << budget << " pruning=" << pruning
            << "\noracle:\n" << BaseOracle(detail, query).ToString(30)
            << "scan:\n" << scanned.ToString(30);
        EXPECT_EQ(profile.engines_used.load(), kEngineBitColumnar);
        // A false constant conjunct pins nothing; otherwise every chunk
        // is pinned once or pruned, each pin loads the pages the query
        // reads, and only pinned rows count as scanned.
        const uint64_t pruned = profile.chunks_pruned.load();
        const uint64_t misses = buffers->stats().misses;
        if (!pruning || never_true) {
          EXPECT_EQ(pruned, 0u) << label;
        }
        const uint64_t pages = BaseReadPages(query, *detail.schema());
        EXPECT_EQ(misses,
                  never_true ? 0 : (provider->num_chunks() - pruned) * pages)
            << label << " budget=" << budget << " pruning=" << pruning;
        EXPECT_EQ(profile.pages_loaded.load(), misses) << label;
        EXPECT_EQ(profile.bytes_loaded.load(), buffers->stats().loaded_bytes)
            << label;
        if (pruned == 0) {
          EXPECT_EQ(profile.rows_scanned.load(),
                    never_true ? 0 : detail.num_rows())
              << label;
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaseQueryDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{18}));

// --- Fused Prop. 2 rounds: one pass equals the base scan, then md1 ---------

// How a fused-round case departs from the shape the one-pass kernel
// takes. Every departure must fall back to the base scan and then the
// GMDJ kernel, inside the same call.
enum class FusedShape {
  kFused = 0,
  kExtraEquality,     // an equality atom beyond r.k = b.k
  kBaseOnly,          // a conjunct over the base side alone
  kCorrelated,        // a conjunct over both sides
  kMissingKey,        // θ leaves a base column unconstrained
  kBaseWhere,         // the base query has a WHERE (not Prop. 2)
  kRowEngine,         // the row oracle evaluates the GMDJ
  kNumShapes,
};

const char* ShapeName(FusedShape shape) {
  static const char* kNames[] = {"fused",       "extra-equality",
                                 "base-only",   "correlated",
                                 "missing-key", "base-where",
                                 "row-engine"};
  return kNames[static_cast<int>(shape)];
}

// One detail-only conjunct over MakeBaseDetail's columns: none, a range
// that prunes some chunks of the clustered (odd-seed) relations, one
// that prunes every chunk, and unprunable typed / generic ones.
ExprPtr RandomFusedConjunct(Random* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return Gt(RCol("iv"), Lit(Value(rng->UniformInt(-25, 25))));
    case 1:
      return Gt(RCol("iv"), Lit(Value(int64_t{1000})));  // prunes all
    case 2:
      return Ne(RCol("h"), Lit(Value("y")));
    case 3:
      return Le(RCol("fk"), Lit(Value(1.5)));
    case 4:
      return Not(Lt(RCol("fk"), Lit(Value(0.5))));  // generic
    default:
      return nullptr;
  }
}

// A GMDJ block whose θ is the key equalities (shuffled) plus 0-2
// detail-only conjuncts, bent into `shape`.
GmdjBlock FusedBlock(const std::vector<std::string>& keys, FusedShape shape,
                     size_t b, Random* rng) {
  std::vector<ExprPtr> conjuncts;
  const size_t skip =
      shape == FusedShape::kMissingKey ? rng->Uniform(keys.size()) : SIZE_MAX;
  for (size_t k = 0; k < keys.size(); ++k) {
    if (k != skip) conjuncts.push_back(Eq(RCol(keys[k]), BCol(keys[k])));
  }
  for (size_t i = rng->Uniform(3); i > 0; --i) {
    if (ExprPtr c = RandomFusedConjunct(rng)) conjuncts.push_back(c);
  }
  switch (shape) {
    case FusedShape::kExtraEquality:
      conjuncts.push_back(
          Eq(RCol(keys[0] == "iv" ? "g" : "iv"), BCol(keys[0])));
      break;
    case FusedShape::kBaseOnly:
      conjuncts.push_back(Ne(BCol(keys.back()), Lit(Value(int64_t{3}))));
      break;
    case FusedShape::kCorrelated:
      conjuncts.push_back(Le(RCol(keys[0]), BCol(keys[0])));
      break;
    default:
      break;
  }
  if (conjuncts.empty()) {  // a single key left out
    conjuncts.push_back(Ge(RCol("g"), Lit(Value(int64_t{0}))));
  }
  for (size_t i = conjuncts.size(); i > 1; --i) {
    std::swap(conjuncts[i - 1], conjuncts[rng->Uniform(i)]);
  }
  ExprPtr theta;
  for (ExprPtr& c : conjuncts) {
    theta = theta == nullptr ? std::move(c)
                             : And(std::move(theta), std::move(c));
  }
  GmdjBlock block{{{AggKind::kCountStar, "", "c"},
                   {AggKind::kCount, "iv", "ci"},
                   {AggKind::kSum, "iv", "si"},
                   {AggKind::kAvg, "iv", "ai"},
                   {AggKind::kSum, "fk", "sf"},
                   {AggKind::kMin, "fk", "lf"},
                   {AggKind::kMax, "iv", "hi"}},
                  theta};
  for (AggSpec& agg : block.aggs) agg.output += std::to_string(b);
  return block;
}

// Distinct key columns a query's pins read on every chunk.
size_t KeyPages(const std::vector<std::string>& keys) {
  return std::set<std::string>(keys.begin(), keys.end()).size();
}

class FusedBaseRoundDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    dir_ = "/tmp/skalla_engine_differential_test";
    mkdir(dir_.c_str(), 0755);
  }
  std::string dir_;
};

TEST_P(FusedBaseRoundDifferentialTest, OnePassMatchesBaseThenGmdj) {
  const uint64_t seed = GetParam();
  Random rng(seed * 15485863 + 11);
  const size_t rows = seed % 11 == 6 ? 0 : 120 + seed * 53;
  Table detail = MakeBaseDetail(seed, rows);
  auto resident = std::make_shared<const Table>(detail);
  const std::string path = dir_ + "/fused_" + std::to_string(seed) + ".skc";
  WriteChunkFile(detail, path, /*chunk_rows=*/32).Check();
  Catalog catalog;
  catalog.Register("d", detail);

  const std::vector<std::vector<std::string>> key_sets = {
      {"g"}, {"fk"}, {"h"}, {"h", "fk", "g"}, {"iv", "h"}};
  for (int s = 0; s < static_cast<int>(FusedShape::kNumShapes); ++s) {
    const FusedShape shape = static_cast<FusedShape>(s);
    // Across the seeds every shape meets every key set: int, float
    // (NULL, -0.0, 0.0, NaN), string (NULL) and multi-column keys.
    const std::vector<std::string>& keys =
        key_sets[(seed + static_cast<uint64_t>(s)) % key_sets.size()];
    BaseQuery query{"d", keys, true, nullptr};
    if (shape == FusedShape::kBaseWhere) {
      query.where = Gt(RCol("iv"), Lit(Value(int64_t{0})));
    }
    GmdjOp op;
    op.detail_table = "d";
    const size_t blocks = 1 + rng.Uniform(3);  // single and coalesced
    for (size_t b = 0; b < blocks; ++b) {
      op.blocks.push_back(FusedBlock(keys, shape, b, &rng));
    }
    const bool fuses =
        shape == FusedShape::kFused || shape == FusedShape::kRowEngine;
    EXPECT_EQ(FusesBaseQuery(query, op), fuses) << ShapeName(shape);
    const EvalEngine engine = shape == FusedShape::kRowEngine
                                  ? EvalEngine::kRow
                                  : EvalEngine::kColumnar;

    for (bool sub : {false, true}) {
      for (bool compute_rng : {false, true}) {
        EvalContext context;
        context.sub_aggregates = sub;
        context.compute_rng = compute_rng;
        context.engine = engine;
        const std::string label =
            "seed=" + std::to_string(seed) + " " + ShapeName(shape) + " " +
            query.ToString() + " blocks=" + std::to_string(blocks) +
            " sub=" + std::to_string(sub) +
            " rng=" + std::to_string(compute_rng);

        // Base + md1 run separately: the reference, itself pinned to the
        // row oracle.
        Table b = query.Execute(catalog).ValueOrDie();
        EvalContext columnar = context;
        columnar.engine = EvalEngine::kColumnar;
        const std::vector<uint8_t> expected =
            Bytes(EvaluateGmdj(b, op, catalog, columnar).ValueOrDie());
        ASSERT_EQ(Bytes(EvalGmdj(b, detail, op, context).ValueOrDie()),
                  expected)
            << label << " oracle";

        {
          EvalProfile profile;
          EvalContext run = context;
          run.profile = &profile;
          EXPECT_EQ(Bytes(EvaluateBaseAndGmdj(query, op, catalog, run)
                              .ValueOrDie()),
                    expected)
              << label << " resident";
          EXPECT_EQ(profile.fused_base.load(), shape == FusedShape::kFused)
              << label;
          EXPECT_EQ(profile.engines_used.load(),
                    engine == EvalEngine::kRow ? kEngineBitRow
                                               : kEngineBitColumnar)
              << label;
        }
        for (size_t chunk_rows : {size_t{16}, kDefaultChunkRows}) {
          Catalog memory;
          memory.RegisterProvider(
              "d", std::make_shared<MemoryDataProvider>(resident, chunk_rows));
          EXPECT_EQ(Bytes(EvaluateBaseAndGmdj(query, op, memory, context)
                              .ValueOrDie()),
                    expected)
              << label << " chunk_rows=" << chunk_rows;
        }
        for (uint64_t budget : {uint64_t{1}, uint64_t{2048}, uint64_t{0}}) {
          for (bool pruning : {true, false}) {
            auto buffers = std::make_shared<BufferManager>(budget);
            Catalog paged;
            paged.RegisterProvider(
                "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
            EvalProfile profile;
            EvalContext run = context;
            run.chunk_pruning = pruning;
            run.profile = &profile;
            Table fused =
                EvaluateBaseAndGmdj(query, op, paged, run).ValueOrDie();
            EXPECT_EQ(Bytes(fused), expected)
                << label << " budget=" << budget << " pruning=" << pruning
                << "\nfused:\n" << fused.ToString(30);
            EXPECT_EQ(profile.pages_loaded.load(), buffers->stats().misses)
                << label;
            if (shape == FusedShape::kFused) {
              // One pass: every chunk's key pages load once (B has no
              // WHERE), never more pages than the chunk's read set.
              const uint64_t chunks = paged.GetProvider("d").ValueOrDie()
                                          ->num_chunks();
              EXPECT_GE(buffers->stats().misses, chunks * KeyPages(keys))
                  << label;
              EXPECT_LE(buffers->stats().misses,
                        chunks * detail.num_columns())
                  << label;
            }
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedBaseRoundDifferentialTest,
                         ::testing::Range(uint64_t{0}, uint64_t{16}));

TEST(FusedBaseRoundTest, PrunedBlocksPinOnlyTheKeyPages) {
  // A fused round reads the key pages of every chunk — the base has no
  // WHERE to prune by — and a block's other pages only where its stats
  // do not prune it: with every chunk pruned, only the key pages load.
  Table detail = MakeBaseDetail(/*seed=*/3, 480);  // iv clustered by row
  const std::string path =
      "/tmp/skalla_engine_differential_test_fused_pruned.skc";
  WriteChunkFile(detail, path, /*chunk_rows=*/32).Check();
  BaseQuery query{"d", {"h", "g"}, true, nullptr};
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kSum, "fk", "sf"}},
      And(And(Eq(RCol("g"), BCol("g")), Eq(RCol("h"), BCol("h"))),
          Gt(RCol("iv"), Lit(Value(int64_t{1000}))))});
  Catalog resident;
  resident.Register("d", detail);
  Table b = query.Execute(resident).ValueOrDie();
  const std::vector<uint8_t> expected =
      Bytes(EvaluateGmdj(b, op, resident).ValueOrDie());
  for (bool pruning : {true, false}) {
    auto buffers = std::make_shared<BufferManager>(/*budget=*/1);
    Catalog paged;
    paged.RegisterProvider(
        "d", ChunkFileDataProvider::Open(path, buffers).ValueOrDie());
    const uint64_t chunks = paged.GetProvider("d").ValueOrDie()->num_chunks();
    EvalProfile profile;
    EvalContext context;
    context.chunk_pruning = pruning;
    context.profile = &profile;
    Table fused = EvaluateBaseAndGmdj(query, op, paged, context).ValueOrDie();
    EXPECT_EQ(Bytes(fused), expected) << "pruning=" << pruning;
    EXPECT_EQ(profile.fused_base.load(), 1u);
    EXPECT_EQ(profile.rows_scanned.load(), detail.num_rows());
    // g, h always; fk and iv only for unpruned chunks.
    EXPECT_EQ(buffers->stats().misses, chunks * (pruning ? 2 : 4))
        << "pruning=" << pruning;
    EXPECT_EQ(profile.chunks_pruned.load(), pruning ? chunks : 0)
        << "pruning=" << pruning;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skalla
