// Columnar storage and the vectorized GMDJ evaluator: exact agreement
// with the row oracle across random data (including NULLs), engine
// routing through core::EvaluateGmdj, and end-to-end distributed
// execution with columnar vs row sites.

#include <gtest/gtest.h>

#include "columnar/predicate_eval.h"
#include "columnar/vector_eval.h"
#include "common/random.h"
#include "core/evaluate.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "relalg/operators.h"
#include "rpc/rpc_executor.h"
#include "rpc/transport.h"
#include "storage/catalog.h"
#include "storage/data_provider.h"
#include "storage/partition.h"

namespace skalla {
namespace {

std::vector<uint8_t> Bytes(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return bytes;
}

Table MakeDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kString},
                                   {"iv", ValueType::kInt64},
                                   {"dv", ValueType::kFloat64}})
                         .ValueOrDie();
  const char* labels[] = {"x", "y", "z"};
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng.UniformInt(0, 7)),
               Value(std::string(labels[rng.Uniform(3)])),
               Value(rng.UniformInt(-50, 50)),
               Value(rng.NextDouble() * 10 - 5)};
    if (rng.Bernoulli(0.1)) row[2] = Value::Null();
    if (rng.Bernoulli(0.1)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

TEST(ColumnTest, TypedStorageAndBoxing) {
  Column c(ValueType::kInt64);
  c.Append(Value(42)).Check();
  c.Append(Value::Null()).Check();
  c.Append(Value(7.0)).Check();  // Integral double is fine.
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.Int64At(0), 42);
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.Int64At(2), 7);
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_EQ(c.GetValue(0).int64(), 42);

  EXPECT_TRUE(c.Append(Value(2.5)).IsTypeError());
  EXPECT_TRUE(c.Append(Value("no")).IsTypeError());

  Column s(ValueType::kString);
  s.Append(Value("abc")).Check();
  EXPECT_TRUE(s.Append(Value(1)).IsTypeError());
  EXPECT_EQ(s.StringAt(0), "abc");
}

TEST(ColumnTest, HashMatchesValueHash) {
  Column i(ValueType::kInt64);
  i.Append(Value(99)).Check();
  i.Append(Value::Null()).Check();
  EXPECT_EQ(i.HashAt(0), Value(99).Hash());
  EXPECT_EQ(i.HashAt(1), Value::Null().Hash());
  Column d(ValueType::kFloat64);
  d.Append(Value(99.0)).Check();
  d.Append(Value(2.5)).Check();
  EXPECT_EQ(d.HashAt(0), Value(99).Hash());  // Integral double == int.
  EXPECT_EQ(d.HashAt(1), Value(2.5).Hash());
  Column s(ValueType::kString);
  s.Append(Value("k")).Check();
  EXPECT_EQ(s.HashAt(0), Value("k").Hash());
}

TEST(EvaluateGmdjTest, EngineRoutingAndReporting) {
  Table detail = MakeDetail(5, 120);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kSum, "iv", "s"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("iv"), Lit(Value(0))))});

  auto run = [&](EvalEngine engine) {
    EvalProfile profile;
    EvalContext context;
    context.engine = engine;
    context.profile = &profile;
    Table out = EvaluateGmdj(base, op, catalog, context).ValueOrDie();
    return std::make_pair(std::move(out),
                          profile.engines_used.load());
  };

  // The default engine on a resident relation that was never warmed is
  // the columnar kernel, streaming the provider's lazily built chunks.
  EXPECT_EQ(EvalContext{}.engine, EvalEngine::kColumnar);
  auto [col_out, col_bits] = run(EvalContext{}.engine);
  EXPECT_EQ(col_bits, kEngineBitColumnar);

  // Both oracle modes run the row kernel, report it, and agree byte for
  // byte with the columnar result.
  for (EvalEngine engine : {EvalEngine::kRow, EvalEngine::kNestedLoop}) {
    auto [oracle_out, oracle_bits] = run(engine);
    EXPECT_EQ(oracle_bits, kEngineBitRow) << EvalEngineName(engine);
    EXPECT_EQ(Bytes(oracle_out), Bytes(col_out)) << EvalEngineName(engine);
  }
}

class VectorEvalEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(VectorEvalEquivalenceTest, MatchesRowEngine) {
  Table detail = MakeDetail(GetParam(), 150 + GetParam() * 13);
  // Small chunks, so the kernel folds across chunk boundaries.
  MemoryDataProvider columnar(std::make_shared<const Table>(detail),
                              /*chunk_rows=*/64);
  Table base = Project(detail, {"g", "h"}, true).ValueOrDie();
  // Add a base row with no matches.
  base.AppendUnchecked({Value(int64_t{999}), Value("none")});

  GmdjOp op;
  op.detail_table = "d";
  ExprPtr theta = And(Eq(RCol("g"), BCol("g")), Eq(RCol("h"), BCol("h")));
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                 {AggKind::kCount, "iv", "ci"},
                                 {AggKind::kSum, "iv", "si"},
                                 {AggKind::kSum, "dv", "sd"},
                                 {AggKind::kAvg, "iv", "ai"},
                                 {AggKind::kMin, "dv", "lo"},
                                 {AggKind::kMax, "iv", "hi"},
                                 {AggKind::kVarPop, "iv", "vp"},
                                 {AggKind::kStdDevPop, "iv", "sp"}},
                                theta});
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "per_g"}},
                Eq(RCol("g"), BCol("g"))});

  for (bool sub : {false, true}) {
    for (bool rng : {false, true}) {
      EvalContext options;
      options.sub_aggregates = sub;
      options.compute_rng = rng;
      Table row_result = EvalGmdj(base, detail, op, options).ValueOrDie();
      Table col_result =
          EvalGmdjColumnar(base, columnar, op, options).ValueOrDie();
      EXPECT_TRUE(col_result.SameRows(row_result))
          << "sub=" << sub << " rng=" << rng << "\nrow:\n"
          << row_result.ToString(40) << "columnar:\n"
          << col_result.ToString(40);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorEvalEquivalenceTest,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

TEST(VectorEvalTest, ResidualConjunctsMatchRowEngine) {
  Table detail = MakeDetail(3, 50);
  MemoryDataProvider columnar(std::make_shared<const Table>(detail));
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("iv"), Lit(Value(0))))});
  Table row_result = EvalGmdj(base, detail, op).ValueOrDie();
  Table col_result = EvalGmdjColumnar(base, columnar, op).ValueOrDie();
  EXPECT_TRUE(col_result.SameRows(row_result));
}

TEST(PredicateCompileTest, PartitionInfoSuppliesRangeHints) {
  // A site's ColumnDistribution [min, max] flows through
  // ColRangeFromPartition into conjunct selectivity ordering.
  PartitionInfo info(2);
  ColumnDistribution iv;
  iv.min = 0.0;
  iv.max = 100.0;
  info.SetDistribution(0, "iv", iv);
  auto hints = ColRangeFromPartition(info, 0);
  ASSERT_TRUE(hints("iv").has_value());
  EXPECT_EQ(hints("iv")->lo, 0.0);
  EXPECT_EQ(hints("iv")->hi, 100.0);
  EXPECT_FALSE(hints("missing").has_value());
  // Site 1 recorded nothing.
  EXPECT_FALSE(ColRangeFromPartition(info, 1)("iv").has_value());

  // With the hint, `iv > 95` (accepts 5%) must order before `iv > 10`
  // (accepts 90%) in the compiled predicate.
  SchemaPtr detail_schema = Schema::Make({{"g", ValueType::kInt64},
                                          {"iv", ValueType::kInt64}})
                                .ValueOrDie();
  SchemaPtr base_schema =
      Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  ExprPtr theta = And(And(Eq(RCol("g"), BCol("g")),
                          Gt(RCol("iv"), Lit(Value(int64_t{10})))),
                      Gt(RCol("iv"), Lit(Value(int64_t{95}))));
  CompiledPredicate pred =
      CompilePredicate(ClassifyCondition(theta), *base_schema, *detail_schema,
                       hints)
          .ValueOrDie();
  ASSERT_EQ(pred.detail.size(), 2u);
  EXPECT_EQ(pred.detail[0].ilit, 95);
  EXPECT_EQ(pred.detail[1].ilit, 10);
  EXPECT_LT(pred.detail[0].selectivity, pred.detail[1].selectivity);
}

TEST(ColumnarSitesTest, DistributedExecutionMatches) {
  // The warehouse's sites evaluate with the default columnar kernel;
  // sites built over the same partitions with the row oracle run the
  // same plans. Answers must agree byte for byte.
  Table detail = MakeDetail(17, 900);
  DistributedWarehouse col_dw(4);
  col_dw.AddTablePartitionedBy("d", detail, "g", {"h", "iv"}).Check();
  std::vector<Site> row_sites;
  std::vector<Table> parts = PartitionByValue(detail, "g", 4).ValueOrDie();
  for (size_t i = 0; i < parts.size(); ++i) {
    Catalog catalog;
    catalog.Register("d", std::move(parts[i]));
    row_sites.emplace_back(static_cast<int>(i), std::move(catalog),
                           EvalEngine::kRow);
  }
  rpc::RpcExecutor row_exec(
      std::make_unique<rpc::InProcessTransport>(std::move(row_sites)), {});

  // Mixed query: md1 pure equality (grouped kernels at the sites), md2
  // correlated (candidate-filter kernels) — both vectorized now.
  GmdjExpr expr;
  expr.base = BaseQuery{"d", {"g"}, true, nullptr};
  GmdjOp md1;
  md1.detail_table = "d";
  md1.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c1"}, {AggKind::kSum, "iv", "s1"}},
      Eq(RCol("g"), BCol("g"))});
  GmdjOp md2;
  md2.detail_table = "d";
  md2.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c2"}},
      And(Eq(RCol("g"), BCol("g")), Ge(RCol("iv"), BCol("s1")))});
  expr.ops = {md1, md2};

  for (const OptimizerOptions& opts :
       {OptimizerOptions::None(), OptimizerOptions::All()}) {
    ExecStats row_stats, col_stats;
    DistributedPlan plan = col_dw.Plan(expr, opts).ValueOrDie();
    Table row_result = row_exec.Execute(plan, &row_stats).ValueOrDie();
    Table col_result = col_dw.ExecutePlan(plan, &col_stats).ValueOrDie();
    EXPECT_EQ(Bytes(col_result), Bytes(row_result))
        << "opts=" << opts.ToString();
    EXPECT_EQ(row_stats.engines_used, kEngineBitRow);
    EXPECT_EQ(col_stats.engines_used, kEngineBitColumnar);
  }
}

}  // namespace
}  // namespace skalla
