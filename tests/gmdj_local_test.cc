// Tests for local GMDJ evaluation, including the paper's Example 1 and the
// index-vs-naive equivalence property.

#include "core/local_eval.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "expr/builder.h"
#include "relalg/operators.h"

namespace skalla {
namespace {

// Builds the paper's Flow-like detail table:
//   (SAS, DAS, NB) with deterministic contents.
Table MakeFlow() {
  SchemaPtr schema = Schema::Make({{"SAS", ValueType::kInt64},
                                   {"DAS", ValueType::kInt64},
                                   {"NB", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  // Group (1,1): NB 10, 20, 30 -> avg 20, two >= avg.
  t.Append({Value(1), Value(1), Value(10)}).Check();
  t.Append({Value(1), Value(1), Value(20)}).Check();
  t.Append({Value(1), Value(1), Value(30)}).Check();
  // Group (1,2): NB 5 -> avg 5, one >= avg.
  t.Append({Value(1), Value(2), Value(5)}).Check();
  // Group (2,1): NB 8, 12 -> avg 10, one >= avg.
  t.Append({Value(2), Value(1), Value(8)}).Check();
  t.Append({Value(2), Value(1), Value(12)}).Check();
  return t;
}

ExprPtr GroupCondition() {
  return And(Eq(RCol("SAS"), BCol("SAS")), Eq(RCol("DAS"), BCol("DAS")));
}

GmdjOp FirstOp() {
  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "cnt1"}, {AggKind::kSum, "NB", "sum1"}},
      GroupCondition()});
  return op;
}

GmdjOp SecondOp() {
  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "cnt2"}},
                And(GroupCondition(),
                    Ge(RCol("NB"), Div(BCol("sum1"), BCol("cnt1"))))});
  return op;
}

class GmdjLocalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flow_ = MakeFlow();
    catalog_.Register("flow", flow_);
  }

  Table flow_;
  Catalog catalog_;
};

TEST_F(GmdjLocalTest, Example1FullEvaluation) {
  GmdjExpr expr;
  expr.base = BaseQuery{"flow", {"SAS", "DAS"}, /*distinct=*/true, nullptr};
  expr.ops = {FirstOp(), SecondOp()};

  Table result = EvalCentralized(expr, catalog_).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 3u);
  // Schema: SAS, DAS, cnt1, sum1, cnt2.
  ASSERT_EQ(result.num_columns(), 5u);
  result.SortRowsBy({0, 1});

  // (1,1): cnt1=3, sum1=60, cnt2=2 (20 and 30 >= avg 20).
  EXPECT_EQ(result.at(0, 2).int64(), 3);
  EXPECT_EQ(result.at(0, 3).int64(), 60);
  EXPECT_EQ(result.at(0, 4).int64(), 2);
  // (1,2): cnt1=1, sum1=5, cnt2=1.
  EXPECT_EQ(result.at(1, 2).int64(), 1);
  EXPECT_EQ(result.at(1, 3).int64(), 5);
  EXPECT_EQ(result.at(1, 4).int64(), 1);
  // (2,1): cnt1=2, sum1=20, cnt2=1 (12 >= 10).
  EXPECT_EQ(result.at(2, 2).int64(), 2);
  EXPECT_EQ(result.at(2, 3).int64(), 20);
  EXPECT_EQ(result.at(2, 4).int64(), 1);
}

TEST_F(GmdjLocalTest, EmptyGroupGetsZeroCountNullSum) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}, {"DAS", ValueType::kInt64}})
          .ValueOrDie();
  Table base(base_schema);
  base.Append({Value(99), Value(99)}).Check();  // No matching flow rows.
  Table result = EvalGmdj(base, flow_, FirstOp()).ValueOrDie();
  ASSERT_EQ(result.num_rows(), 1u);
  EXPECT_EQ(result.at(0, 2).int64(), 0);
  EXPECT_TRUE(result.at(0, 3).is_null());
}

TEST_F(GmdjLocalTest, AvgMinMaxAggregates) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  base.Append({Value(1)}).Check();
  base.Append({Value(2)}).Check();

  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kAvg, "NB", "avg_nb"},
                                 {AggKind::kMin, "NB", "min_nb"},
                                 {AggKind::kMax, "NB", "max_nb"}},
                                Eq(RCol("SAS"), BCol("SAS"))});
  Table result = EvalGmdj(base, flow_, op).ValueOrDie();
  result.SortRowsBy({0});
  // SAS=1 rows: NB 10,20,30,5 -> avg 16.25, min 5, max 30.
  EXPECT_DOUBLE_EQ(result.at(0, 1).float64(), 16.25);
  EXPECT_EQ(result.at(0, 2).int64(), 5);
  EXPECT_EQ(result.at(0, 3).int64(), 30);
  // SAS=2 rows: NB 8,12 -> avg 10.
  EXPECT_DOUBLE_EQ(result.at(1, 1).float64(), 10.0);
}

TEST_F(GmdjLocalTest, OverlappingRangesNonEquiCondition) {
  // Non-disjoint RNG sets: count of detail rows with NB >= b.threshold.
  SchemaPtr base_schema =
      Schema::Make({{"threshold", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  base.Append({Value(10)}).Check();
  base.Append({Value(20)}).Check();

  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "cnt"}},
                                Ge(RCol("NB"), BCol("threshold"))});
  Table result = EvalGmdj(base, flow_, op).ValueOrDie();
  result.SortRowsBy({0});
  EXPECT_EQ(result.at(0, 1).int64(), 4);  // 10, 20, 30, 12 >= 10.
  EXPECT_EQ(result.at(1, 1).int64(), 2);  // 20, 30 >= 20.
}

TEST_F(GmdjLocalTest, SubAggregateModeProducesParts) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  base.Append({Value(1)}).Check();

  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kAvg, "NB", "a"}},
                                Eq(RCol("SAS"), BCol("SAS"))});
  EvalContext options;
  options.sub_aggregates = true;
  Table result = EvalGmdj(base, flow_, op, options).ValueOrDie();
  // Schema: SAS, a__sum, a__cnt.
  ASSERT_EQ(result.num_columns(), 3u);
  EXPECT_EQ(result.schema()->field(1).name, "a__sum");
  EXPECT_EQ(result.schema()->field(2).name, "a__cnt");
  EXPECT_EQ(result.at(0, 1).int64(), 65);  // 10+20+30+5.
  EXPECT_EQ(result.at(0, 2).int64(), 4);
}

TEST_F(GmdjLocalTest, RngIndicatorColumn) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  base.Append({Value(1)}).Check();
  base.Append({Value(42)}).Check();  // No matches.

  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}},
                                Eq(RCol("SAS"), BCol("SAS"))});
  EvalContext options;
  options.compute_rng = true;
  Table result = EvalGmdj(base, flow_, op, options).ValueOrDie();
  int rng_idx = result.schema()->IndexOf(kRngCountColumn);
  ASSERT_GE(rng_idx, 0);
  result.SortRowsBy({0});
  EXPECT_EQ(result.at(0, static_cast<size_t>(rng_idx)).int64(), 1);
  EXPECT_EQ(result.at(1, static_cast<size_t>(rng_idx)).int64(), 0);
}

TEST_F(GmdjLocalTest, MissingAggregateInputColumnFails) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  base.Append({Value(1)}).Check();
  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kSum, "NoSuchColumn", "s"}},
                                Eq(RCol("SAS"), BCol("SAS"))});
  auto result = EvalGmdj(base, flow_, op);
  ASSERT_FALSE(result.ok());
}

TEST_F(GmdjLocalTest, MissingConditionFails) {
  SchemaPtr base_schema =
      Schema::Make({{"SAS", ValueType::kInt64}}).ValueOrDie();
  Table base(base_schema);
  GmdjOp op;
  op.detail_table = "flow";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}}, nullptr});
  auto result = EvalGmdj(base, flow_, op);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// Property: indexed evaluation == naive nested-loop evaluation on random
// data, for a mixed equality + inequality condition.
class GmdjIndexEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GmdjIndexEquivalenceTest, IndexMatchesNaive) {
  Random rng(GetParam());
  SchemaPtr detail_schema = Schema::Make({{"g", ValueType::kInt64},
                                          {"h", ValueType::kInt64},
                                          {"v", ValueType::kInt64}})
                                .ValueOrDie();
  Table detail(detail_schema);
  size_t n = 50 + rng.Uniform(100);
  for (size_t i = 0; i < n; ++i) {
    Row row = {Value(rng.UniformInt(0, 5)), Value(rng.UniformInt(0, 3)),
               Value(rng.UniformInt(-20, 20))};
    if (rng.Bernoulli(0.05)) row[2] = Value::Null();
    detail.AppendUnchecked(std::move(row));
  }
  Table base = Project(detail, {"g", "h"}, /*distinct=*/true).ValueOrDie();

  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "c"},
                 {AggKind::kSum, "v", "s"},
                 {AggKind::kAvg, "v", "a"},
                 {AggKind::kMin, "v", "lo"},
                 {AggKind::kMax, "v", "hi"}},
                And(And(Eq(RCol("g"), BCol("g")), Eq(RCol("h"), BCol("h"))),
                    Ge(RCol("v"), Lit(Value(0))))});
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c2"}},
                                Lt(RCol("v"), BCol("g"))});

  EvalContext indexed;
  indexed.engine = EvalEngine::kRow;
  indexed.compute_rng = true;
  EvalContext naive;
  naive.engine = EvalEngine::kNestedLoop;
  naive.compute_rng = true;

  Table via_index = EvalGmdj(base, detail, op, indexed).ValueOrDie();
  Table via_naive = EvalGmdj(base, detail, op, naive).ValueOrDie();
  EXPECT_TRUE(via_index.SameRows(via_naive))
      << "index:\n"
      << via_index.ToString(200) << "\nnaive:\n"
      << via_naive.ToString(200);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GmdjIndexEquivalenceTest,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

}  // namespace
}  // namespace skalla
