// Pipeline fuzzer: randomly generated schemas, data, GMDJ expressions
// (random condition shapes: equality atoms, constants, correlated
// comparisons, disjunctions), random partitionings and random optimizer
// configurations — every combination must agree with the naive
// nested-loop centralized oracle.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "dist/warehouse.h"
#include "expr/analysis.h"
#include "expr/builder.h"
#include "storage/partition.h"

namespace skalla {
namespace {

struct FuzzCase {
  Table detail;
  GmdjExpr expr;
  std::string description;
};

// Random detail relation: g0/g1 grouping columns, m0/m1 measures.
Table MakeDetail(Random* rng) {
  SchemaPtr schema = Schema::Make({{"g0", ValueType::kInt64},
                                   {"g1", ValueType::kInt64},
                                   {"m0", ValueType::kInt64},
                                   {"m1", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  size_t rows = 30 + rng->Uniform(150);
  int64_t g0_card = 2 + static_cast<int64_t>(rng->Uniform(8));
  int64_t g1_card = 2 + static_cast<int64_t>(rng->Uniform(4));
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng->UniformInt(0, g0_card - 1)),
               Value(rng->UniformInt(0, g1_card - 1)),
               Value(rng->UniformInt(-30, 30)),
               Value(rng->NextDouble() * 40 - 20)};
    if (rng->Bernoulli(0.06)) row[2] = Value::Null();
    if (rng->Bernoulli(0.06)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

// A random extra conjunct beyond the grouping equalities.
ExprPtr RandomResidual(Random* rng, bool allow_correlated,
                       const std::vector<std::string>& generated) {
  switch (rng->Uniform(allow_correlated && !generated.empty() ? 4 : 3)) {
    case 0:  // measure vs constant.
      return Ge(RCol("m0"), Lit(Value(rng->UniformInt(-10, 10))));
    case 1:  // strict comparison on the float measure.
      return Lt(RCol("m1"), Lit(Value(rng->NextDouble() * 20 - 10)));
    case 2:  // disjunction of two constants on g1.
      return Or(Eq(RCol("g1"), Lit(Value(rng->UniformInt(0, 2)))),
                Eq(RCol("g1"), Lit(Value(rng->UniformInt(0, 2)))));
    default: {  // correlated: measure vs previously generated aggregate.
      const std::string& ref =
          generated[rng->Uniform(generated.size())];
      return Ge(RCol("m0"), BCol(ref));
    }
  }
}

// Integer-only aggregates: exact equality holds under any association
// order, so the oracle comparison can be strict.
AggSpec RandomAgg(Random* rng, int index) {
  std::string name = StrCat("a", index);
  // VAR over small integers: the SUMSQ part sums integers exactly in
  // doubles, so strict equality with the oracle still holds.
  switch (rng->Uniform(6)) {
    case 0:
      return {AggKind::kCountStar, "", name};
    case 1:
      return {AggKind::kCount, "m0", name};
    case 2:
      return {AggKind::kSum, "m0", name};
    case 3:
      return {AggKind::kMin, "m0", name};
    case 4:
      return {AggKind::kVarPop, "m0", name};
    default:
      return {AggKind::kMax, "m0", name};
  }
}

FuzzCase MakeCase(uint64_t seed) {
  Random rng(seed);
  FuzzCase fuzz;
  fuzz.detail = MakeDetail(&rng);

  bool two_group_cols = rng.Bernoulli(0.5);
  std::vector<std::string> group_cols = {"g0"};
  if (two_group_cols) group_cols.push_back("g1");

  fuzz.expr.base = BaseQuery{"d", group_cols, true, nullptr};
  if (rng.Bernoulli(0.3)) {
    fuzz.expr.base.where = Ge(RCol("m0"), Lit(Value(rng.UniformInt(-5, 5))));
  }

  size_t num_ops = 1 + rng.Uniform(3);
  std::vector<std::string> generated;
  int agg_index = 0;
  for (size_t k = 0; k < num_ops; ++k) {
    GmdjOp op;
    op.detail_table = "d";
    size_t num_blocks = 1 + rng.Uniform(2);
    for (size_t bi = 0; bi < num_blocks; ++bi) {
      std::vector<ExprPtr> conjuncts;
      for (const std::string& col : group_cols) {
        conjuncts.push_back(Eq(RCol(col), BCol(col)));
      }
      if (rng.Bernoulli(0.7)) {
        conjuncts.push_back(RandomResidual(&rng, k > 0, generated));
      }
      GmdjBlock block;
      block.theta = MakeConjunction(std::move(conjuncts));
      size_t num_aggs = 1 + rng.Uniform(2);
      for (size_t a = 0; a < num_aggs; ++a) {
        block.aggs.push_back(RandomAgg(&rng, agg_index++));
      }
      op.blocks.push_back(std::move(block));
    }
    for (const GmdjBlock& block : op.blocks) {
      for (const AggSpec& spec : block.aggs) generated.push_back(spec.output);
    }
    fuzz.expr.ops.push_back(std::move(op));
  }
  fuzz.description =
      StrCat("seed=", seed, " ops=", num_ops, " ", fuzz.expr.ToString());
  return fuzz;
}

class PipelineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineFuzzTest, AllConfigurationsMatchNaiveOracle) {
  uint64_t seed = GetParam();
  FuzzCase fuzz = MakeCase(seed);
  Random rng(seed * 31 + 7);

  // Naive oracle: nested loops, centralized.
  Catalog central;
  central.Register("d", fuzz.detail);
  EvalContext oracle_context;
  oracle_context.engine = EvalEngine::kNestedLoop;
  Table oracle =
      EvalCentralized(fuzz.expr, central, oracle_context).ValueOrDie();

  for (int trial = 0; trial < 3; ++trial) {
    size_t sites = 1 + rng.Uniform(5);
    bool by_attr = rng.Bernoulli(0.5);
    DistributedWarehouse dw(sites);
    std::vector<Table> parts =
        (by_attr ? PartitionByValue(fuzz.detail, "g0", sites)
                 : PartitionRoundRobin(fuzz.detail, sites))
            .ValueOrDie();
    dw.AddPartitionedTable("d", std::move(parts),
                           {"g0", "g1", "m0", "m1"})
        .Check();

    OptimizerOptions opts;
    opts.coalescing = rng.Bernoulli(0.5);
    opts.indep_group_reduction = rng.Bernoulli(0.5);
    opts.aware_group_reduction = rng.Bernoulli(0.5);
    opts.sync_reduction = rng.Bernoulli(0.5);

    auto result = dw.Execute(fuzz.expr, opts, nullptr);
    ASSERT_TRUE(result.ok())
        << fuzz.description << "\n"
        << result.status().ToString();
    EXPECT_TRUE(result->SameRows(oracle))
        << fuzz.description << "\nsites=" << sites
        << " by_attr=" << by_attr << " opts=" << opts.ToString()
        << "\nplan:\n"
        << dw.Plan(fuzz.expr, opts).ValueOrDie().ToString(sites)
        << "oracle:\n"
        << oracle.ToString(60) << "actual:\n"
        << result->ToString(60);
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzzTest,
                         ::testing::Range(uint64_t{0}, uint64_t{60}));

}  // namespace
}  // namespace skalla
