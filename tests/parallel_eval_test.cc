// Morsel-parallel evaluation determinism: work decomposition is a pure
// function of EvalContext::morsel_rows, and eval_threads only schedules
// morsels onto workers, so the columnar kernel must produce
// *byte-identical* results at every thread count — and the same bytes
// as the single-threaded row oracle in both its modes — for sub- and
// super-aggregate modes, the __rng indicator, empty inputs, and the full
// query suite end to end. Also covers the EvalContext API surface
// itself: validation, Site's routing of nested-loop requests to the row
// oracle, and the (base_cols, detail_cols) index pairing.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "columnar/vector_eval.h"
#include "common/random.h"
#include "core/evaluate.h"
#include "core/local_eval.h"
#include "data/flow_gen.h"
#include "dist/site.h"
#include "dist/warehouse.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "relalg/operators.h"
#include "sql/parser.h"
#include "storage/data_provider.h"

namespace skalla {
namespace {

// The thread counts every case sweeps: sequential, two workers, and one
// worker per hardware thread (0 resolves to hw).
const size_t kThreadCounts[] = {1, 2, 0};

std::vector<uint8_t> Bytes(const Table& table) {
  std::vector<uint8_t> out;
  WriteTable(table, &out);
  return out;
}

// The row oracle's two modes.
const EvalEngine kOracleModes[] = {EvalEngine::kRow, EvalEngine::kNestedLoop};

// Detail relation large enough to split into several morsels at small
// morsel_rows: int64 group/measure columns plus a float64 measure (the
// type whose sums are sensitive to merge association) and some NULLs.
Table MakeDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kInt64},
                                   {"iv", ValueType::kInt64},
                                   {"dv", ValueType::kFloat64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    Row row = {Value(rng.UniformInt(0, 11)), Value(rng.UniformInt(0, 3)),
               Value(rng.UniformInt(-50, 50)),
               Value(rng.NextDouble() * 10 - 5)};
    if (rng.Bernoulli(0.05)) row[2] = Value::Null();
    if (rng.Bernoulli(0.05)) row[3] = Value::Null();
    t.AppendUnchecked(std::move(row));
  }
  return t;
}

// Two blocks: an indexable equality + residual condition over the full
// aggregate spectrum, and a pure non-equi block (always nested loop).
GmdjOp MixedOp() {
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kCountStar, "", "c"},
                 {AggKind::kCount, "iv", "ci"},
                 {AggKind::kSum, "iv", "si"},
                 {AggKind::kSum, "dv", "sd"},
                 {AggKind::kAvg, "dv", "ad"},
                 {AggKind::kMin, "dv", "lo"},
                 {AggKind::kMax, "iv", "hi"},
                 {AggKind::kVarPop, "iv", "vp"}},
                And(Eq(RCol("g"), BCol("g")),
                    Ge(RCol("iv"), Lit(Value(-30))))});
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "below"}},
                                Lt(RCol("h"), BCol("g"))});
  return op;
}

TEST(ParallelEvalTest, RowKernelByteIdenticalAcrossThreadCounts) {
  // The row oracle is single-threaded, so eval_threads must not move its
  // bytes; the columnar kernel must reproduce them at every thread count.
  Table detail = MakeDetail(7, 1400);  // > kDefaultMorselRows rows.
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  MemoryDataProvider memory(std::make_shared<const Table>(detail),
                            /*chunk_rows=*/256);
  GmdjOp op = MixedOp();

  for (EvalEngine engine : kOracleModes) {
    for (bool sub : {false, true}) {
      for (bool rng : {false, true}) {
        for (size_t morsel_rows : {kDefaultMorselRows, size_t{97}}) {
          EvalContext context;
          context.engine = engine;
          context.sub_aggregates = sub;
          context.compute_rng = rng;
          context.morsel_rows = morsel_rows;

          context.eval_threads = 1;
          Table baseline = EvalGmdj(base, detail, op, context).ValueOrDie();
          std::vector<uint8_t> expected = Bytes(baseline);
          for (size_t threads : kThreadCounts) {
            context.eval_threads = threads;
            Table result = EvalGmdj(base, detail, op, context).ValueOrDie();
            EXPECT_EQ(Bytes(result), expected)
                << EvalEngineName(engine) << " sub=" << sub
                << " rng=" << rng << " morsel_rows=" << morsel_rows
                << " threads=" << threads;
            if (engine != EvalEngine::kRow) continue;
            Table columnar =
                EvalGmdjColumnar(base, memory, op, context).ValueOrDie();
            EXPECT_EQ(Bytes(columnar), expected)
                << "columnar sub=" << sub << " rng=" << rng
                << " morsel_rows=" << morsel_rows << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(ParallelEvalTest, EmptyBaseAndEmptyDetail) {
  Table detail = MakeDetail(11, 300);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Table empty_base(base.schema());
  Table empty_detail(detail.schema());
  GmdjOp op = MixedOp();

  for (EvalEngine engine : kOracleModes) {
    for (size_t threads : kThreadCounts) {
      EvalContext context;
      context.engine = engine;
      context.eval_threads = threads;
      context.compute_rng = true;
      context.morsel_rows = 64;

      Table no_base = EvalGmdj(empty_base, detail, op, context).ValueOrDie();
      EXPECT_EQ(no_base.num_rows(), 0u) << "threads=" << threads;

      Table no_detail =
          EvalGmdj(base, empty_detail, op, context).ValueOrDie();
      ASSERT_EQ(no_detail.num_rows(), base.num_rows())
          << "threads=" << threads;
      // Every base row survives with COUNT 0 and __rng 0.
      int rng_idx = no_detail.schema()->IndexOf(kRngCountColumn);
      ASSERT_GE(rng_idx, 0);
      for (size_t r = 0; r < no_detail.num_rows(); ++r) {
        EXPECT_EQ(no_detail.at(r, 1).int64(), 0) << "row " << r;  // c
        EXPECT_EQ(
            no_detail.at(r, static_cast<size_t>(rng_idx)).int64(), 0)
            << "row " << r;
      }
    }
  }
}

TEST(ParallelEvalTest, MorselRowsZeroIsRejected) {
  Table detail = MakeDetail(3, 50);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = MixedOp();
  EvalContext context;
  context.morsel_rows = 0;
  EXPECT_TRUE(EvalGmdj(base, detail, op, context).status().IsInvalidArgument());
  MemoryDataProvider columnar(std::make_shared<const Table>(detail));
  GmdjOp eligible;
  eligible.detail_table = "d";
  eligible.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"}},
                                      Eq(RCol("g"), BCol("g"))});
  EXPECT_TRUE(EvalGmdjColumnar(base, columnar, eligible, context)
                  .status()
                  .IsInvalidArgument());
}

TEST(ParallelEvalTest, ColumnarKernelByteIdenticalAcrossThreadCounts) {
  Table detail = MakeDetail(13, 1300);
  Table base = Project(detail, {"g", "h"}, true).ValueOrDie();
  MemoryDataProvider columnar(std::make_shared<const Table>(detail),
                              /*chunk_rows=*/200);
  GmdjOp op;
  op.detail_table = "d";
  ExprPtr theta = And(Eq(RCol("g"), BCol("g")), Eq(RCol("h"), BCol("h")));
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                 {AggKind::kSum, "dv", "sd"},
                                 {AggKind::kAvg, "iv", "ai"},
                                 {AggKind::kMin, "dv", "lo"}},
                                theta});
  op.blocks.push_back(
      GmdjBlock{{{AggKind::kMax, "iv", "hi"}}, Eq(RCol("g"), BCol("g"))});

  for (bool sub : {false, true}) {
    for (bool rng : {false, true}) {
      EvalContext context;
      context.sub_aggregates = sub;
      context.compute_rng = rng;
      context.morsel_rows = 128;

      context.eval_threads = 1;
      Table baseline =
          EvalGmdjColumnar(base, columnar, op, context).ValueOrDie();
      std::vector<uint8_t> expected = Bytes(baseline);
      // The columnar path also has to agree with the row engine.
      Table row_result = EvalGmdj(base, detail, op, context).ValueOrDie();
      EXPECT_TRUE(baseline.SameRows(row_result))
          << "sub=" << sub << " rng=" << rng;
      for (size_t threads : kThreadCounts) {
        context.eval_threads = threads;
        Table result =
            EvalGmdjColumnar(base, columnar, op, context).ValueOrDie();
        EXPECT_EQ(Bytes(result), expected)
            << "sub=" << sub << " rng=" << rng << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelEvalTest, SiteRoutesOracleRequestsToRowEngine) {
  Table detail = MakeDetail(17, 200);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  Site site(0, std::move(catalog));

  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kSum, "iv", "si"}},
      Eq(RCol("g"), BCol("g"))});

  EvalProfile columnar_profile;
  EvalContext columnar;
  columnar.profile = &columnar_profile;
  Table via_columnar = site.EvalGmdjRound(base, op, columnar).ValueOrDie();
  EXPECT_EQ(columnar_profile.engines_used.load(), kEngineBitColumnar);

  // A nested-loop request must reach the row oracle, which agrees on
  // results.
  EvalProfile oracle_profile;
  EvalContext oracle;
  oracle.engine = EvalEngine::kNestedLoop;
  oracle.profile = &oracle_profile;
  Table via_oracle = site.EvalGmdjRound(base, op, oracle).ValueOrDie();
  EXPECT_EQ(oracle_profile.engines_used.load(), kEngineBitRow);
  EXPECT_TRUE(via_oracle.SameRows(via_columnar));
}

TEST(ParallelEvalTest, IndexCacheKeyedOnFullPairing) {
  // Two blocks index the same detail columns (g, h) but pair them with
  // swapped base columns — they must not share probe semantics. All
  // aggregates are integer-exact, so the indexed result must match the
  // nested-loop oracle byte for byte.
  Random rng(23);
  SchemaPtr detail_schema = Schema::Make({{"g", ValueType::kInt64},
                                          {"h", ValueType::kInt64},
                                          {"v", ValueType::kInt64}})
                                .ValueOrDie();
  Table detail(detail_schema);
  for (int i = 0; i < 400; ++i) {
    detail.AppendUnchecked({Value(rng.UniformInt(0, 4)),
                            Value(rng.UniformInt(0, 4)),
                            Value(rng.UniformInt(0, 99))});
  }
  SchemaPtr base_schema =
      Schema::Make({{"x", ValueType::kInt64}, {"y", ValueType::kInt64}})
          .ValueOrDie();
  Table base(base_schema);
  for (int x = 0; x < 5; ++x) {
    for (int y = 0; y < 5; ++y) {
      base.AppendUnchecked({Value(int64_t{x}), Value(int64_t{y})});
    }
  }

  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "fwd"}},
      And(Eq(RCol("g"), BCol("x")), Eq(RCol("h"), BCol("y")))});
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "rev"}},
      And(Eq(RCol("g"), BCol("y")), Eq(RCol("h"), BCol("x")))});

  for (size_t threads : kThreadCounts) {
    EvalContext indexed;
    indexed.engine = EvalEngine::kRow;
    indexed.eval_threads = threads;
    EvalContext naive = indexed;
    naive.engine = EvalEngine::kNestedLoop;
    Table via_index = EvalGmdj(base, detail, op, indexed).ValueOrDie();
    Table via_naive = EvalGmdj(base, detail, op, naive).ValueOrDie();
    EXPECT_EQ(Bytes(via_index), Bytes(via_naive)) << "threads=" << threads;
  }
}

// The full flow query battery, each query's operators evaluated one
// after another with the production kernel over a partitioned
// warehouse's central catalog (BaseQuery::Execute, then EvaluateGmdj per
// operator), must come back byte-identical for every eval_threads value.
// Sites evaluate with EvalContext's one-worker default; this pins what a
// site that picks its own worker count would compute.
TEST(ParallelEvalTest, QuerySuiteByteIdenticalAcrossThreadCounts) {
  const char* queries[] = {
      R"(
      BASE SELECT DISTINCT SourceAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS flows, SUM(NumBytes) AS bytes,
                 MAX(NumPackets) AS max_pkts
         WHERE r.SourceAS = b.SourceAS;
      )",
      R"(
      BASE SELECT DISTINCT SourceAS, DestAS FROM flow;
      MD USING flow
         COMPUTE COUNT(*) AS cnt1, SUM(NumBytes) AS sum1
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS;
      MD USING flow
         COMPUTE COUNT(*) AS cnt2
         WHERE r.SourceAS = b.SourceAS AND r.DestAS = b.DestAS
           AND r.NumBytes >= b.sum1 / b.cnt1;
      )",
      R"(
      BASE SELECT DISTINCT SourcePort FROM flow WHERE SourcePort < 1100;
      MD USING flow
         COMPUTE COUNT(*) AS lower_ports, AVG(NumBytes) AS avg_bytes
         WHERE r.SourcePort < b.SourcePort;
      )",
  };

  FlowConfig config;
  config.num_flows = 3000;
  config.num_routers = 4;
  config.num_as = 25;
  Table flows = GenerateFlows(config);

  DistributedWarehouse dw(4);
  dw.AddTablePartitionedBy("flow", flows, "RouterId",
                           {"SourceAS", "DestAS", "SourcePort", "NumBytes",
                            "NumPackets"})
      .Check();
  const Catalog& catalog = dw.central_catalog();
  auto evaluate = [&](const GmdjExpr& expr, size_t eval_threads) {
    EvalContext context;
    context.eval_threads = eval_threads;
    Table x = expr.base.Execute(catalog, context).ValueOrDie();
    for (const GmdjOp& op : expr.ops) {
      x = EvaluateGmdj(x, op, catalog, context).ValueOrDie();
    }
    return x;
  };

  for (const char* text : queries) {
    GmdjExpr expr = ParseQuery(text).ValueOrDie();
    Table baseline = evaluate(expr, 1);
    ASSERT_TRUE(baseline.ApproxSameRows(
        dw.ExecuteCentralized(expr).ValueOrDie(), 1e-9))
        << text;
    std::vector<uint8_t> expected = Bytes(baseline);
    for (size_t threads : kThreadCounts) {
      EXPECT_EQ(Bytes(evaluate(expr, threads)), expected)
          << "threads=" << threads << " query=" << text;
    }
  }
}

}  // namespace
}  // namespace skalla
