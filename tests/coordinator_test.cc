// Coordinator synchronization per Theorem 1: merging site fragments of
// sub-aggregates reproduces the direct evaluation, incrementally and in
// any arrival order.

#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/local_eval.h"
#include "expr/builder.h"
#include "relalg/operators.h"
#include "storage/partition.h"
#include "types/row.h"

namespace skalla {
namespace {

Table MakeDetail(uint64_t seed, size_t rows) {
  Random rng(seed);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        {Value(rng.UniformInt(0, 9)), Value(rng.UniformInt(-50, 50))});
  }
  return t;
}

GmdjOp TestOp() {
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                 {AggKind::kSum, "v", "s"},
                                 {AggKind::kAvg, "v", "a"},
                                 {AggKind::kMin, "v", "lo"},
                                 {AggKind::kMax, "v", "hi"}},
                                Eq(RCol("g"), BCol("g"))});
  return op;
}

// Row-for-row equality including order.
bool ExactlyEqual(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    if (!RowEquals(a.row(r), b.row(r))) return false;
  }
  return true;
}

// Theorem 1, end to end at the coordinator level: partition R, compute
// sub-aggregate fragments per partition, merge in random order, compare
// with direct full evaluation.
class Theorem1Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem1Test, MergedFragmentsEqualDirectEvaluation) {
  const uint64_t seed = GetParam();
  Random rng(seed);
  Table detail = MakeDetail(seed * 977 + 1, 150 + rng.Uniform(200));
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = TestOp();

  Table expected = EvalGmdj(base, detail, op).ValueOrDie();

  size_t n = 1 + rng.Uniform(5);
  std::vector<Table> partitions =
      PartitionRoundRobin(detail, n).ValueOrDie();

  EvalContext sub;
  sub.sub_aggregates = true;
  std::vector<Table> fragments;
  for (const Table& part : partitions) {
    fragments.push_back(EvalGmdj(base, part, op, sub).ValueOrDie());
  }
  rng.Shuffle(&fragments);

  Coordinator coordinator({"g"});
  coordinator.SetResult(base);
  coordinator
      .BeginRound(op, *base.schema(), *detail.schema(),
                  /*from_scratch=*/false)
      .Check();
  for (const Table& fragment : fragments) {
    coordinator.MergeFragment(fragment).Check();
  }
  coordinator.FinalizeRound().Check();

  EXPECT_TRUE(coordinator.result().SameRows(expected))
      << "merged:\n"
      << coordinator.result().ToString(30) << "direct:\n"
      << expected.ToString(30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test,
                         ::testing::Range(uint64_t{0}, uint64_t{15}));

TEST(CoordinatorTest, BaseFragmentsDeduplicate) {
  Coordinator coordinator({"g"});
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  coordinator.InitBase(schema).Check();
  Table f1(schema);
  f1.AppendUnchecked({Value(1)});
  f1.AppendUnchecked({Value(2)});
  Table f2(schema);
  f2.AppendUnchecked({Value(2)});
  f2.AppendUnchecked({Value(3)});
  coordinator.MergeBaseFragment(f1).Check();
  coordinator.MergeBaseFragment(f2).Check();
  coordinator.FinalizeBase().Check();
  EXPECT_EQ(coordinator.result().num_rows(), 3u);
  // The base round is over; a second finalize is a protocol violation.
  EXPECT_TRUE(coordinator.FinalizeBase().IsInternal());
}

TEST(CoordinatorTest, BaseDedupKeepsFirstArrivalOrder) {
  // The deduplicated union keeps each distinct row once, at the position
  // it first arrived in: exactly a first-occurrence scan over the
  // fragments in merge order.
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"h", ValueType::kInt64}})
                         .ValueOrDie();
  Random rng(7);
  std::vector<Table> fragments;
  for (int f = 0; f < 4; ++f) {
    Table t(schema);
    for (int r = 0; r < 40; ++r) {
      t.AppendUnchecked(
          {Value(rng.UniformInt(0, 9)), Value(rng.UniformInt(0, 4))});
    }
    fragments.push_back(std::move(t));
  }
  Coordinator c({"g"});
  c.InitBase(schema).Check();
  for (const Table& f : fragments) c.MergeBaseFragment(f).Check();
  c.FinalizeBase().Check();

  Table expected(schema);
  for (const Table& f : fragments) {
    for (size_t r = 0; r < f.num_rows(); ++r) {
      bool seen = false;
      for (size_t e = 0; e < expected.num_rows() && !seen; ++e) {
        seen = RowEquals(expected.row(e), f.row(r));
      }
      if (!seen) expected.AppendUnchecked(f.row(r));
    }
  }
  EXPECT_GT(expected.num_rows(), 0u);
  EXPECT_TRUE(ExactlyEqual(c.result(), expected));
}

TEST(CoordinatorTest, BaseFragmentArityMismatchFails) {
  Coordinator coordinator({"g"});
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  coordinator.InitBase(schema).Check();
  SchemaPtr wide = Schema::Make({{"g", ValueType::kInt64},
                                 {"x", ValueType::kInt64}})
                       .ValueOrDie();
  Table f(wide);
  f.AppendUnchecked({Value(1), Value(2)});
  EXPECT_TRUE(coordinator.MergeBaseFragment(f).IsInvalidArgument());
}

TEST(CoordinatorTest, UnknownGroupRejectedWhenSeeded) {
  Table detail = MakeDetail(1, 50);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = TestOp();

  Coordinator coordinator({"g"});
  coordinator.SetResult(base);
  coordinator
      .BeginRound(op, *base.schema(), *detail.schema(), false)
      .Check();

  // A fragment carrying a group that is not in the global structure.
  SchemaPtr foreign_base =
      Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  Table foreign(foreign_base);
  foreign.AppendUnchecked({Value(int64_t{12345})});
  EvalContext sub;
  sub.sub_aggregates = true;
  Table fragment = EvalGmdj(foreign, detail, op, sub).ValueOrDie();
  Status s = coordinator.MergeFragment(fragment);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal());
}

TEST(CoordinatorTest, FromScratchInsertsAndMergesOverlaps) {
  Table detail = MakeDetail(3, 100);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = TestOp();
  Table expected = EvalGmdj(base, detail, op).ValueOrDie();

  // Two overlapping partitions... actually a plain 2-way split; both
  // fragments computed against the full base (all groups), so every group
  // arrives twice and must merge, not duplicate.
  std::vector<Table> partitions =
      PartitionRoundRobin(detail, 2).ValueOrDie();
  EvalContext sub;
  sub.sub_aggregates = true;

  Coordinator coordinator({"g"});
  coordinator
      .BeginRound(op, *base.schema(), *detail.schema(),
                  /*from_scratch=*/true)
      .Check();
  for (const Table& part : partitions) {
    Table fragment = EvalGmdj(base, part, op, sub).ValueOrDie();
    coordinator.MergeFragment(fragment).Check();
  }
  coordinator.FinalizeRound().Check();
  EXPECT_TRUE(coordinator.result().SameRows(expected));
}

TEST(CoordinatorTest, RoundProtocolViolations) {
  Coordinator coordinator({"g"});
  EXPECT_TRUE(coordinator.FinalizeRound().IsInternal());
  Table t;
  EXPECT_TRUE(coordinator.MergeFragment(t).IsInternal());
  EXPECT_TRUE(coordinator.MergeBaseFragment(t).IsInternal());

  Table detail = MakeDetail(1, 10);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  coordinator.SetResult(base);
  GmdjOp op = TestOp();
  coordinator
      .BeginRound(op, *base.schema(), *detail.schema(), false)
      .Check();
  // Starting a second round mid-flight is a protocol violation.
  EXPECT_TRUE(coordinator
                  .BeginRound(op, *base.schema(), *detail.schema(), false)
                  .IsInternal());
}

TEST(CoordinatorTest, SchemaMismatchDetected) {
  Coordinator coordinator({"g"});
  Table detail = MakeDetail(1, 10);
  SchemaPtr other = Schema::Make({{"g", ValueType::kInt64},
                                  {"stale", ValueType::kInt64}})
                        .ValueOrDie();
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  coordinator.SetResult(base);
  GmdjOp op = TestOp();
  // Upstream schema says two columns, X has one: must be flagged.
  Status s = coordinator.BeginRound(op, *other, *detail.schema(), false);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal());
}

TEST(CoordinatorTest, FragmentArityChecked) {
  Coordinator coordinator({"g"});
  Table detail = MakeDetail(1, 10);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  coordinator.SetResult(base);
  GmdjOp op = TestOp();
  coordinator
      .BeginRound(op, *base.schema(), *detail.schema(), false)
      .Check();
  Table bogus(base.schema());
  bogus.AppendUnchecked({Value(1)});
  EXPECT_TRUE(coordinator.MergeFragment(bogus).IsInvalidArgument());
}

}  // namespace
}  // namespace skalla
