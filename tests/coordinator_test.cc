// Coordinator synchronization per Theorem 1: merging site fragments of
// sub-aggregates reproduces the direct evaluation, incrementally and in
// any arrival order.

#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"
#include "core/local_eval.h"
#include "expr/builder.h"
#include "net/serde.h"
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

// A table as the coordinator receives it: serialized by a site, decoded
// into typed columns.
ChunkPtr Typed(const Table& t) {
  std::vector<uint8_t> bytes;
  WriteTable(t, &bytes);
  return ReadTableColumns(bytes.data(), bytes.size()).ValueOrDie();
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
    coordinator.MergeFragment(Typed(fragment)).Check();
  }
  coordinator.FinalizeRound().Check();

  EXPECT_TRUE(coordinator.result().SameRows(expected))
      << "merged:\n"
      << coordinator.result().ToString(30) << "direct:\n"
      << expected.ToString(30);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Test,
                         ::testing::Range(uint64_t{0}, uint64_t{15}));

// The base round as RunStarPlan runs it: a from-scratch round over an
// operator with no blocks (MD(B, R, ()) = B). The coordinator must be
// keyed on every column of `schema`, as a plan's key columns are its base
// columns.
Status BeginBase(Coordinator& c, const Schema& schema) {
  GmdjOp blockless;
  blockless.detail_table = "d";
  return c.BeginRound(blockless, schema, schema, /*from_scratch=*/true);
}

TEST(CoordinatorTest, BaseFragmentsDeduplicate) {
  Coordinator coordinator({"g"});
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie();
  BeginBase(coordinator, *schema).Check();
  Table f1(schema);
  f1.AppendUnchecked({Value(1)});
  f1.AppendUnchecked({Value(2)});
  Table f2(schema);
  f2.AppendUnchecked({Value(2)});
  f2.AppendUnchecked({Value(3)});
  coordinator.MergeFragment(Typed(f1)).Check();
  coordinator.MergeFragment(Typed(f2)).Check();
  coordinator.FinalizeRound().Check();
  EXPECT_EQ(coordinator.result().num_rows(), 3u);
  // The base round is over; a second finalize, or a late fragment, is a
  // protocol violation.
  EXPECT_TRUE(coordinator.FinalizeRound().IsInternal());
  EXPECT_TRUE(coordinator.MergeFragment(Typed(f2)).IsInternal());
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
  Coordinator c({"g", "h"});
  BeginBase(c, *schema).Check();
  for (const Table& f : fragments) c.MergeFragment(Typed(f)).Check();
  c.FinalizeRound().Check();

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
  BeginBase(coordinator, *schema).Check();
  SchemaPtr wide = Schema::Make({{"g", ValueType::kInt64},
                                 {"x", ValueType::kInt64}})
                       .ValueOrDie();
  Table f(wide);
  f.AppendUnchecked({Value(1), Value(2)});
  EXPECT_TRUE(coordinator.MergeFragment(Typed(f)).IsInvalidArgument());
  // A column of the wrong type is rejected the same way.
  SchemaPtr strings = Schema::Make({{"g", ValueType::kString}}).ValueOrDie();
  Table g(strings);
  g.AppendUnchecked({Value("1")});
  EXPECT_TRUE(coordinator.MergeFragment(Typed(g)).IsInvalidArgument());
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
  Status s = coordinator.MergeFragment(Typed(fragment));
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
    coordinator.MergeFragment(Typed(fragment)).Check();
  }
  coordinator.FinalizeRound().Check();
  EXPECT_TRUE(coordinator.result().SameRows(expected));
}

TEST(CoordinatorTest, RoundProtocolViolations) {
  Coordinator coordinator({"g"});
  EXPECT_TRUE(coordinator.FinalizeRound().IsInternal());
  Table t;
  EXPECT_TRUE(coordinator.MergeFragment(Typed(t)).IsInternal());

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
  EXPECT_TRUE(coordinator.MergeFragment(Typed(bogus)).IsInvalidArgument());
}


// --- Byte identity -----------------------------------------------------------
//
// The coordinator's output, serialized with WriteTable, must equal the
// boxed merge rules byte for byte: first arrival fixes a group's row
// position and upstream cells, MergePartial folds each part in merge order
// (site order, then row order), FinalizeAggregate computes each output.
// Comparing bytes, not SameRows, pins row order, cell types, -0.0 and NaN
// payloads.

std::vector<uint8_t> Bytes(const Table& t) {
  std::vector<uint8_t> out;
  WriteTable(t, &out);
  return out;
}

// How a test hands a fragment to the coordinator.
Status Merge(Coordinator& c, const Table& fragment) {
  return c.MergeFragment(Typed(fragment));
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kMinInt = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxInt = std::numeric_limits<int64_t>::max();

SchemaPtr DetailSchema() {
  return Schema::Make({{"k", ValueType::kFloat64},
                       {"s", ValueType::kString},
                       {"i", ValueType::kInt64},
                       {"f", ValueType::kFloat64}})
      .ValueOrDie();
}

// Every aggregate kind, over INT64 and FLOAT64 inputs.
GmdjOp AllKindsOp() {
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kCountStar, "", "c"},
                                 {AggKind::kCount, "f", "cf"},
                                 {AggKind::kSum, "i", "si"},
                                 {AggKind::kSum, "f", "sf"},
                                 {AggKind::kAvg, "i", "ai"},
                                 {AggKind::kMin, "i", "mini"}},
                                Eq(RCol("k"), BCol("k"))});
  op.blocks.push_back(GmdjBlock{{{AggKind::kMax, "i", "maxi"},
                                 {AggKind::kMin, "f", "minf"},
                                 {AggKind::kMax, "f", "maxf"},
                                 {AggKind::kAvg, "f", "af"},
                                 {AggKind::kVarPop, "f", "vf"},
                                 {AggKind::kStdDevPop, "f", "sdf"},
                                 {AggKind::kSumSq, "f", "ssf"}},
                                Eq(RCol("s"), BCol("s"))});
  return op;
}

// Upstream columns followed by every part column, as sites ship them.
SchemaPtr FragmentSchema(const GmdjOp& op, const Schema& upstream) {
  std::vector<Field> fields = upstream.fields();
  for (const GmdjBlock& block : op.blocks) {
    for (const AggSpec& spec : block.aggs) {
      for (const SubAggregate& part : Decompose(spec)) {
        fields.push_back(Field{
            part.part_name, PartOutputType(part, *DetailSchema()).ValueOrDie()});
      }
    }
  }
  return Schema::Make(std::move(fields)).ValueOrDie();
}

// A partial from a palette of edge cells for a part column of `type`.
// `sum` keeps INT64 partials small enough that no sum overflows, and
// leaves -inf out of FLOAT64 sums: inf + -inf makes a second NaN, and
// which of two different NaNs a sum returns depends on the operand order
// the compiler picks, not on the merge rules.
Value EdgePartial(Random& rng, ValueType type, bool sum) {
  if (type == ValueType::kFloat64) {
    const double palette[] = {kNaN, -0.0, 0.0, kInf, 1.5, -2.25, 1e300, -kInf};
    if (rng.Bernoulli(0.15)) return Value::Null();
    return Value(palette[rng.Uniform(sum ? 7 : 8)]);
  }
  const int64_t small[] = {0, 7, -3, kMaxInt / 64, kMinInt / 64};
  const int64_t extreme[] = {0, 5, -5, kMaxInt, kMinInt};
  if (rng.Bernoulli(0.15)) return Value::Null();
  return Value(sum ? small[rng.Uniform(5)] : extreme[rng.Uniform(5)]);
}

// Appends one fragment row: `upstream` cells then a partial per part.
void AppendFragmentRow(Random& rng, const GmdjOp& op, const Schema& schema,
                       Row upstream, Table* fragment) {
  size_t col = upstream.size();
  for (const GmdjBlock& block : op.blocks) {
    for (const AggSpec& spec : block.aggs) {
      for (const SubAggregate& part : Decompose(spec)) {
        upstream.push_back(EdgePartial(rng, schema.field(col).type,
                                       part.merge == MergeKind::kSum));
        ++col;
      }
    }
  }
  fragment->AppendUnchecked(std::move(upstream));
}

// The merge rules over boxed rows. `x` (nullptr = from scratch) seeds
// the groups; otherwise a group is created by its first arriving row.
// Groups are found by key (Value::Equals on `keys`).
Table ReferenceRound(const GmdjOp& op, const Schema& upstream,
                     const std::vector<size_t>& keys, const Table* x,
                     const std::vector<Table>& fragments) {
  std::vector<SubAggregate> parts;
  for (const GmdjBlock& block : op.blocks) {
    for (const AggSpec& spec : block.aggs) {
      for (SubAggregate& part : Decompose(spec)) parts.push_back(part);
    }
  }
  const size_t width = upstream.num_fields();
  std::vector<Row> rows;
  auto fresh = [&](const Row& cells) {
    Row row(cells.begin(), cells.begin() + static_cast<int64_t>(width));
    for (const SubAggregate& part : parts) {
      row.push_back(InitialPartValue(part));
    }
    rows.push_back(std::move(row));
  };
  if (x != nullptr) {
    for (const Row& row : x->rows()) fresh(row);
  }
  for (const Table& fragment : fragments) {
    for (const Row& in : fragment.rows()) {
      size_t g = 0;
      while (g < rows.size() && !RowKeyEquals(rows[g], keys, in, keys)) ++g;
      if (g == rows.size()) {
        EXPECT_EQ(x, nullptr) << "unknown group " << RowToString(in);
        fresh(in);
      }
      for (size_t p = 0; p < parts.size(); ++p) {
        rows[g][width + p] =
            MergePartial(rows[g][width + p], in[width + p], parts[p].merge);
      }
    }
  }
  SchemaPtr out_schema =
      op.OutputSchema(upstream, *DetailSchema()).ValueOrDie();
  Table out(out_schema);
  for (const Row& w : rows) {
    Row row(w.begin(), w.begin() + static_cast<int64_t>(width));
    size_t p = width;
    for (const GmdjBlock& block : op.blocks) {
      for (const AggSpec& spec : block.aggs) {
        const size_t n = Decompose(spec).size();
        std::vector<Value> cells(w.begin() + static_cast<int64_t>(p),
                                 w.begin() + static_cast<int64_t>(p + n));
        row.push_back(FinalizeAggregate(spec, cells));
        p += n;
      }
    }
    out.AppendUnchecked(std::move(row));
  }
  return out;
}

Table RunRound(const GmdjOp& op, const Schema& upstream,
               const std::vector<std::string>& keys, const Table* x,
               const std::vector<Table>& fragments) {
  Coordinator c(keys);
  if (x != nullptr) c.SetResult(*x);
  c.BeginRound(op, upstream, *DetailSchema(), /*from_scratch=*/x == nullptr)
      .Check();
  for (const Table& f : fragments) Merge(c, f).Check();
  c.FinalizeRound().Check();
  return c.result();
}

// Keys (k, s) plus two non-key upstream columns.
SchemaPtr UpstreamSchema() {
  return Schema::Make({{"k", ValueType::kFloat64},
                       {"s", ValueType::kString},
                       {"t", ValueType::kInt64},
                       {"u", ValueType::kFloat64}})
      .ValueOrDie();
}

// Upstream rows holding every edge cell; the (k, s) keys are distinct
// under Value::Equals.
std::vector<Row> EdgeUpstreamRows() {
  return {{Value(1.0), Value("a"), Value(int64_t{1}), Value(kNaN)},
          {Value::Null(), Value(""), Value(kMaxInt), Value(-0.0)},
          {Value(-0.0), Value("a"), Value(kMinInt), Value::Null()},
          {Value(kInf), Value(""), Value::Null(), Value(kInf)},
          {Value(-kInf), Value("b"), Value(int64_t{0}), Value(0.0)},
          {Value(2.5), Value::Null(), Value(int64_t{-1}), Value(kNaN)},
          {Value(0.0), Value("b"), Value(int64_t{2}), Value(-kInf)},
          {Value(3.0), Value("zz"), Value(int64_t{3}), Value(1.0)}};
}

TEST(CoordinatorBytesTest, SeededRoundEveryAggKindAndEdgeCell) {
  const GmdjOp op = AllKindsOp();
  const SchemaPtr upstream = UpstreamSchema();
  const SchemaPtr frag_schema = FragmentSchema(op, *upstream);
  // Sites ship X's cells back as they got them, NaNs in non-key
  // columns included.
  Table x(upstream);
  for (Row row : EdgeUpstreamRows()) x.AppendUnchecked(std::move(row));
  x.AppendUnchecked({Value(4.0), Value("n"), Value(int64_t{4}), Value(4.0)});
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Random rng(seed);
    std::vector<Table> fragments;
    const size_t sites = 1 + rng.Uniform(4);
    for (size_t s = 0; s < sites; ++s) {
      Table f(frag_schema);
      // A fragment keeps X's order and may skip rows; the last X row
      // never arrives, so its aggregates stay at their neutral state.
      for (size_t r = 0; r + 1 < x.num_rows(); ++r) {
        if (rng.Bernoulli(0.7)) {
          AppendFragmentRow(rng, op, *frag_schema, x.row(r), &f);
        }
      }
      fragments.push_back(std::move(f));
    }
    Table got = RunRound(op, *upstream, {"k", "s"}, &x, fragments);
    Table want = ReferenceRound(op, *upstream, {0, 1}, &x, fragments);
    ASSERT_EQ(Bytes(got), Bytes(want)) << "seed " << seed << "\ngot:\n"
                                       << got.ToString(20) << "want:\n"
                                       << want.ToString(20);
  }
}

TEST(CoordinatorBytesTest, FromScratchFirstArrivalInTwoSiteOrders) {
  const GmdjOp op = AllKindsOp();
  const SchemaPtr upstream = UpstreamSchema();
  const SchemaPtr frag_schema = FragmentSchema(op, *upstream);
  const std::vector<Row> pool = EdgeUpstreamRows();
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Random rng(seed);
    std::vector<Table> fragments;
    for (size_t s = 0; s < 3; ++s) {
      Table f(frag_schema);
      const size_t n = rng.Uniform(10);
      for (size_t r = 0; r < n; ++r) {
        Row up = pool[rng.Uniform(pool.size())];
        // Same key, other non-key cell: first arrival fixes t.
        up[2] = Value(static_cast<int64_t>(s * 100 + r));
        // A NaN key groups with nothing, not even itself.
        if (rng.Bernoulli(0.1)) up[0] = Value(kNaN);
        AppendFragmentRow(rng, op, *frag_schema, std::move(up), &f);
      }
      fragments.push_back(std::move(f));
    }
    std::vector<Table> reversed(fragments.rbegin(), fragments.rend());
    for (const std::vector<Table>* order : {&fragments, &reversed}) {
      Table got = RunRound(op, *upstream, {"k", "s"}, nullptr, *order);
      Table want = ReferenceRound(op, *upstream, {0, 1}, nullptr, *order);
      ASSERT_EQ(Bytes(got), Bytes(want))
          << "seed " << seed << (order == &fragments ? "" : " reversed")
          << "\ngot:\n"
          << got.ToString(20) << "want:\n"
          << want.ToString(20);
    }
  }
}

TEST(CoordinatorBytesTest, EmptyFragmentsAndZeroRowX) {
  const GmdjOp op = AllKindsOp();
  const SchemaPtr upstream = UpstreamSchema();
  const SchemaPtr frag_schema = FragmentSchema(op, *upstream);
  const std::vector<Table> empties = {Table(frag_schema), Table(frag_schema)};
  // Zero-row X, seeded.
  Table x0(upstream);
  EXPECT_EQ(Bytes(RunRound(op, *upstream, {"k"}, &x0, empties)),
            Bytes(ReferenceRound(op, *upstream, {0}, &x0, empties)));
  // From scratch, nothing arrives.
  EXPECT_EQ(Bytes(RunRound(op, *upstream, {"k"}, nullptr, empties)),
            Bytes(ReferenceRound(op, *upstream, {0}, nullptr, empties)));
  EXPECT_EQ(Bytes(RunRound(op, *upstream, {"k"}, nullptr, {})),
            Bytes(ReferenceRound(op, *upstream, {0}, nullptr, {})));
  // Seeded X whose groups all stay neutral: COUNT 0, the rest NULL.
  Table x(upstream);
  x.AppendUnchecked({Value(1.0), Value("a"), Value(int64_t{1}), Value(kNaN)});
  x.AppendUnchecked({Value(-0.0), Value(""), Value::Null(), Value(-0.0)});
  Table got = RunRound(op, *upstream, {"k", "s"}, &x, empties);
  EXPECT_EQ(Bytes(got), Bytes(ReferenceRound(op, *upstream, {0, 1}, &x,
                                             empties)));
  ASSERT_EQ(got.num_rows(), 2u);
  EXPECT_TRUE(got.at(1, 0).is_float64() && std::signbit(got.at(1, 0).float64()));
  EXPECT_EQ(got.at(0, 4), Value(int64_t{0}));  // COUNT(*) over nothing
  EXPECT_TRUE(got.at(0, 6).is_null());         // SUM over nothing
}

TEST(CoordinatorBytesTest, PinnedPartialSemantics) {
  // One group, written out by hand: a lone -0.0 partial stays -0.0; MIN
  // and MAX keep the earlier of tied partials (-0.0 vs 0.0); NULL partials
  // are skipped; an INT64 sum stays INT64; NaN partials propagate; AVG,
  // VAR and STDDEV finalize from the summed parts.
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{{{AggKind::kSum, "f", "sf"},
                                 {AggKind::kMin, "f", "minf"},
                                 {AggKind::kMax, "f", "maxf"},
                                 {AggKind::kSum, "i", "si"},
                                 {AggKind::kMax, "i", "maxi"},
                                 {AggKind::kAvg, "f", "af"},
                                 {AggKind::kVarPop, "i", "vi"},
                                 {AggKind::kCount, "f", "cf"}},
                                Eq(RCol("k"), BCol("k"))});
  SchemaPtr upstream = Schema::Make({{"k", ValueType::kString}}).ValueOrDie();
  SchemaPtr frag = FragmentSchema(op, *upstream);
  // Parts: sf, minf, maxf, si, maxi, af__sum, af__cnt, vi__sum,
  // vi__sumsq, vi__cnt, cf.
  Table f1(frag);
  f1.AppendUnchecked({Value(""), Value::Null(), Value(0.0), Value(-0.0),
                      Value(kMaxInt), Value(kMinInt), Value(1.0),
                      Value(int64_t{1}), Value(int64_t{3}), Value(9.0),
                      Value(int64_t{1}), Value(int64_t{0})});
  Table f2(frag);
  f2.AppendUnchecked({Value(""), Value(-0.0), Value(-0.0), Value(0.0),
                      Value(int64_t{-1}), Value(kMinInt), Value(kNaN),
                      Value(int64_t{2}), Value(int64_t{1}), Value(1.0),
                      Value(int64_t{1}), Value::Null()});
  Table x(upstream);
  x.AppendUnchecked({Value("")});
  Table got = RunRound(op, *upstream, {"k"}, &x, {f1, f2});

  Table want(op.OutputSchema(*upstream, *DetailSchema()).ValueOrDie());
  // VAR over sum 4, sumsq 10, count 2: 10/2 - 2*2 = 1.
  want.AppendUnchecked({Value(""), Value(-0.0), Value(0.0), Value(-0.0),
                        Value(kMaxInt - 1), Value(kMinInt), Value(kNaN),
                        Value(1.0), Value(int64_t{0})});
  EXPECT_EQ(Bytes(got), Bytes(want)) << got.ToString();
}

TEST(CoordinatorBytesTest, BaseDedupKeepsFirstArrivalOfSpecialCells) {
  SchemaPtr schema = Schema::Make({{"k", ValueType::kFloat64},
                                   {"s", ValueType::kString},
                                   {"i", ValueType::kInt64}})
                         .ValueOrDie();
  Table f1(schema);
  f1.AppendUnchecked({Value(-0.0), Value(""), Value::Null()});
  f1.AppendUnchecked({Value(kNaN), Value("a"), Value(kMinInt)});
  f1.AppendUnchecked({Value::Null(), Value::Null(), Value(kMaxInt)});
  f1.AppendUnchecked({Value(0.0), Value(""), Value::Null()});  // dup of -0.0
  Table f2(schema);
  f2.AppendUnchecked({Value(0.0), Value(""), Value::Null()});   // dup
  f2.AppendUnchecked({Value(kNaN), Value("a"), Value(kMinInt)});  // kept
  f2.AppendUnchecked({Value::Null(), Value::Null(), Value(kMaxInt)});  // dup
  f2.AppendUnchecked({Value(kInf), Value(""), Value(int64_t{0})});
  Table f3(schema);  // empty

  for (int order = 0; order < 2; ++order) {
    std::vector<const Table*> frags = {&f1, &f2, &f3};
    if (order == 1) frags = {&f3, &f2, &f1};
    Coordinator c({"k", "s", "i"});
    BeginBase(c, *schema).Check();
    for (const Table* f : frags) Merge(c, *f).Check();
    c.FinalizeRound().Check();

    Table want(schema);
    for (const Table* f : frags) {
      for (const Row& row : f->rows()) {
        bool seen = false;
        for (const Row& kept : want.rows()) seen = seen || RowEquals(kept, row);
        if (!seen) want.AppendUnchecked(row);
      }
    }
    EXPECT_EQ(want.num_rows(), 5u);
    EXPECT_EQ(Bytes(c.result()), Bytes(want)) << "order " << order;
  }
}

// When the keys are the whole upstream row in order (a base round, or a
// Prop. 2 round over B's columns), FinalizeRound takes each group's key
// row as its upstream row. The bytes must equal the reference merge, and
// the same keys in another order, which box cells one by one.
TEST(CoordinatorTest, FromScratchWholeKeyMatchesReferenceBytes) {
  const GmdjOp op = AllKindsOp();
  const SchemaPtr upstream = UpstreamSchema();
  const SchemaPtr frag_schema = FragmentSchema(op, *upstream);
  const std::vector<Row> pool = EdgeUpstreamRows();
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Random rng(seed);
    std::vector<Table> fragments;
    for (size_t s = 0; s < 3; ++s) {
      Table f(frag_schema);
      const size_t n = rng.Uniform(10);
      for (size_t r = 0; r < n; ++r) {
        Row up = pool[rng.Uniform(pool.size())];
        if (rng.Bernoulli(0.1)) up[0] = Value(kNaN);
        AppendFragmentRow(rng, op, *frag_schema, std::move(up), &f);
      }
      fragments.push_back(std::move(f));
    }
    const Table want =
        ReferenceRound(op, *upstream, {0, 1, 2, 3}, nullptr, fragments);
    EXPECT_EQ(Bytes(RunRound(op, *upstream, {"k", "s", "t", "u"}, nullptr,
                             fragments)),
              Bytes(want))
        << "seed " << seed;
    EXPECT_EQ(Bytes(RunRound(op, *upstream, {"s", "k", "u", "t"}, nullptr,
                             fragments)),
              Bytes(want))
        << "seed " << seed << " reordered keys";
  }
}

}  // namespace
}  // namespace skalla
