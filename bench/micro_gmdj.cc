// Micro-benchmarks (google-benchmark) for the performance-critical
// components: local GMDJ evaluation (the columnar kernel over
// MemoryDataProvider chunk views, honoring --eval-threads=N for
// intra-site morsel parallelism, and the row oracle's indexed and
// nested-loop modes), hash index build and probe, serialization, and
// coordinator merge.
//
// Flags beyond google-benchmark's own:
//   --eval-threads=N   EvalContext::eval_threads for the GMDJ benches
//                      (0 = one worker per hardware thread)
//   --engine=columnar|row|nested
//                      EvalContext::engine for the BM_GmdjEvaluate bench
//                      (the core::EvaluateGmdj routing path). On startup
//                      the binary prints a `gmdj digest:` line — the
//                      FNV-1a hash of a deterministic evaluation's
//                      serialized bytes under the selected engine, over
//                      one grouped, one candidates and one scan block —
//                      so a smoke job can run every engine and assert
//                      identical bytes.
//   --trace-out=PATH / --metrics-out=PATH   (bench_common.h ObsSession)
//
// The GMDJ benches record each evaluation into the skalla.site.eval_us
// histogram, so --metrics-out captures before/after distributions for an
// --eval-threads sweep (use --benchmark_filter to isolate one bench).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "common/flags.h"
#include "columnar/vector_eval.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/evaluate.h"
#include "core/local_eval.h"
#include "storage/catalog.h"
#include "data/tpcr_gen.h"
#include "dist/coordinator.h"
#include "expr/builder.h"
#include "net/serde.h"
#include "obs/obs.h"
#include "relalg/operators.h"
#include "storage/data_provider.h"
#include "storage/hash_index.h"

// Set by main from --eval-threads= / --engine= before benchmarks run.
static size_t g_eval_threads = 1;
static skalla::EvalEngine g_engine = skalla::EvalEngine::kColumnar;

namespace skalla {
namespace {

EvalContext BenchContext() {
  EvalContext context;
  context.eval_threads = g_eval_threads;
  context.engine = g_engine;
  return context;
}

Table MakeDetail(size_t rows, int64_t groups) {
  Random rng(7);
  SchemaPtr schema = Schema::Make({{"g", ValueType::kInt64},
                                   {"v", ValueType::kInt64}})
                         .ValueOrDie();
  Table t(schema);
  t.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked(
        {Value(rng.UniformInt(0, groups - 1)), Value(rng.UniformInt(0, 999))});
  }
  return t;
}

GmdjOp SimpleOp() {
  GmdjOp op;
  op.detail_table = "d";
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "c"}, {AggKind::kAvg, "v", "a"}},
      Eq(RCol("g"), BCol("g"))});
  return op;
}

void BM_GmdjIndexed(benchmark::State& state) {
  Table detail = MakeDetail(static_cast<size_t>(state.range(0)), 256);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = SimpleOp();
  EvalContext context = BenchContext();
  context.engine = EvalEngine::kRow;
  for (auto _ : state) {
    SKALLA_OBS_ONLY(Stopwatch watch;)
    Table out = EvalGmdj(base, detail, op, context).ValueOrDie();
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us", watch.ElapsedMicros());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GmdjIndexed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GmdjColumnar(benchmark::State& state) {
  // A resident relation's chunk views, built once and reused by every
  // iteration — what an in-process site round reads.
  auto detail = std::make_shared<const Table>(
      MakeDetail(static_cast<size_t>(state.range(0)), 256));
  MemoryDataProvider provider(detail);
  Table base = Project(*detail, {"g"}, true).ValueOrDie();
  GmdjOp op = SimpleOp();
  EvalContext context = BenchContext();
  for (auto _ : state) {
    SKALLA_OBS_ONLY(Stopwatch watch;)
    Table out = EvalGmdjColumnar(base, provider, op, context).ValueOrDie();
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us", watch.ElapsedMicros());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GmdjColumnar)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GmdjEvaluate(benchmark::State& state) {
  // The routing path: core::EvaluateGmdj against a resident catalog
  // (its MemoryDataProvider), honoring --engine.
  Table detail = MakeDetail(static_cast<size_t>(state.range(0)), 256);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  GmdjOp op = SimpleOp();
  EvalContext context = BenchContext();
  for (auto _ : state) {
    SKALLA_OBS_ONLY(Stopwatch watch;)
    Table out = EvaluateGmdj(base, op, catalog, context).ValueOrDie();
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us", watch.ElapsedMicros());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(std::string(EvalEngineName(g_engine)));
}
BENCHMARK(BM_GmdjEvaluate)->Arg(1000)->Arg(10000)->Arg(100000);

// A deterministic evaluation under the selected engine, reduced to an
// FNV-1a hash of the serialized result bytes. The operator has one block
// per columnar path — grouped (equality atoms only), candidates
// (equality + a correlated conjunct), scan (no equality atom) — so runs
// of the binary with different --engine values print identical digests
// only if every path is byte-identical to both row oracle modes.
void PrintEngineDigest() {
  Table detail = skalla::MakeDetail(20000, 128);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  Catalog catalog;
  catalog.Register("d", detail);
  GmdjOp op = SimpleOp();
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kSum, "v", "s"}, {AggKind::kMax, "v", "m"}},
      And(Eq(RCol("g"), BCol("g")), Gt(RCol("v"), Lit(Value(int64_t{250}))))});
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "above"}, {AggKind::kAvg, "v", "va"}},
      And(Eq(RCol("g"), BCol("g")),
          Gt(RCol("v"), Mul(BCol("g"), Lit(Value(int64_t{8})))))});
  op.blocks.push_back(GmdjBlock{
      {{AggKind::kCountStar, "", "lower"}, {AggKind::kMin, "v", "lo"}},
      And(Lt(RCol("g"), BCol("g")), Lt(RCol("v"), Lit(Value(int64_t{20}))))});
  EvalContext context = BenchContext();
  Table out = EvaluateGmdj(base, op, catalog, context).ValueOrDie();
  std::vector<uint8_t> bytes;
  WriteTable(out, &bytes);
  uint64_t hash = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 1099511628211ull;
  }
  std::printf("gmdj digest: %016llx (engine=%s)\n",
              static_cast<unsigned long long>(hash),
              std::string(EvalEngineName(g_engine)).c_str());
}

void BM_GmdjNaive(benchmark::State& state) {
  Table detail = MakeDetail(static_cast<size_t>(state.range(0)), 64);
  Table base = Project(detail, {"g"}, true).ValueOrDie();
  GmdjOp op = SimpleOp();
  EvalContext context = BenchContext();
  context.engine = EvalEngine::kNestedLoop;
  for (auto _ : state) {
    SKALLA_OBS_ONLY(Stopwatch watch;)
    Table out = EvalGmdj(base, detail, op, context).ValueOrDie();
    SKALLA_HISTOGRAM_RECORD("skalla.site.eval_us", watch.ElapsedMicros());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GmdjNaive)->Arg(1000)->Arg(4000);

void BM_HashIndexBuild(benchmark::State& state) {
  Table detail = MakeDetail(static_cast<size_t>(state.range(0)), 1024);
  for (auto _ : state) {
    HashIndex index = HashIndex::Build(detail, {0});
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashIndexBuild)->Arg(10000)->Arg(100000);

void BM_HashIndexProbe(benchmark::State& state) {
  Table detail = MakeDetail(100000, 1024);
  HashIndex index = HashIndex::Build(detail, {0});
  Row probe = {Value(int64_t{0}), Value(int64_t{0})};
  Random rng(3);
  for (auto _ : state) {
    probe[0] = Value(rng.UniformInt(0, 1023));
    benchmark::DoNotOptimize(index.Lookup(probe, {0}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashIndexProbe);

void BM_SerializeTable(benchmark::State& state) {
  TpcrConfig config;
  config.num_rows = state.range(0);
  Table t = GenerateTpcr(config);
  uint64_t bytes = SerializedTableSize(t);
  for (auto _ : state) {
    std::vector<uint8_t> buffer;
    WriteTable(t, &buffer);
    benchmark::DoNotOptimize(buffer);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_SerializeTable)->Arg(1000)->Arg(10000);

void BM_DeserializeTable(benchmark::State& state) {
  TpcrConfig config;
  config.num_rows = state.range(0);
  Table t = GenerateTpcr(config);
  std::vector<uint8_t> buffer;
  WriteTable(t, &buffer);
  for (auto _ : state) {
    Table out = ReadTable(buffer.data(), buffer.size()).ValueOrDie();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buffer.size()));
}
BENCHMARK(BM_DeserializeTable)->Arg(1000)->Arg(10000);

// One fragment of partial aggregates, as the coordinator receives it:
// serialized by the site and decoded into typed columns.
struct MergeFixture {
  Table base;
  Table detail;
  GmdjOp op = SimpleOp();
  ChunkPtr fragment;

  explicit MergeFixture(int64_t groups) {
    base = Table(Schema::Make({{"g", ValueType::kInt64}}).ValueOrDie());
    for (int64_t g = 0; g < groups; ++g) base.AppendUnchecked({Value(g)});
    detail = MakeDetail(static_cast<size_t>(groups) * 4, groups);
    EvalContext options;
    options.sub_aggregates = true;
    Table h = EvalGmdj(base, detail, op, options).ValueOrDie();
    std::vector<uint8_t> bytes;
    WriteTable(h, &bytes);
    fragment = ReadTableColumns(bytes.data(), bytes.size()).ValueOrDie();
  }
};

void BM_CoordinatorMerge(benchmark::State& state) {
  // One fragment merged into a seeded structure: the in-order walk over X.
  const int64_t kGroups = state.range(0);
  MergeFixture f(kGroups);
  for (auto _ : state) {
    Coordinator coordinator({"g"});
    coordinator.SetResult(f.base);
    coordinator
        .BeginRound(f.op, *f.base.schema(), *f.detail.schema(),
                    /*from_scratch=*/false)
        .Check();
    coordinator.MergeFragment(f.fragment).Check();
    coordinator.FinalizeRound().Check();
    benchmark::DoNotOptimize(coordinator.result());
  }
  state.SetItemsProcessed(state.iterations() * kGroups);
}
BENCHMARK(BM_CoordinatorMerge)->Arg(1000)->Arg(10000);

void BM_CoordinatorMergeFromScratch(benchmark::State& state) {
  // The same fragment merged with no X: groups created by KeyGroups.
  const int64_t kGroups = state.range(0);
  MergeFixture f(kGroups);
  for (auto _ : state) {
    Coordinator coordinator({"g"});
    coordinator
        .BeginRound(f.op, *f.base.schema(), *f.detail.schema(),
                    /*from_scratch=*/true)
        .Check();
    coordinator.MergeFragment(f.fragment).Check();
    coordinator.FinalizeRound().Check();
    benchmark::DoNotOptimize(coordinator.result());
  }
  state.SetItemsProcessed(state.iterations() * kGroups);
}
BENCHMARK(BM_CoordinatorMergeFromScratch)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace skalla

// BENCHMARK_MAIN() plus our flags: FlagSet consumes --eval-threads (and
// the ObsSession flags, which would otherwise be rejected) in
// keep_unknown mode, leaving google-benchmark's own arguments in argv
// for benchmark::Initialize.
int main(int argc, char** argv) {
  skalla::bench::ObsSession obs(argc, argv);
  skalla::FlagSet flags;
  flags.SizeT("--eval-threads", &g_eval_threads,
              "intra-site eval workers (0 = hardware threads)");
  flags.Func(
      "--engine",
      [](const std::string& value) {
        if (value == "columnar") {
          g_engine = skalla::EvalEngine::kColumnar;
        } else if (value == "row") {
          g_engine = skalla::EvalEngine::kRow;
        } else if (value == "nested") {
          g_engine = skalla::EvalEngine::kNestedLoop;
        } else {
          return skalla::Status::InvalidArgument("unknown --engine: " + value);
        }
        return skalla::Status::OK();
      },
      "GMDJ engine for BM_GmdjEvaluate: columnar|row|nested");
  // ObsSession already read these from the original argv; consume them
  // here so benchmark::Initialize never sees them.
  auto drop = [](const std::string&) { return skalla::Status::OK(); };
  flags.Func("--trace-out", drop, "trace output path (ObsSession)");
  flags.Func("--metrics-out", drop, "metrics output path (ObsSession)");
  skalla::Status parsed = flags.Parse(&argc, argv, /*keep_unknown=*/true);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  skalla::PrintEngineDigest();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
