// skalla_shell — an interactive client for the distributed warehouse.
//
// Starts with two built-in data sets loaded and partitioned across four
// sites (`flow` by RouterId, `tpcr` by NationKey), reads queries in the
// Skalla query language from stdin (terminate a query with a blank
// line), and prints EXPLAIN output, results, and transfer statistics.
//
//   ./build/examples/skalla_shell            # interactive
//   ./build/examples/skalla_shell < q.sql    # scripted
//
// Meta commands:
//   .help                  this text
//   .tables                list tables
//   .schema <table>        show a table's schema
//   .opt all|none          optimizer configuration
//   .opt +coal +igr +agr +sync   enable individual optimizations
//   .explain on|off        print plans before executing (default on)
//   .analyze on|off        print EXPLAIN ANALYZE after executing: the
//                          plan tree annotated with the measured
//                          per-stage bytes/tuples/timings (default off)
//   .trace <path>|off      enable tracing; after every query, write the
//                          accumulated Chrome trace-event JSON to <path>
//                          (open in chrome://tracing or ui.perfetto.dev)
//   .load <file.csv> <name> <partition_column>
//   .save <directory>      persist the warehouse (chunk files + STATS)
//   .quit

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "data/csv.h"
#include "data/flow_gen.h"
#include "data/tpcr_gen.h"
#include "dist/warehouse.h"
#include "obs/obs.h"
#include "obs/stats_report.h"
#include "opt/cost_model.h"
#include "opt/explain.h"
#include "serve/session.h"
#include "sql/parser.h"
#include "storage/partition.h"

namespace skalla {
namespace {

constexpr size_t kSites = 4;

class Shell {
 public:
  Shell() : warehouse_(kSites) {
    FlowConfig flow_config;
    flow_config.num_flows = 20000;
    flow_config.num_routers = static_cast<int64_t>(kSites);
    warehouse_
        .AddTablePartitionedBy("flow", GenerateFlows(flow_config),
                               "RouterId",
                               {"SourceAS", "DestAS", "DestPort",
                                "NumBytes", "NumPackets"})
        .Check();
    TpcrConfig tpcr_config;
    tpcr_config.num_rows = 24000;
    tpcr_config.num_customers = 3000;
    warehouse_
        .AddTablePartitionedBy("tpcr", GenerateTpcr(tpcr_config),
                               "NationKey",
                               {"CustKey", "CustName", "Clerk", "Quantity",
                                "ExtendedPrice"})
        .Check();
    options_ = OptimizerOptions::All();
  }

  int Run() {
    std::printf("Skalla shell — %zu sites, tables: %s\n", kSites,
                Join(warehouse_.central_catalog().TableNames(), ", ")
                    .c_str());
    std::printf("Type .help for commands; end a query with a blank "
                "line.\n\n");
    std::string pending;
    std::string line;
    Prompt(pending);
    while (std::getline(std::cin, line)) {
      std::string_view stripped = StripWhitespace(line);
      if (!pending.empty() && stripped.empty()) {
        RunQuery(pending);
        pending.clear();
      } else if (pending.empty() && !stripped.empty() &&
                 stripped[0] == '.') {
        if (!MetaCommand(stripped)) return 0;
      } else if (!stripped.empty()) {
        pending += line;
        pending += "\n";
      }
      Prompt(pending);
    }
    if (!pending.empty()) RunQuery(pending);
    return 0;
  }

 private:
  void Prompt(const std::string& pending) {
    std::printf("%s", pending.empty() ? "skalla> " : "   ...> ");
    std::fflush(stdout);
  }

  // Returns false on .quit.
  bool MetaCommand(std::string_view command) {
    std::vector<std::string> args =
        Split(std::string(StripWhitespace(command)), ' ');
    const std::string& name = args[0];
    if (name == ".quit" || name == ".exit") return false;
    if (name == ".help") {
      std::printf(
          ".tables | .schema <t> | .opt all|none|+coal|+igr|+agr|+sync | "
          ".explain on|off | .analyze on|off | .trace <path>|off | "
          ".load <csv> <name> <col> | .save <dir> | .quit\n");
    } else if (name == ".tables") {
      for (const std::string& t :
           warehouse_.central_catalog().TableNames()) {
        const Table* table =
            warehouse_.central_catalog().Get(t).ValueOrDie();
        std::printf("%s  (%zu rows)\n", t.c_str(), table->num_rows());
      }
    } else if (name == ".schema" && args.size() >= 2) {
      auto table = warehouse_.central_catalog().Get(args[1]);
      if (!table.ok()) {
        std::printf("%s\n", table.status().ToString().c_str());
      } else {
        std::printf("%s %s\n", args[1].c_str(),
                    (*table)->schema()->ToString().c_str());
      }
    } else if (name == ".opt") {
      for (size_t i = 1; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (flag == "all") options_ = OptimizerOptions::All();
        else if (flag == "none") options_ = OptimizerOptions::None();
        else if (flag == "+coal") options_.coalescing = true;
        else if (flag == "+igr") options_.indep_group_reduction = true;
        else if (flag == "+agr") options_.aware_group_reduction = true;
        else if (flag == "+sync") options_.sync_reduction = true;
        else std::printf("unknown flag %s\n", flag.c_str());
      }
      std::printf("optimizations: %s\n", options_.ToString().c_str());
    } else if (name == ".explain" && args.size() >= 2) {
      explain_ = args[1] == "on";
      std::printf("explain %s\n", explain_ ? "on" : "off");
    } else if (name == ".analyze" && args.size() >= 2) {
      analyze_ = args[1] == "on";
      std::printf("analyze %s\n", analyze_ ? "on" : "off");
    } else if (name == ".trace" && args.size() >= 2) {
      if (args[1] == "off") {
        obs::Tracer::Global().set_enabled(false);
        trace_path_.clear();
        std::printf("trace off\n");
      } else if (!obs::TracingCompiledIn()) {
        std::printf("tracing unavailable: built with SKALLA_TRACING=OFF\n");
      } else {
        trace_path_ = args[1];
        obs::Tracer::Global().set_enabled(true);
        std::printf("tracing to %s (written after every query)\n",
                    trace_path_.c_str());
      }
    } else if (name == ".load" && args.size() >= 4) {
      LoadCsv(args[1], args[2], args[3]);
    } else if (name == ".save" && args.size() >= 2) {
      Status s = warehouse_.Save(args[1]);
      std::printf("%s\n", s.ok() ? StrCat("saved warehouse under ",
                                           args[1])
                                      .c_str()
                                  : s.ToString().c_str());
    } else {
      std::printf("unrecognized command; try .help\n");
    }
    return true;
  }

  void LoadCsv(const std::string& path, const std::string& name,
               const std::string& partition_column) {
    auto table = ReadCsvFile(path);
    if (!table.ok()) {
      std::printf("%s\n", table.status().ToString().c_str());
      return;
    }
    std::vector<std::string> tracked;
    for (const Field& f : table->schema()->fields()) {
      tracked.push_back(f.name);
    }
    Status s = warehouse_.AddTablePartitionedBy(name, *table,
                                                partition_column, tracked);
    if (!s.ok()) {
      std::printf("%s\n", s.ToString().c_str());
      return;
    }
    // The session's site pool snapshots the warehouse at open time;
    // drop it so the next query sees the new table (and no stale
    // cached results).
    session_.reset();
    std::printf("loaded %zu rows into '%s', partitioned on %s across %zu "
                "sites\n",
                table->num_rows(), name.c_str(), partition_column.c_str(),
                kSites);
  }

  void RunQuery(const std::string& text) {
    auto parsed = ParseQuery(text);
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    auto plan = warehouse_.Plan(*parsed, options_);
    if (!plan.ok()) {
      std::printf("%s\n", plan.status().ToString().c_str());
      return;
    }
    if (explain_) {
      CostModel model(kSites);
      for (const std::string& table :
           warehouse_.central_catalog().TableNames()) {
        if (warehouse_.partition_info(table) != nullptr) {
          model.SetPartitionInfo(table, warehouse_.partition_info(table));
        }
      }
      std::printf("%s",
                  ExplainPlan(*parsed, *plan, kSites, options_, &model)
                      .c_str());
    }
    if (session_ == nullptr) {
      serve::SessionOptions session_options;
      // SessionOptions::exec replaces the warehouse's own executor
      // options, so carry them across.
      session_options.exec = warehouse_.exec_options();
      auto session = serve::QuerySession::Open(&warehouse_, session_options);
      if (!session.ok()) {
        std::printf("%s\n", session.status().ToString().c_str());
        return;
      }
      session_ = std::make_unique<serve::QuerySession>(std::move(*session));
    }
    auto submission = session_->SubmitPlan(*plan);
    auto answer = submission.result.get();
    if (!answer.ok()) {
      std::printf("%s\n", answer.status().ToString().c_str());
      return;
    }
    ExecStats stats = std::move(answer->stats);
    Table table = std::move(answer->table);
    table.SortRows();
    std::printf("%s", table.ToString(20).c_str());
    if (analyze_) {
      obs::StatsReportOptions report_options;
      report_options.include_trace_tree = !trace_path_.empty();
      std::printf("(%zu rows)\n%s\n", table.num_rows(),
                  obs::FormatStatsReport(*plan, stats, kSites,
                                         report_options)
                      .c_str());
    } else {
      std::printf("(%zu rows)\n%s\n", table.num_rows(),
                  stats.ToString().c_str());
    }
    if (!trace_path_.empty()) {
      if (!obs::Tracer::Global().WriteChromeJson(trace_path_)) {
        std::printf("failed to write trace to %s\n", trace_path_.c_str());
      }
    }
  }

  DistributedWarehouse warehouse_;
  // Lazily-opened serving session over warehouse_'s partitions; all
  // shell queries go through it (and share its sub-aggregate cache).
  std::unique_ptr<serve::QuerySession> session_;
  OptimizerOptions options_;
  bool explain_ = true;
  bool analyze_ = false;
  std::string trace_path_;
};

}  // namespace
}  // namespace skalla

int main() { return skalla::Shell().Run(); }
