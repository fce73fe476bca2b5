#include "dist/tree.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "dist/coordinator.h"
#include "net/serde.h"
#include "obs/trace.h"
#include "rpc/frame.h"

namespace skalla {

CoordinatorTree CoordinatorTree::Balanced(size_t num_sites, size_t fanout) {
  if (fanout < 2) fanout = 2;
  CoordinatorTree tree;
  if (num_sites == 0) {
    tree.nodes.push_back(Node{});
    return tree;
  }
  // Creates the node covering sites [lo, hi); returns its index.
  std::function<int(size_t, size_t, int, size_t)> build =
      [&](size_t lo, size_t hi, int parent, size_t depth) -> int {
    int idx = static_cast<int>(tree.nodes.size());
    tree.nodes.push_back(Node{parent, {}, {}, depth});
    size_t count = hi - lo;
    if (count <= fanout) {
      for (size_t s = lo; s < hi; ++s) {
        tree.nodes[static_cast<size_t>(idx)].child_sites.push_back(
            static_cast<int>(s));
      }
      return idx;
    }
    size_t base = count / fanout;
    size_t rem = count % fanout;
    size_t start = lo;
    for (size_t c = 0; c < fanout; ++c) {
      size_t len = base + (c < rem ? 1 : 0);
      if (len == 0) continue;
      if (len == 1) {
        tree.nodes[static_cast<size_t>(idx)].child_sites.push_back(
            static_cast<int>(start));
      } else {
        int child = build(start, start + len, idx, depth + 1);
        tree.nodes[static_cast<size_t>(idx)].child_nodes.push_back(child);
      }
      start += len;
    }
    return idx;
  };
  build(0, num_sites, -1, 0);
  return tree;
}

size_t CoordinatorTree::depth() const {
  size_t d = 0;
  for (const Node& node : nodes) d = std::max(d, node.depth);
  return d + 1;
}

std::string CoordinatorTree::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    out += StrCat(std::string(nodes[i].depth * 2, ' '), "coord", i, ": ");
    std::vector<std::string> parts;
    for (int c : nodes[i].child_nodes) parts.push_back(StrCat("coord", c));
    for (int s : nodes[i].child_sites) parts.push_back(StrCat("site", s));
    out += Join(parts, ", ");
    out += "\n";
  }
  return out;
}

std::vector<int> CoordinatorTree::SitesUnder(int node) const {
  std::vector<int> sites;
  std::vector<int> stack{node};
  while (!stack.empty()) {
    int n = stack.back();
    stack.pop_back();
    const Node& current = nodes[static_cast<size_t>(n)];
    sites.insert(sites.end(), current.child_sites.begin(),
                 current.child_sites.end());
    stack.insert(stack.end(), current.child_nodes.begin(),
                 current.child_nodes.end());
  }
  return sites;
}

TreeExecutor::TreeExecutor(std::vector<Site> sites, CoordinatorTree tree,
                           NetworkConfig net_config, ExecutorOptions options)
    : fleet_{std::move(sites), {}},
      tree_(std::move(tree)),
      network_(net_config),
      options_(options) {}

void TreeExecutor::AddReplica(size_t partition, Site replica) {
  fleet_.replicas[partition].push_back(std::move(replica));
}

namespace {

// Per-round accounting shared by the recursive phases.
struct RoundAccum {
  explicit RoundAccum(size_t num_nodes)
      : link_time(num_nodes, 0.0), merge_time(num_nodes, 0.0) {}
  std::vector<double> link_time;   // Transfer time charged per node.
  std::vector<double> merge_time;  // Merge/filter compute per node.
  uint64_t root_bytes = 0;
  // Split by direction: down = toward the sites, up = toward the root.
  uint64_t bytes_down = 0;
  uint64_t bytes_up = 0;
  uint64_t tuples_down = 0;
  uint64_t tuples_up = 0;
};

// Network endpoint id of coordinator node i (sites use their own ids).
int NodeEndpoint(int node) { return -(node + 1); }

Result<Table> ShipOverLink(SimulatedNetwork* network, const Table& table,
                           int from, int to, int charged_node, bool downward,
                           RoundAccum* accum) {
  // Every hop travels inside the versioned wire frame (rpc/frame.h), the
  // same envelope the TCP transport uses. Byte accounting counts the
  // table payload only; the constant frame header is transport overhead.
  std::vector<uint8_t> payload;
  WriteTable(table, &payload);
  if (downward) {
    accum->bytes_down += payload.size();
    accum->tuples_down += table.num_rows();
  } else {
    accum->bytes_up += payload.size();
    accum->tuples_up += table.num_rows();
  }
  if (charged_node == 0) accum->root_bytes += payload.size();
  accum->link_time[static_cast<size_t>(charged_node)] +=
      network->Transfer(from, to, payload.size());
  std::vector<uint8_t> wire =
      rpc::EncodeFrame(rpc::MessageType::kTableResult, payload);
  SKALLA_ASSIGN_OR_RETURN(rpc::Frame frame, rpc::DecodeFrame(wire));
  return ReadTable(frame.payload.data(), frame.payload.size());
}

// Folds per-node values into a response-time contribution: levels are
// sequential, nodes within a level work in parallel.
double SumOfLevelMaxima(const CoordinatorTree& tree,
                        const std::vector<double>& per_node) {
  std::vector<double> level_max(tree.depth(), 0.0);
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    level_max[tree.nodes[i].depth] =
        std::max(level_max[tree.nodes[i].depth], per_node[i]);
  }
  double total = 0;
  for (double v : level_max) total += v;
  return total;
}

// Copies the direction-split accumulators into the round's stats.
void FoldAccum(const CoordinatorTree& tree, const RoundAccum& accum,
               RoundStats* rs) {
  rs->bytes_to_sites = accum.bytes_down;
  rs->bytes_to_coord = accum.bytes_up;
  rs->tuples_to_sites = accum.tuples_down;
  rs->tuples_to_coord = accum.tuples_up;
  rs->root_bytes = accum.root_bytes;
  rs->comm_time = SumOfLevelMaxima(tree, accum.link_time);
  rs->coord_time = SumOfLevelMaxima(tree, accum.merge_time);
}

}  // namespace

Result<Table> TreeExecutor::Execute(const DistributedPlan& plan,
                                    const QueryRun& run, ExecStats* stats) {
  SKALLA_RETURN_NOT_OK(ValidatePlan(plan, fleet_.sites.size()));
  SKALLA_RETURN_NOT_OK(fleet_.Validate());

  ExecStats local_stats;
  ExecStats& st = stats == nullptr ? local_stats : *stats;
  st.rounds.clear();

  // Tree rounds aggregate through intermediate tiers, so there is no
  // per-site coordinator-visible round; site_profiles stay empty here.
  const uint64_t query_id = ResolveQueryId(run);
  obs::QueryIdScope query_scope(query_id);
  st.query_id = query_id;

  const size_t n = fleet_.sites.size();
  std::vector<Table> local_base(n);
  bool have_global = false;
  const QueryDeadline deadline(options_, run);
  // Partitions whose every replica is gone; only DegradesOnLoss sets
  // these — the query completes over the survivors and the loss is
  // reported in st.lost_sites / RoundStats::sites_lost.
  std::vector<uint8_t> lost(n, 0);
  st.lost_sites.clear();

  // One merge pool shared by every tier's coordinator (safe: dispatch is
  // ThreadPool::ParallelFor, which never waits on other clients' tasks).
  const size_t shards = ResolveCoordinatorShards(options_.coordinator_shards);
  std::unique_ptr<ThreadPool> merge_pool;
  if (shards > 1) merge_pool = std::make_unique<ThreadPool>(shards - 1);
  Coordinator root(plan.key_columns, shards, merge_pool.get());

  SKALLA_ASSIGN_OR_RETURN(
      const DataProvider* probe,
      fleet_.sites[0].catalog().GetProvider(plan.base.table));
  SKALLA_ASSIGN_OR_RETURN(SchemaPtr upstream,
                          plan.base.OutputSchema(*probe->schema()));

  // ---- Base round ---------------------------------------------------------
  {
    RoundStats rs;
    rs.label = "base";
    rs.synchronized = plan.sync_base;
    RoundAccum accum(tree_.nodes.size());
    CancellationToken round_cancel;
    SKALLA_RETURN_NOT_OK(deadline.ArmRound(rs.label, &round_cancel));
    for (size_t i = 0; i < n; ++i) {
      Stopwatch timer;
      SiteRoundCounts counts;
      Result<Table> b_i = ExecuteSiteRoundReplicated(
          options_, fleet_.ReplicaIds(i), rs.label,
          [&](size_t r) {
            return fleet_.Replica(i, r).ExecuteBaseQuery(plan.base);
          },
          &counts, &round_cancel);
      rs.site_retries += counts.retries;
      rs.site_failovers += counts.failovers;
      if (!b_i.ok()) {
        if (!DegradesOnLoss(options_, b_i.status())) return b_i.status();
        lost[i] = 1;
        st.lost_sites.push_back(fleet_.sites[i].id());
        local_base[i] = Table();
        continue;
      }
      local_base[i] = std::move(*b_i);
      double elapsed = timer.ElapsedSeconds();
      rs.site_time_max = std::max(rs.site_time_max, elapsed);
      rs.site_time_sum += elapsed;
    }
    for (size_t i = 0; i < n; ++i) rs.sites_lost += lost[i];
    if (plan.sync_base) {
      // Post-order distinct-union up the tree.
      std::function<Result<Table>(int)> merge_up =
          [&](int node) -> Result<Table> {
        Coordinator c({}, shards, merge_pool.get());
        SKALLA_RETURN_NOT_OK(c.InitBase(upstream));
        const CoordinatorTree::Node& current =
            tree_.nodes[static_cast<size_t>(node)];
        for (int s : current.child_sites) {
          if (lost[static_cast<size_t>(s)]) continue;
          SKALLA_ASSIGN_OR_RETURN(
              Table received,
              ShipOverLink(&network_, local_base[static_cast<size_t>(s)], s,
                           NodeEndpoint(node), node, /*downward=*/false,
                           &accum));
          Stopwatch timer;
          SKALLA_RETURN_NOT_OK(c.MergeBaseFragment(received));
          accum.merge_time[static_cast<size_t>(node)] +=
              timer.ElapsedSeconds();
          local_base[static_cast<size_t>(s)] = Table();
        }
        for (int child : current.child_nodes) {
          SKALLA_ASSIGN_OR_RETURN(Table fragment, merge_up(child));
          SKALLA_ASSIGN_OR_RETURN(
              Table received,
              ShipOverLink(&network_, fragment, NodeEndpoint(child),
                           NodeEndpoint(node), node, /*downward=*/false,
                           &accum));
          Stopwatch timer;
          SKALLA_RETURN_NOT_OK(c.MergeBaseFragment(received));
          accum.merge_time[static_cast<size_t>(node)] +=
              timer.ElapsedSeconds();
        }
        return c.TakeBaseFragment();
      };
      SKALLA_ASSIGN_OR_RETURN(Table global_base, merge_up(0));
      root.SetResult(std::move(global_base));
      have_global = true;
    }
    FoldAccum(tree_, accum, &rs);
    st.rounds.push_back(std::move(rs));
  }

  // ---- GMDJ stages ---------------------------------------------------------
  for (size_t k = 0; k < plan.stages.size(); ++k) {
    const PlanStage& stage = plan.stages[k];
    RoundStats rs;
    rs.label = StrCat("md", k + 1);
    rs.synchronized = stage.sync_after;
    RoundAccum accum(tree_.nodes.size());
    CancellationToken round_cancel;
    SKALLA_RETURN_NOT_OK(deadline.ArmRound(rs.label, &round_cancel));

    SKALLA_ASSIGN_OR_RETURN(
        const DataProvider* detail_probe,
        fleet_.sites[0].catalog().GetProvider(stage.op.detail_table));
    const Schema& detail_schema = *detail_probe->schema();

    // Bind the per-site aware-GR filters once against the upstream schema.
    std::vector<ExprPtr> bound_filters(n);
    bool any_filter = false;
    if (!stage.site_base_filters.empty()) {
      for (size_t i = 0; i < n; ++i) {
        if (stage.site_base_filters[i] == nullptr) continue;
        SKALLA_ASSIGN_OR_RETURN(
            bound_filters[i],
            stage.site_base_filters[i]->Bind(upstream.get(), nullptr));
        any_filter = true;
      }
    }

    if (have_global) {
      // Relay the global structure down the tree, pruning each subtree
      // link to the rows some descendant site can match.
      std::function<Status(int, const Table&)> distribute =
          [&](int node, const Table& table) -> Status {
        const CoordinatorTree::Node& current =
            tree_.nodes[static_cast<size_t>(node)];
        for (int s : current.child_sites) {
          if (lost[static_cast<size_t>(s)]) continue;
          Table to_send(table.schema());
          {
            Stopwatch timer;
            if (any_filter && bound_filters[static_cast<size_t>(s)]) {
              const ExprPtr& f = bound_filters[static_cast<size_t>(s)];
              for (size_t r = 0; r < table.num_rows(); ++r) {
                if (f->EvalBool(&table.row(r), nullptr)) {
                  to_send.AppendUnchecked(table.row(r));
                }
              }
            } else {
              to_send = table;
            }
            accum.merge_time[static_cast<size_t>(node)] +=
                timer.ElapsedSeconds();
          }
          SKALLA_ASSIGN_OR_RETURN(
              local_base[static_cast<size_t>(s)],
              ShipOverLink(&network_, to_send, NodeEndpoint(node), s, node,
                           /*downward=*/true, &accum));
        }
        for (int child : current.child_nodes) {
          Table to_send(table.schema());
          {
            Stopwatch timer;
            if (any_filter) {
              std::vector<int> subtree = tree_.SitesUnder(child);
              bool all_unfiltered = false;
              for (int s : subtree) {
                if (bound_filters[static_cast<size_t>(s)] == nullptr) {
                  all_unfiltered = true;
                  break;
                }
              }
              if (all_unfiltered) {
                to_send = table;
              } else {
                for (size_t r = 0; r < table.num_rows(); ++r) {
                  for (int s : subtree) {
                    if (bound_filters[static_cast<size_t>(s)]->EvalBool(
                            &table.row(r), nullptr)) {
                      to_send.AppendUnchecked(table.row(r));
                      break;
                    }
                  }
                }
              }
            } else {
              to_send = table;
            }
            accum.merge_time[static_cast<size_t>(node)] +=
                timer.ElapsedSeconds();
          }
          SKALLA_ASSIGN_OR_RETURN(
              Table received,
              ShipOverLink(&network_, to_send, NodeEndpoint(node),
                           NodeEndpoint(child), node, /*downward=*/true,
                           &accum));
          SKALLA_RETURN_NOT_OK(distribute(child, received));
        }
        return Status::OK();
      };
      SKALLA_RETURN_NOT_OK(distribute(0, root.result()));
    }

    // Local evaluation at every site.
    EvalContext eval_context = StageEvalContext(options_, run, stage);
    eval_context.cancellation = &round_cancel;
    std::vector<Table> outputs(n);
    for (size_t i = 0; i < n; ++i) {
      if (lost[i]) continue;
      Stopwatch timer;
      SiteRoundCounts counts;
      Result<Table> attempt_result = ExecuteSiteRoundReplicated(
          options_, fleet_.ReplicaIds(i), rs.label,
          [&](size_t r) {
            return fleet_.Replica(i, r).EvalGmdjRound(local_base[i],
                                                      stage.op, eval_context);
          },
          &counts, &round_cancel);
      rs.site_retries += counts.retries;
      rs.site_failovers += counts.failovers;
      if (!attempt_result.ok()) {
        if (!DegradesOnLoss(options_, attempt_result.status())) {
          return attempt_result.status();
        }
        lost[i] = 1;
        st.lost_sites.push_back(fleet_.sites[i].id());
        local_base[i] = Table();
        continue;
      }
      Table result = std::move(*attempt_result);
      if (eval_context.compute_rng) {
        SKALLA_ASSIGN_OR_RETURN(result, ApplyRngFilter(result));
      }
      double elapsed = timer.ElapsedSeconds();
      rs.site_time_max = std::max(rs.site_time_max, elapsed);
      rs.site_time_sum += elapsed;
      outputs[i] = std::move(result);
    }

    if (stage.sync_after) {
      // Post-order partial merge up the tree; the root finalizes.
      std::function<Result<Table>(int)> merge_up =
          [&](int node) -> Result<Table> {
        Coordinator c(plan.key_columns, shards, merge_pool.get());
        SKALLA_RETURN_NOT_OK(c.BeginRound(stage.op, *upstream,
                                          detail_schema,
                                          /*from_scratch=*/true));
        const CoordinatorTree::Node& current =
            tree_.nodes[static_cast<size_t>(node)];
        for (int s : current.child_sites) {
          if (lost[static_cast<size_t>(s)]) continue;
          SKALLA_ASSIGN_OR_RETURN(
              Table received,
              ShipOverLink(&network_, outputs[static_cast<size_t>(s)], s,
                           NodeEndpoint(node), node, /*downward=*/false,
                           &accum));
          Stopwatch timer;
          SKALLA_RETURN_NOT_OK(c.MergeFragment(received));
          accum.merge_time[static_cast<size_t>(node)] +=
              timer.ElapsedSeconds();
        }
        for (int child : current.child_nodes) {
          SKALLA_ASSIGN_OR_RETURN(Table fragment, merge_up(child));
          SKALLA_ASSIGN_OR_RETURN(
              Table received,
              ShipOverLink(&network_, fragment, NodeEndpoint(child),
                           NodeEndpoint(node), node, /*downward=*/false,
                           &accum));
          Stopwatch timer;
          SKALLA_RETURN_NOT_OK(c.MergeFragment(received));
          accum.merge_time[static_cast<size_t>(node)] +=
              timer.ElapsedSeconds();
        }
        return c.TakeWorkingFragment();
      };

      // The root merges like any node, but seeded from X when the global
      // structure exists, and finalizing super-aggregates at the end.
      SKALLA_RETURN_NOT_OK(root.BeginRound(stage.op, *upstream,
                                           detail_schema,
                                           /*from_scratch=*/!have_global));
      const CoordinatorTree::Node& root_node = tree_.nodes[0];
      for (int s : root_node.child_sites) {
        if (lost[static_cast<size_t>(s)]) continue;
        SKALLA_ASSIGN_OR_RETURN(
            Table received,
            ShipOverLink(&network_, outputs[static_cast<size_t>(s)], s,
                         NodeEndpoint(0), 0, /*downward=*/false, &accum));
        Stopwatch timer;
        SKALLA_RETURN_NOT_OK(root.MergeFragment(received));
        accum.merge_time[0] += timer.ElapsedSeconds();
      }
      for (int child : root_node.child_nodes) {
        SKALLA_ASSIGN_OR_RETURN(Table fragment, merge_up(child));
        SKALLA_ASSIGN_OR_RETURN(
            Table received,
            ShipOverLink(&network_, fragment, NodeEndpoint(child),
                         NodeEndpoint(0), 0, /*downward=*/false, &accum));
        Stopwatch timer;
        SKALLA_RETURN_NOT_OK(root.MergeFragment(received));
        accum.merge_time[0] += timer.ElapsedSeconds();
      }
      {
        Stopwatch timer;
        SKALLA_RETURN_NOT_OK(root.FinalizeRound());
        accum.merge_time[0] += timer.ElapsedSeconds();
      }
      have_global = true;
      for (size_t i = 0; i < n; ++i) {
        outputs[i] = Table();
        local_base[i] = Table();
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        local_base[i] = std::move(outputs[i]);
      }
      have_global = false;
    }

    SKALLA_ASSIGN_OR_RETURN(upstream,
                            stage.op.OutputSchema(*upstream, detail_schema));
    for (size_t i = 0; i < n; ++i) rs.sites_lost += lost[i];
    FoldAccum(tree_, accum, &rs);
    st.rounds.push_back(std::move(rs));
  }

  if (!have_global) {
    return Status::Internal("plan finished without a global result");
  }
  std::sort(st.lost_sites.begin(), st.lost_sites.end());
  return root.result();
}

}  // namespace skalla
