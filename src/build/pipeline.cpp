#include "build/pipeline.hpp"

#include <algorithm>
#include <ctime>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "build/checkpoint.hpp"
#include "build/root_loop.hpp"
#include "build/root_scheduler.hpp"
#include "cluster/comm.hpp"
#include "cluster/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parapll/concurrent_label_store.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/timer.hpp"
#include "vtime/timestamped_labels.hpp"

namespace parapll::build {

namespace {

// Publishes the per-thread load-balance picture into the registry once
// per build (names like "indexer.thread.3.busy_seconds").
void RecordBuildMetrics(const BuildOutcome& outcome) {
  auto& registry = obs::Registry::Global();
  registry.GetGauge("indexer.wall_seconds").Set(outcome.wall_seconds);
  registry.GetGauge("indexer.avg_utilization").Set(outcome.AvgUtilization());
  registry.GetCounter("indexer.builds").Add(1);
  for (std::size_t t = 0; t < outcome.reports.size(); ++t) {
    const parallel::ThreadReport& report = outcome.reports[t];
    const std::string prefix = "indexer.thread." + std::to_string(t);
    registry.GetGauge(prefix + ".busy_seconds").Set(report.busy_seconds);
    registry.GetGauge(prefix + ".setup_seconds").Set(report.setup_seconds);
    registry.GetGauge(prefix + ".idle_seconds").Set(report.idle_seconds);
    registry.GetGauge(prefix + ".utilization").Set(report.Utilization());
    registry.GetGauge(prefix + ".roots_processed")
        .Set(static_cast<double>(report.roots_processed));
  }
}

// One threaded drain over the plan's remaining root range, with
// checkpointing wired in when the plan asks for it.
struct ThreadedDrain {
  RootLoopOutcome loop;
  graph::VertexId frontier = 0;  // == n when the drain ran to completion
  bool complete = true;
};

template <typename Labels>
ThreadedDrain DrainThreaded(const BuildPlan& plan,
                            const BuildContext& context,
                            const pll::BuildManifest& manifest,
                            Labels& labels, std::size_t workers) {
  const graph::VertexId n = context.rank_graph.NumVertices();
  auto scheduler =
      MakeRangeScheduler(plan.policy, context.start_rank, n, workers);
  RootLoopOptions options;
  options.workers = workers;
  options.record_trace = plan.record_trace;
  options.roots_total = n - context.start_rank;
  options.halt_after_roots = plan.halt_after_roots;
  std::optional<Checkpointer> checkpointer;
  if (!plan.checkpoint_dir.empty()) {
    checkpointer.emplace(
        CheckpointOptions{plan.checkpoint_dir, plan.checkpoint_every},
        manifest, context.order, [&labels](graph::VertexId limit) {
          return labels.SnapshotRows(limit);
        });
  }
  ThreadedDrain drain;
  drain.loop = DrainRoots(context.rank_graph, labels, *scheduler, options,
                          checkpointer ? &*checkpointer : nullptr);
  drain.complete = context.start_rank + drain.loop.roots_finished == n;
  // Every claimed root ran to completion, so the smallest unclaimed rank
  // is a true frontier: all ranks below it have finished.
  drain.frontier = drain.complete ? n : scheduler->LowerBound();
  if (checkpointer && !drain.complete) {
    checkpointer->Snapshot();  // final flush at the halt frontier
  }
  return drain;
}

void FillThreadedOutcome(const ThreadedDrain& drain,
                         pll::BuildManifest& manifest,
                         BuildOutcome& outcome) {
  outcome.totals = drain.loop.totals;
  outcome.roots_finished = drain.loop.roots_finished;
  outcome.wall_seconds = drain.loop.wall_seconds;
  outcome.complete = drain.complete;
  outcome.trace = drain.loop.trace;
  outcome.reports = drain.loop.reports;
  manifest.roots_completed = drain.frontier;
}

pll::LabelStore RunSerial(const BuildPlan& plan, BuildContext& context,
                          pll::BuildManifest& manifest,
                          BuildOutcome& outcome) {
  pll::MutableLabels labels =
      context.seed_rows.empty()
          ? pll::MutableLabels(context.rank_graph.NumVertices())
          : pll::MutableLabels(std::move(context.seed_rows));
  const ThreadedDrain drain =
      DrainThreaded(plan, context, manifest, labels, 1);
  FillThreadedOutcome(drain, manifest, outcome);
  return drain.complete
             ? pll::LabelStore::FromMutable(labels)
             : pll::LabelStore::FromRows(labels.SnapshotRows(drain.frontier));
}

pll::LabelStore RunParallel(const BuildPlan& plan, BuildContext& context,
                            pll::BuildManifest& manifest,
                            BuildOutcome& outcome) {
  PARAPLL_SPAN("build_parallel", "threads", plan.threads);
  parallel::ConcurrentLabelStore labels =
      context.seed_rows.empty()
          ? parallel::ConcurrentLabelStore(context.rank_graph.NumVertices(),
                                           plan.lock_mode)
          : parallel::ConcurrentLabelStore(std::move(context.seed_rows),
                                           plan.lock_mode);
  // Telemetry probe over the concurrent store's byte count, so a running
  // build is observable per sample instead of only post-hoc.
  const bool metrics = obs::MetricsEnabled();
  std::optional<obs::ScopedProbe> memory_probe;
  if (metrics) {
    memory_probe.emplace("store.memory_bytes", [&labels] {
      return static_cast<double>(labels.MemoryBytes());
    });
  }
  const ThreadedDrain drain =
      DrainThreaded(plan, context, manifest, labels, plan.threads);
  FillThreadedOutcome(drain, manifest, outcome);
  // Unregister the probe before TakeFinalized moves the rows out — a
  // sampler tick must not read the store mid-move. The gauge keeps the
  // final value.
  if (metrics) {
    obs::Registry::Global()
        .GetGauge("store.memory_bytes")
        .Set(static_cast<double>(labels.MemoryBytes()));
  }
  memory_probe.reset();
  pll::LabelStore store =
      drain.complete
          ? labels.TakeFinalized()
          : pll::LabelStore::FromRows(labels.SnapshotRows(drain.frontier));
  if (metrics) {
    RecordBuildMetrics(outcome);
  }
  return store;
}

pll::LabelStore RunSimulated(const BuildPlan& plan,
                             const BuildContext& context,
                             BuildOutcome& outcome) {
  const graph::VertexId n = context.rank_graph.NumVertices();
  vtime::TimestampedLabels labels(n);
  pll::PruneScratch scratch(n);
  auto scheduler = MakeRangeScheduler(plan.policy, 0, n, plan.threads);
  std::vector<double> clocks(plan.threads, 0.0);
  if (plan.record_trace) {
    outcome.trace.reserve(n);
  }
  util::WallTimer wall;
  DrainVirtualRoots(
      context.rank_graph, *scheduler, clocks, scratch, plan.cost,
      [&](std::size_t /*worker*/, double now) {
        return vtime::SimLabelView(labels, context.rank_graph, plan.cost,
                                   now);
      },
      [&](std::size_t /*worker*/, graph::VertexId root,
          const pll::PruneStats& stats) {
        outcome.totals += stats;
        ++outcome.roots_finished;
        if (plan.record_trace) {
          outcome.trace.emplace_back(root, stats);
        }
      });
  outcome.wall_seconds = wall.Seconds();
  outcome.worker_units = clocks;
  outcome.makespan_units =
      *std::max_element(clocks.begin(), clocks.end());
  return labels.Finalize();
}

// Forwards the Labels concept to a SimLabelView while logging appends into
// the node's pending update list (Alg. 3 lines 9–10).
class LoggingSimView {
 public:
  LoggingSimView(vtime::SimLabelView view,
                 std::vector<cluster::LabelUpdate>& log)
      : view_(std::move(view)), log_(log) {}

  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) {
    view_.ForEach(v, std::forward<F>(fn));
  }

  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist) {
    view_.Append(v, hub, dist);
    log_.push_back(cluster::LabelUpdate{v, hub, dist});
  }

 private:
  vtime::SimLabelView view_;
  std::vector<cluster::LabelUpdate>& log_;
};

struct NodeOutcome {
  double clock = 0.0;
  double comm_units = 0.0;
  double compute_units = 0.0;
  pll::PruneStats totals;
  std::unique_ptr<vtime::TimestampedLabels> labels;  // kept by rank 0 only
};

pll::LabelStore RunCluster(const BuildPlan& plan, const BuildContext& context,
                           BuildOutcome& outcome) {
  PARAPLL_SPAN("build_cluster", "nodes", plan.nodes);
  const graph::Graph& rank_graph = context.rank_graph;
  const graph::VertexId n = rank_graph.NumVertices();
  const std::size_t q = plan.nodes;
  const std::size_t p = plan.threads;  // workers per node
  const auto boundaries = cluster::SyncBoundaries(n, plan.sync_count);
  const auto owners =
      cluster::ComputeOwners(n, q, plan.ownership, plan.seed);

  cluster::Fabric fabric(q);
  std::vector<NodeOutcome> outcomes(q);
  std::size_t entries_exchanged_total = 0;  // guarded by exchange_mutex
  util::Mutex exchange_mutex;
  util::WallTimer wall;

  fabric.Run([&](cluster::Communicator& comm) {
    const std::size_t r = comm.Rank();
    PARAPLL_SPAN("cluster.node", "rank", r);
    auto labels = std::make_unique<vtime::TimestampedLabels>(n);
    pll::PruneScratch scratch(n);
    NodeOutcome& node = outcomes[r];
    std::vector<cluster::LabelUpdate> pending;
    double clock = 0.0;

    for (std::size_t epoch = 0; epoch + 1 < boundaries.size(); ++epoch) {
      // My roots in this epoch, per the inter-node ownership policy.
      std::vector<graph::VertexId> mine;
      for (graph::VertexId k = boundaries[epoch]; k < boundaries[epoch + 1];
           ++k) {
        if (owners[k] == r) {
          mine.push_back(k);
        }
      }

      // Virtual-time simulation of p intra-node workers over `mine`,
      // on the shared event-loop kernel.
      auto scheduler = MakeEpochScheduler(plan.policy, std::move(mine), p);
      std::vector<double> wclock(p, clock);
      DrainVirtualRoots(
          rank_graph, *scheduler, wclock, scratch, plan.cost,
          [&](std::size_t /*worker*/, double now) {
            return LoggingSimView(
                vtime::SimLabelView(*labels, rank_graph, plan.cost, now),
                pending);
          },
          [&](std::size_t /*worker*/, graph::VertexId /*root*/,
              const pll::PruneStats& stats) {
            node.totals += stats;
          });
      const double epoch_end = *std::max_element(wclock.begin(), wclock.end());
      node.compute_units += epoch_end - clock;
      clock = epoch_end;

      // Synchronization (Alg. 3 line 15): AllGather everyone's List.
      PARAPLL_SPAN("cluster.sync", "epoch", epoch);
      const auto parts =
          comm.AllGather(cluster::EncodeUpdates(clock, pending));
      double sync_start = clock;
      std::size_t total_entries = 0;
      std::vector<cluster::DecodedUpdates> decoded(q);
      for (std::size_t s = 0; s < q; ++s) {
        decoded[s] = cluster::DecodeUpdates(parts[s]);
        sync_start = std::max(sync_start, decoded[s].node_clock);
        total_entries += decoded[s].updates.size();
      }
      const double exchange = plan.comm.ExchangeUnits(total_entries, q);
      double merge_units = 0.0;
      std::size_t merged_entries = 0;
      const double visible_at = sync_start + exchange;
      for (std::size_t s = 0; s < q; ++s) {
        if (s == r) {
          continue;  // own updates are already in `labels`
        }
        for (const cluster::LabelUpdate& u : decoded[s].updates) {
          labels->Append(u.vertex, u.hub, u.dist, visible_at);
        }
        merged_entries += decoded[s].updates.size();
        merge_units += plan.comm.merge_per_entry *
                       static_cast<double>(decoded[s].updates.size());
      }
      clock = visible_at + merge_units;
      node.comm_units += exchange;
      node.compute_units += merge_units;
      pending.clear();
      if (r == 0) {
        util::MutexLock lock(exchange_mutex);
        entries_exchanged_total += total_entries;
      }
      if (obs::MetricsEnabled()) {
        auto& registry = obs::Registry::Global();
        static obs::Counter& merged =
            registry.GetCounter("cluster.labels_merged");
        static obs::Histogram& per_round =
            registry.GetHistogram("cluster.entries_per_sync");
        merged.Add(merged_entries);
        if (r == 0) {
          static obs::Counter& rounds =
              registry.GetCounter("cluster.sync_rounds");
          static obs::Counter& exchanged =
              registry.GetCounter("cluster.entries_exchanged");
          rounds.Add(1);
          exchanged.Add(total_entries);
          per_round.Record(total_entries);
          // Label growth on the representative node, refreshed at every
          // sync so the telemetry sampler sees it rise round by round.
          registry.GetGauge("cluster.labels_memory_bytes")
              .Set(static_cast<double>(labels->MemoryBytes()));
          registry.GetGauge("cluster.sync_rounds_done")
              .Set(static_cast<double>(epoch + 1));
          registry.GetGauge("cluster.sync_rounds_total")
              .Set(static_cast<double>(boundaries.size() - 1));
        }
      }
    }

    node.clock = clock;
    if (r == 0) {
      node.labels = std::move(labels);
    }
  });

  for (const NodeOutcome& node : outcomes) {
    outcome.makespan_units = std::max(outcome.makespan_units, node.clock);
    outcome.node_compute_units.push_back(node.compute_units);
    outcome.totals += node.totals;
  }
  outcome.comm_units = outcomes[0].comm_units;
  outcome.compute_units = outcome.makespan_units - outcome.comm_units;
  outcome.bytes_exchanged = fabric.TotalBytesSent();
  outcome.sync_rounds = boundaries.size() - 1;
  outcome.entries_exchanged = entries_exchanged_total;
  outcome.roots_finished = n;
  outcome.wall_seconds = wall.Seconds();
  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry::Global();
    registry.GetGauge("cluster.bytes_exchanged")
        .Set(static_cast<double>(outcome.bytes_exchanged));
    registry.GetGauge("cluster.makespan_units").Set(outcome.makespan_units);
    registry.GetGauge("cluster.comm_units").Set(outcome.comm_units);
  }
  PARAPLL_CHECK(outcomes[0].labels != nullptr);
  return outcomes[0].labels->Finalize();
}

}  // namespace

BuildOutcome Run(const graph::Graph& g, const BuildPlan& plan) {
  BuildContext context = Resolve(g, plan);  // validates the plan first
  pll::BuildManifest manifest = MakeManifest(plan, context);
  BuildOutcome outcome;
  pll::LabelStore store;
  switch (plan.mode) {
    case BuildMode::kSerial:
      store = RunSerial(plan, context, manifest, outcome);
      break;
    case BuildMode::kParallel:
      store = RunParallel(plan, context, manifest, outcome);
      break;
    case BuildMode::kSimulated:
      store = RunSimulated(plan, context, outcome);
      manifest.roots_completed = manifest.num_vertices;
      break;
    case BuildMode::kCluster:
      store = RunCluster(plan, context, outcome);
      manifest.roots_completed = manifest.num_vertices;
      break;
  }
  // CostModel::Units charges task_overhead once per call, so the sum over
  // roots_finished roots is one whole-run Units() plus the other roots'
  // overheads.
  outcome.total_units =
      plan.cost.Units(outcome.totals) +
      (static_cast<double>(outcome.roots_finished) - 1.0) *
          plan.cost.task_overhead;
  if (plan.mode == BuildMode::kSerial) {
    outcome.makespan_units = outcome.total_units;
  }
  // MakeManifest seeded totals/wall with the resumed prefix's share; add
  // this run's on top ("work expended": re-run roots count twice).
  manifest.totals += outcome.totals;
  manifest.wall_seconds += outcome.wall_seconds;
  manifest.created_unix = static_cast<std::uint64_t>(std::time(nullptr));

  pll::Index index(std::move(store), std::move(context.order));
  index.SetManifest(std::move(manifest));
  outcome.artifact = IndexArtifact{std::move(index)};
  return outcome;
}

}  // namespace parapll::build
