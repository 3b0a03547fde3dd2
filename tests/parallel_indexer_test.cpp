// Intra-node ParaPLL with real threads (paper §4.3–4.4): build::Run
// with BuildMode::kParallel, reporting per-worker load balance as
// parallel::ThreadReport.
#include "parapll/parallel_indexer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "pll/verify.hpp"

namespace parapll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using parallel::AssignmentPolicy;
using parallel::LockMode;

WeightOptions Uniform() { return WeightOptions{WeightModel::kUniform, 10}; }

build::BuildOutcome RunParallel(
    const Graph& g, std::size_t threads,
    AssignmentPolicy policy = AssignmentPolicy::kDynamic,
    LockMode lock = LockMode::kStriped) {
  return build::Run(g, {.mode = build::BuildMode::kParallel,
                        .threads = threads,
                        .policy = policy,
                        .lock_mode = lock});
}

struct Config {
  std::size_t threads;
  AssignmentPolicy policy;
  LockMode lock;
};

class ParallelIndexerExactness
    : public ::testing::TestWithParam<Config> {};

TEST_P(ParallelIndexerExactness, MatchesDijkstraOnMixedGraphs) {
  const Config config = GetParam();
  const std::vector<Graph> graphs = {
      graph::BarabasiAlbert(120, 3, Uniform(), 31),
      graph::ErdosRenyi(100, 250, Uniform(), 32),
      graph::RoadGrid(9, 9, 0.8, 4, Uniform(), 33),
  };
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const auto result =
        RunParallel(graphs[i], config.threads, config.policy, config.lock);
    const auto verdict =
        pll::VerifyExhaustive(graphs[i], result.artifact.index);
    EXPECT_TRUE(verdict.Ok()) << "graph " << i << " threads "
                              << config.threads << ": " << verdict.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyLockThreadSweep, ParallelIndexerExactness,
    ::testing::Values(
        Config{1, AssignmentPolicy::kStatic, LockMode::kStriped},
        Config{2, AssignmentPolicy::kStatic, LockMode::kGlobal},
        Config{4, AssignmentPolicy::kStatic, LockMode::kStriped},
        Config{4, AssignmentPolicy::kStatic, LockMode::kPerRow},
        Config{2, AssignmentPolicy::kDynamic, LockMode::kStriped},
        Config{4, AssignmentPolicy::kDynamic, LockMode::kGlobal},
        Config{4, AssignmentPolicy::kDynamic, LockMode::kPerRow},
        Config{8, AssignmentPolicy::kDynamic, LockMode::kStriped}));

TEST(ParallelIndexer, SingleThreadMatchesSerialIndexSize) {
  // With one thread there is no visibility relaxation: the label set must
  // equal the serial build's exactly (paper: "indexing time of ParaPLL
  // with a single thread almost equals that of PLL").
  const Graph g = graph::BarabasiAlbert(150, 3, Uniform(), 41);
  const auto parallel_result = RunParallel(g, 1);
  const auto serial_result = build::Run(g, {});
  const pll::LabelStore& parallel_store =
      parallel_result.artifact.index.Store();
  const pll::LabelStore& serial_store = serial_result.artifact.index.Store();
  EXPECT_EQ(parallel_store.TotalEntries(), serial_store.TotalEntries());
  EXPECT_EQ(parallel_store, serial_store);
}

TEST(ParallelIndexer, ThreadReportsCoverAllRoots) {
  const Graph g = graph::ErdosRenyi(80, 160, Uniform(), 42);
  const auto result = RunParallel(g, 4);
  std::size_t roots = 0;
  for (const auto& report : result.reports) {
    roots += report.roots_processed;
  }
  EXPECT_EQ(roots, g.NumVertices());
}

TEST(ParallelIndexer, StaticPolicySplitsRootsRoundRobin) {
  const Graph g = graph::ErdosRenyi(81, 160, Uniform(), 43);
  const auto result = RunParallel(g, 3, AssignmentPolicy::kStatic);
  ASSERT_EQ(result.reports.size(), 3u);
  for (const auto& report : result.reports) {
    EXPECT_EQ(report.roots_processed, 27u);
  }
}

TEST(ParallelIndexer, TraceHasOneEntryPerRoot) {
  const Graph g = graph::BarabasiAlbert(90, 2, Uniform(), 44);
  const auto result = build::Run(g, {.mode = build::BuildMode::kParallel,
                                     .threads = 4,
                                     .record_trace = true});
  ASSERT_EQ(result.trace.size(), g.NumVertices());
  std::vector<bool> seen(g.NumVertices(), false);
  std::size_t labels_total = 0;
  for (const auto& [root, stats] : result.trace) {
    EXPECT_FALSE(seen[root]);
    seen[root] = true;
    labels_total += stats.labels_added;
  }
  EXPECT_EQ(labels_total, result.totals.labels_added);
}

TEST(ParallelIndexer, MoreThreadsNeverLoseCorrectnessOnDisconnected) {
  const std::vector<graph::Edge> edges = {
      {0, 1, 2}, {1, 2, 2}, {3, 4, 5}, {4, 5, 1}};
  const Graph g = Graph::FromEdges(7, edges);  // vertex 6 isolated
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const auto result = RunParallel(g, threads);
    const pll::Index& index = result.artifact.index;
    EXPECT_EQ(index.Query(0, 2), 4u);
    EXPECT_EQ(index.Query(3, 5), 6u);
    EXPECT_EQ(index.Query(0, 3), graph::kInfiniteDistance);
    EXPECT_EQ(index.Query(6, 0), graph::kInfiniteDistance);
  }
}

TEST(ParallelIndexer, ThreadReportsSplitBusyFromIdle) {
  const Graph g = graph::BarabasiAlbert(150, 3, Uniform(), 46);
  const auto result = RunParallel(g, 4);
  ASSERT_EQ(result.reports.size(), 4u);
  for (const auto& report : result.reports) {
    EXPECT_GE(report.busy_seconds, 0.0);
    EXPECT_GE(report.idle_seconds, 0.0);
    EXPECT_GE(report.WallSeconds(), report.busy_seconds);
    EXPECT_GE(report.Utilization(), 0.0);
    EXPECT_LE(report.Utilization(), 1.0);
  }
  EXPECT_GE(result.AvgUtilization(), 0.0);
  EXPECT_LE(result.AvgUtilization(), 1.0);
  // Workers spend the bulk of the build inside Pruned Dijkstra.
  double busy_total = 0.0;
  for (const auto& report : result.reports) {
    busy_total += report.busy_seconds;
  }
  EXPECT_GT(busy_total, 0.0);
}

TEST(ParallelIndexer, InstrumentedCountersMatchPruneStatsTotals) {
  // The obs counters are fed once per root from the same PruneStats the
  // build returns, so after a build with metrics on the registry must
  // agree exactly with result.totals.
  obs::Registry& registry = obs::Registry::Global();
  registry.Reset();
  obs::SetMetricsEnabled(true);
  const Graph g = graph::BarabasiAlbert(160, 3, Uniform(), 47);
  const auto result = RunParallel(g, 4);
  obs::SetMetricsEnabled(false);

  EXPECT_EQ(registry.GetCounter("pll.roots_expanded").Value(),
            g.NumVertices());
  EXPECT_EQ(registry.GetCounter("pll.settled").Value(),
            result.totals.settled);
  EXPECT_EQ(registry.GetCounter("pll.prune_hits").Value(),
            result.totals.pruned);
  EXPECT_EQ(registry.GetCounter("pll.labels_added").Value(),
            result.totals.labels_added);
  EXPECT_EQ(registry.GetCounter("pll.relaxations").Value(),
            result.totals.relaxations);
  EXPECT_EQ(registry.GetCounter("pll.heap_pushes").Value(),
            result.totals.heap_pushes);
  EXPECT_EQ(registry.GetCounter("pll.probe_entries").Value(),
            result.totals.probe_entries);
  // Labels-added histogram saw every root once.
  EXPECT_EQ(registry.GetHistogram("pll.labels_per_root").Snapshot().count,
            g.NumVertices());
  // Every Append took (and counted) a row lock at least once; reads lock
  // too, so acquired >= appended labels.
  EXPECT_GE(registry.GetCounter("store.lock_acquired").Value(),
            result.totals.labels_added);
  // The per-thread load-balance gauges were published.
  double busy_sum = 0.0;
  for (std::size_t t = 0; t < result.reports.size(); ++t) {
    const std::string prefix = "indexer.thread." + std::to_string(t);
    busy_sum += registry.GetGauge(prefix + ".busy_seconds").Value();
    EXPECT_DOUBLE_EQ(
        registry.GetGauge(prefix + ".roots_processed").Value(),
        static_cast<double>(result.reports[t].roots_processed));
  }
  double busy_expected = 0.0;
  for (const auto& report : result.reports) {
    busy_expected += report.busy_seconds;
  }
  EXPECT_DOUBLE_EQ(busy_sum, busy_expected);
}

TEST(ParallelIndexer, LabelCountAtLeastSerial) {
  // Relaxed visibility can only add labels, never remove them.
  const Graph g = graph::BarabasiAlbert(200, 3, Uniform(), 45);
  const std::size_t serial_entries =
      build::Run(g, {}).artifact.index.TotalEntries();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    const auto result = RunParallel(g, threads);
    EXPECT_GE(result.artifact.index.TotalEntries(), serial_entries);
  }
}

}  // namespace
}  // namespace parapll
