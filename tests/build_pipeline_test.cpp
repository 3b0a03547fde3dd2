// Cross-mode equivalence for the unified build pipeline: every BuildMode,
// under both assignment policies, must produce a Dijkstra-correct index
// with a faithful provenance manifest — on a power-law graph, a sparse
// random graph, and a road-like grid. This is the paper's Proposition 1–2
// claim ("any schedule yields redundant-but-correct labels") exercised
// through the one root-loop kernel all four modes now share.
#include "build/pipeline.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "build/build_plan.hpp"
#include "build/root_scheduler.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"
#include "vtime/cost_model.hpp"

namespace parapll::build {
namespace {

struct GraphCase {
  const char* name;
  graph::Graph g;
};

std::vector<GraphCase> TestGraphs() {
  std::vector<GraphCase> cases;
  cases.push_back(
      {"erdos_renyi",
       graph::ErdosRenyi(120, 360, {graph::WeightModel::kUniform, 50}, 11)});
  cases.push_back(
      {"barabasi_albert",
       graph::BarabasiAlbert(120, 3, {graph::WeightModel::kUniform, 20}, 12)});
  cases.push_back(
      {"road_grid",
       graph::RoadGrid(10, 12, 0.9, 4, {graph::WeightModel::kRoadLike, 100},
                       13)});
  return cases;
}

class PipelineModes
    : public ::testing::TestWithParam<
          std::tuple<BuildMode, parallel::AssignmentPolicy>> {};

TEST_P(PipelineModes, EveryGraphFamilyMatchesDijkstra) {
  const auto [mode, policy] = GetParam();
  for (const GraphCase& test_case : TestGraphs()) {
    SCOPED_TRACE(test_case.name);
    BuildPlan plan;
    plan.mode = mode;
    plan.policy = policy;
    plan.threads = 4;
    if (mode == BuildMode::kCluster) {
      plan.nodes = 3;
      plan.sync_count = 2;
    }
    const BuildOutcome outcome = build::Run(test_case.g, plan);
    EXPECT_TRUE(outcome.complete);

    const pll::Index& index = outcome.artifact.index;
    const pll::VerifyResult verdict =
        pll::VerifySampled(test_case.g, index, 300, 77);
    EXPECT_TRUE(verdict.Ok()) << verdict.ToString();

    const pll::BuildManifest& manifest = outcome.artifact.Manifest();
    EXPECT_EQ(manifest.mode, ToString(mode));
    EXPECT_EQ(manifest.policy, parallel::ToString(policy));
    EXPECT_EQ(manifest.ordering, "degree");
    EXPECT_EQ(manifest.num_vertices, test_case.g.NumVertices());
    EXPECT_EQ(manifest.num_edges, test_case.g.NumEdges());
    EXPECT_EQ(manifest.graph_fingerprint, graph::Fingerprint(test_case.g));
    EXPECT_EQ(manifest.roots_completed, test_case.g.NumVertices());
    EXPECT_TRUE(manifest.IsComplete());
    EXPECT_FALSE(outcome.artifact.IsCheckpoint());
    EXPECT_GT(manifest.totals.labels_added, 0u);
    EXPECT_NO_THROW(ValidateManifestAgainstGraph(manifest, test_case.g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModesAndPolicies, PipelineModes,
    ::testing::Combine(::testing::Values(BuildMode::kSerial,
                                         BuildMode::kParallel,
                                         BuildMode::kSimulated,
                                         BuildMode::kCluster),
                       ::testing::Values(parallel::AssignmentPolicy::kStatic,
                                         parallel::AssignmentPolicy::kDynamic)),
    [](const auto& info) {
      return ToString(std::get<0>(info.param)) + std::string("_") +
             std::string(parallel::ToString(std::get<1>(info.param)));
    });

// The four modes agree not just with Dijkstra but with *each other*:
// identical distance matrices on a fixed sample, whatever the schedule.
TEST(Pipeline, ModesAgreePairwise) {
  const graph::Graph g =
      graph::BarabasiAlbert(90, 3, {graph::WeightModel::kUniform, 30}, 21);
  std::vector<pll::Index> indices;
  for (const BuildMode mode :
       {BuildMode::kSerial, BuildMode::kParallel, BuildMode::kSimulated,
        BuildMode::kCluster}) {
    BuildPlan plan;
    plan.mode = mode;
    plan.threads = 3;
    plan.nodes = 2;
    plan.sync_count = 2;
    indices.push_back(build::Run(g, plan).artifact.index);
  }
  for (graph::VertexId s = 0; s < g.NumVertices(); s += 7) {
    for (graph::VertexId t = 0; t < g.NumVertices(); t += 5) {
      const graph::Distance expected = indices[0].Query(s, t);
      for (std::size_t i = 1; i < indices.size(); ++i) {
        ASSERT_EQ(indices[i].Query(s, t), expected)
            << "mode " << i << " disagrees on (" << s << ", " << t << ")";
      }
    }
  }
}

TEST(Pipeline, SerialTraceIsRankOrdered) {
  const graph::Graph g =
      graph::ErdosRenyi(60, 150, {graph::WeightModel::kUniform, 9}, 31);
  BuildPlan plan;
  plan.record_trace = true;
  const BuildOutcome outcome = build::Run(g, plan);
  ASSERT_EQ(outcome.trace.size(), g.NumVertices());
  for (std::size_t i = 0; i < outcome.trace.size(); ++i) {
    EXPECT_EQ(outcome.trace[i].first, static_cast<graph::VertexId>(i));
  }
}

TEST(Pipeline, InvalidPlansAreRejected) {
  const graph::Graph g =
      graph::Path(8, {graph::WeightModel::kUnit, 1}, 1);
  {
    BuildPlan plan;
    plan.threads = 0;
    EXPECT_THROW(build::Run(g, plan), std::runtime_error);
  }
  {
    BuildPlan plan;
    plan.mode = BuildMode::kSimulated;
    plan.checkpoint_dir = "/tmp/nope";
    EXPECT_THROW(build::Run(g, plan), std::runtime_error);  // sim can't checkpoint
  }
  {
    BuildPlan plan;
    plan.mode = BuildMode::kCluster;
    plan.halt_after_roots = 3;
    EXPECT_THROW(build::Run(g, plan), std::runtime_error);  // cluster can't halt
  }
  {
    BuildPlan plan;
    plan.checkpoint_every = 5;  // periodic snapshots need a directory
    EXPECT_THROW(build::Run(g, plan), std::runtime_error);
  }
}

// The schedulers underneath the kernel: static round-robin and the dynamic
// cursor must both hand out each root exactly once, and LowerBound() must
// never overtake the set of claimed roots.
TEST(RootSchedulers, EachRootClaimedExactlyOnce) {
  constexpr graph::VertexId kBegin = 10;
  constexpr graph::VertexId kEnd = 55;
  for (const parallel::AssignmentPolicy policy :
       {parallel::AssignmentPolicy::kStatic,
        parallel::AssignmentPolicy::kDynamic}) {
    SCOPED_TRACE(parallel::ToString(policy));
    auto scheduler = MakeRangeScheduler(policy, kBegin, kEnd, 4);
    std::vector<int> seen(kEnd, 0);
    for (std::size_t w = 0; w < 4; ++w) {
      for (;;) {
        const graph::VertexId root = scheduler->Claim(w);
        if (root == graph::kInvalidVertex) {
          break;
        }
        ASSERT_GE(root, kBegin);
        ASSERT_LT(root, kEnd);
        ++seen[root];
      }
    }
    for (graph::VertexId r = kBegin; r < kEnd; ++r) {
      EXPECT_EQ(seen[r], 1) << "root " << r;
    }
    EXPECT_EQ(scheduler->LowerBound(), kEnd);
  }
}

// Run() surfaces the build cursor: a complete parallel build reports
// every root done, in the outcome and in the manifest.
TEST(Pipeline, ParallelOutcomeReportsCompletion) {
  const graph::Graph g =
      graph::BarabasiAlbert(70, 2, {graph::WeightModel::kUniform, 15}, 41);
  const BuildOutcome outcome =
      build::Run(g, {.mode = BuildMode::kParallel, .threads = 3});
  const pll::Index& index = outcome.artifact.index;
  EXPECT_TRUE(outcome.complete);
  EXPECT_EQ(outcome.roots_finished, g.NumVertices());
  EXPECT_EQ(index.Manifest().roots_completed, g.NumVertices());
  EXPECT_TRUE(pll::VerifySampled(g, index, 200, 5).Ok());
  EXPECT_EQ(index.Manifest().mode, "parallel");
}

graph::Graph SmallGraph(std::uint64_t seed) {
  return graph::BarabasiAlbert(100, 3, {graph::WeightModel::kUniform, 10},
                               seed);
}

// total_units is the sum of per-root CostModel units in every mode, so a
// serial calibration (wall_seconds / total_units) converts any mode's
// makespan at the same per-root task overhead. Each mode is checked
// against a sum it did not compute: the per-root trace where one is
// recorded, and for a one-node one-worker cluster its own makespan, which
// is that sum on a single virtual clock.
TEST(Pipeline, TotalUnitsSumPerRootUnitsInEveryMode) {
  const graph::Graph g = SmallGraph(96);
  const vtime::CostModel cost;
  const auto expect_close = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, 1e-9 * expected);
  };
  for (const BuildMode mode :
       {BuildMode::kSerial, BuildMode::kParallel, BuildMode::kSimulated}) {
    SCOPED_TRACE(ToString(mode));
    const BuildOutcome outcome = build::Run(
        g, {.mode = mode, .threads = 3, .record_trace = true});
    ASSERT_EQ(outcome.trace.size(), g.NumVertices());
    double per_root_sum = 0.0;
    for (const auto& [root, stats] : outcome.trace) {
      per_root_sum += cost.Units(stats);
    }
    expect_close(outcome.total_units, per_root_sum);
  }
  const BuildOutcome cluster = build::Run(
      g, {.mode = BuildMode::kCluster, .nodes = 1, .sync_count = 1});
  expect_close(cluster.total_units, cluster.makespan_units);

  // The closed form holds for every mode, cluster with real syncs too.
  for (const BuildMode mode :
       {BuildMode::kSerial, BuildMode::kParallel, BuildMode::kSimulated,
        BuildMode::kCluster}) {
    SCOPED_TRACE(ToString(mode));
    const BuildOutcome outcome = build::Run(
        g, {.mode = mode, .threads = 2, .nodes = 3, .sync_count = 4});
    expect_close(outcome.total_units,
                 cost.Units(outcome.totals) +
                     static_cast<double>(g.NumVertices() - 1) *
                         cost.task_overhead);
  }
}

}  // namespace
}  // namespace parapll::build
