// build::Run is the one build entry point: every BuildMode yields an exact
// index and a filled-in BuildOutcome, the cost-unit figures relate as the
// modes promise, and the plan's knobs reach the build.
#include "build/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "build/build_plan.hpp"
#include "graph/generators.hpp"
#include "pll/verify.hpp"

namespace parapll::build {
namespace {

graph::Graph SmallGraph(std::uint64_t seed) {
  return graph::BarabasiAlbert(100, 3, {graph::WeightModel::kUniform, 10},
                               seed);
}

TEST(BuildRun, EveryModeIsExactAndFillsTheOutcome) {
  const graph::Graph g = SmallGraph(91);
  for (const BuildMode mode :
       {BuildMode::kSerial, BuildMode::kParallel, BuildMode::kSimulated,
        BuildMode::kCluster}) {
    SCOPED_TRACE(ToString(mode));
    const BuildOutcome outcome = build::Run(
        g, {.mode = mode, .threads = 3, .nodes = 2, .sync_count = 2});
    const pll::Index& index = outcome.artifact.index;
    const auto verdict = pll::VerifyExhaustive(g, index);
    EXPECT_TRUE(verdict.Ok()) << verdict.ToString();
    EXPECT_EQ(index.Manifest().mode, ToString(mode));
    EXPECT_GT(index.AvgLabelSize(), 0.0);
    EXPECT_GT(index.TotalEntries(), 0u);
    EXPECT_GT(index.MemoryBytes(), 0u);
    EXPECT_GT(outcome.totals.labels_added, 0u);
    EXPECT_GT(outcome.total_units, 0.0);
  }
}

TEST(BuildRun, SimulatedMakespanIsBelowTotalUnits) {
  const BuildOutcome outcome = build::Run(
      SmallGraph(93), {.mode = BuildMode::kSimulated, .threads = 4});
  EXPECT_GT(outcome.makespan_units, 0.0);
  EXPECT_GT(outcome.total_units, outcome.makespan_units);
}

TEST(BuildRun, SerialMakespanEqualsTotalUnits) {
  const BuildOutcome outcome = build::Run(SmallGraph(94), {});
  EXPECT_GT(outcome.total_units, 0.0);
  EXPECT_DOUBLE_EQ(outcome.makespan_units, outcome.total_units);
}

TEST(BuildRun, ModeNamesAreStable) {
  EXPECT_EQ(ToString(BuildMode::kSerial), "serial");
  EXPECT_EQ(ToString(BuildMode::kParallel), "parallel");
  EXPECT_EQ(ToString(BuildMode::kSimulated), "simulated");
  EXPECT_EQ(ToString(BuildMode::kCluster), "cluster");
}

TEST(BuildRun, OrderingKnobIsHonored) {
  const graph::Graph g = SmallGraph(95);
  const BuildOutcome by_degree =
      build::Run(g, {.ordering = pll::OrderingPolicy::kDegree});
  const BuildOutcome by_random =
      build::Run(g, {.ordering = pll::OrderingPolicy::kRandom, .seed = 123});
  EXPECT_EQ(by_degree.artifact.Manifest().ordering, "degree");
  EXPECT_EQ(by_random.artifact.Manifest().ordering, "random");
  EXPECT_NE(by_degree.artifact.index.TotalEntries(),
            by_random.artifact.index.TotalEntries());
}

}  // namespace
}  // namespace parapll::build
