#include "pll/dynamic_index.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/dijkstra.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/ordering.hpp"
#include "util/rng.hpp"

namespace parapll::pll {
namespace {

using graph::Edge;
using graph::Graph;
using graph::VertexId;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 10};

DynamicIndex Seeded(const Graph& g, const build::BuildPlan& plan = {}) {
  return DynamicIndex(g, build::Run(g, plan).artifact.index);
}

TEST(DynamicIndex, FreshBuildAnswersExactly) {
  const Graph g = graph::BarabasiAlbert(80, 3, kUniform, 1);
  const DynamicIndex index = Seeded(g);
  for (VertexId s = 0; s < g.NumVertices(); s += 7) {
    const auto truth = baseline::DijkstraAll(g, s);
    for (VertexId t = 0; t < g.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth[t]);
    }
  }
}

TEST(DynamicIndex, SeedsFromAParallelBuild) {
  // Redundant labels from a relaxed-visibility build are still upper
  // bounds, so the seeded index stays exact before and after an insert.
  const Graph g = graph::BarabasiAlbert(80, 3, kUniform, 2);
  DynamicIndex index =
      Seeded(g, {.mode = build::BuildMode::kParallel, .threads = 3});
  index.AddEdge(0, 79, 1);
  std::vector<Edge> edges = g.ToEdgeList();
  edges.push_back(Edge{0, 79, 1});
  const Graph grown = Graph::FromEdges(g.NumVertices(), edges);
  for (VertexId s = 0; s < grown.NumVertices(); s += 9) {
    const auto truth = baseline::DijkstraAll(grown, s);
    for (VertexId t = 0; t < grown.NumVertices(); ++t) {
      ASSERT_EQ(index.Query(s, t), truth[t]);
    }
  }
}

TEST(DynamicIndex, InsertShortcutUpdatesDistance) {
  // Path 0-1-2-3-4, unit weights; adding 0-4 weight 1 collapses d(0,4).
  const Graph g = graph::Path(5, WeightOptions{WeightModel::kUnit, 1}, 1);
  DynamicIndex index = Seeded(g);
  EXPECT_EQ(index.Query(0, 4), 4u);
  index.AddEdge(0, 4, 1);
  EXPECT_EQ(index.Query(0, 4), 1u);
  EXPECT_EQ(index.Query(1, 4), 2u);  // via the new shortcut
  EXPECT_EQ(index.Query(0, 2), 2u);  // unaffected pairs stay exact
}

TEST(DynamicIndex, InsertConnectsComponents) {
  const std::vector<Edge> edges = {{0, 1, 2}, {2, 3, 3}};
  const Graph g = Graph::FromEdges(4, edges);
  DynamicIndex index = Seeded(g);
  EXPECT_EQ(index.Query(0, 3), graph::kInfiniteDistance);
  index.AddEdge(1, 2, 5);
  EXPECT_EQ(index.Query(0, 3), 10u);
  EXPECT_EQ(index.Query(0, 2), 7u);
  EXPECT_EQ(index.Query(1, 3), 8u);
}

TEST(DynamicIndex, ParallelEdgeKeepsLighter) {
  const std::vector<Edge> edges = {{0, 1, 9}};
  const Graph g = Graph::FromEdges(2, edges);
  DynamicIndex index = Seeded(g);
  index.AddEdge(0, 1, 4);
  EXPECT_EQ(index.Query(0, 1), 4u);
  index.AddEdge(0, 1, 7);  // heavier duplicate: no effect
  EXPECT_EQ(index.Query(0, 1), 4u);
}

TEST(DynamicIndex, HeavierEdgeThanExistingPathIsNoop) {
  const Graph g = graph::Complete(10, WeightOptions{WeightModel::kUnit, 1}, 2);
  DynamicIndex index = Seeded(g);
  const std::size_t before = index.TotalEntries();
  index.AddEdge(0, 9, 100);  // useless edge
  EXPECT_EQ(index.Query(0, 9), 1u);
  // The pruning test should have stopped propagation almost immediately.
  EXPECT_LE(index.TotalEntries(), before + 2);
}

class DynamicIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicIndexProperty, StaysExactUnderRandomInsertions) {
  util::Rng rng(GetParam());
  const auto n = static_cast<VertexId>(30 + rng.Below(50));
  Graph g = graph::ErdosRenyi(n, n + rng.Below(2 * n), kUniform, GetParam());
  DynamicIndex index = Seeded(g);

  std::vector<Edge> edges = g.ToEdgeList();
  for (int round = 0; round < 12; ++round) {
    // Random new edge (possibly parallel to an existing one).
    const auto u = static_cast<VertexId>(rng.Below(n));
    auto v = static_cast<VertexId>(rng.Below(n));
    if (u == v) {
      v = (v + 1) % n;
    }
    const auto w = static_cast<graph::Weight>(1 + rng.Below(10));
    index.AddEdge(u, v, w);
    edges.push_back(Edge{u, v, w});
    g = Graph::FromEdges(n, edges);

    // Sampled exactness against Dijkstra on the updated graph.
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<VertexId>(rng.Below(n));
      const auto t = static_cast<VertexId>(rng.Below(n));
      ASSERT_EQ(index.Query(s, t), baseline::DijkstraOne(g, s, t))
          << "seed " << GetParam() << " round " << round << " pair (" << s
          << "," << t << ")";
    }
  }
  EXPECT_EQ(index.Stats().edges_inserted, 12u);
  EXPECT_GT(index.Stats().resumptions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicIndexProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(DynamicIndex, ManyInsertionsMatchFullRebuild) {
  util::Rng rng(99);
  const VertexId n = 60;
  Graph g = graph::Cycle(n, kUniform, 99);
  DynamicIndex incremental = Seeded(g);
  std::vector<Edge> edges = g.ToEdgeList();
  for (int i = 0; i < 30; ++i) {
    const auto u = static_cast<VertexId>(rng.Below(n));
    const auto v = static_cast<VertexId>((u + 1 + rng.Below(n - 1)) % n);
    const auto w = static_cast<graph::Weight>(1 + rng.Below(20));
    incremental.AddEdge(u, v, w);
    edges.push_back(Edge{u, v, w});
  }
  g = Graph::FromEdges(n, edges);
  const DynamicIndex rebuilt = Seeded(g);
  for (VertexId s = 0; s < n; ++s) {
    for (VertexId t = 0; t < n; ++t) {
      ASSERT_EQ(incremental.Query(s, t), rebuilt.Query(s, t));
    }
  }
}

// Edge 0 - 1 of weight 3e9 and an isolated vertex 2, with vertex 0
// indexed first. Inserting 2 - 1 at 3e9 needs the label (0, 6e9) in L(2),
// above kMaxLabelDistance: AddEdge throws std::overflow_error and rolls
// back the label it had already written, the new arc and the stats.
TEST(DynamicIndex, OverRangeInsertionThrowsAndLeavesIndexUnchanged) {
  constexpr graph::Weight kHeavy = 3'000'000'000;
  const std::vector<Edge> edges = {{0, 1, kHeavy}};
  const Graph g = Graph::FromEdges(3, edges);
  build::BuildPlan plan;
  plan.ordering = OrderingPolicy::kRandom;
  while (ComputeOrder(g, plan.ordering, plan.seed)[0] != 0) {
    ++plan.seed;
  }
  DynamicIndex index = Seeded(g, plan);
  const std::size_t entries = index.TotalEntries();
  const DynamicIndexStats stats = index.Stats();

  EXPECT_THROW(index.AddEdge(2, 1, kHeavy), std::overflow_error);
  EXPECT_EQ(index.TotalEntries(), entries);
  EXPECT_EQ(index.Stats().edges_inserted, stats.edges_inserted);
  EXPECT_EQ(index.Stats().labels_touched, stats.labels_touched);
  EXPECT_EQ(index.Query(0, 1), graph::Distance{kHeavy});
  EXPECT_EQ(index.Query(1, 2), graph::kInfiniteDistance);
  EXPECT_EQ(index.Query(0, 2), graph::kInfiniteDistance);

  // The index keeps working: a light edge is inserted exactly.
  index.AddEdge(2, 1, 7);
  EXPECT_EQ(index.Query(1, 2), 7u);
  EXPECT_EQ(index.Query(0, 2), graph::Distance{kHeavy} + 7);
}

}  // namespace
}  // namespace parapll::pll
