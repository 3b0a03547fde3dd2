// Quickstart: build a ParaPLL index and answer distance queries.
//
//   build/examples/quickstart [path/to/edge_list.txt]
//
// Without an argument it generates a small weighted social-style graph.
// The example walks the full public API: build (parallel), query, verify
// against Dijkstra, and save/load the index.
#include <cstdio>

#include "core/parapll.hpp"

int main(int argc, char** argv) {
  using namespace parapll;

  // 1. Load or generate a weighted undirected graph.
  graph::Graph g;
  if (argc > 1) {
    g = graph::ReadEdgeListTextFile(argv[1]);
    std::printf("loaded %s: n=%u m=%zu\n", argv[1], g.NumVertices(),
                g.NumEdges());
  } else {
    g = graph::BarabasiAlbert(
        2000, 4, {graph::WeightModel::kUniform, 100}, /*seed=*/42);
    std::printf("generated Barabasi-Albert graph: n=%u m=%zu\n",
                g.NumVertices(), g.NumEdges());
  }

  // 2. Build the 2-hop index with the intra-node parallel indexer
  //    (dynamic assignment policy, 4 threads).
  const build::BuildOutcome outcome =
      build::Run(g, {.mode = build::BuildMode::kParallel,
                     .threads = 4,
                     .policy = parallel::AssignmentPolicy::kDynamic});
  const pll::Index& index = outcome.artifact.index;
  std::printf("indexed in %s: avg label size %.1f, %.2f MB\n",
              util::FormatDuration(outcome.wall_seconds).c_str(),
              index.AvgLabelSize(),
              static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0));

  // 3. Answer distance queries in O(|L(s)| + |L(t)|).
  util::Rng rng(7);
  for (int i = 0; i < 5; ++i) {
    const auto s = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const auto t = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
    const graph::Distance d = index.Query(s, t);
    if (d == graph::kInfiniteDistance) {
      std::printf("  d(%u, %u) = unreachable\n", s, t);
    } else {
      std::printf("  d(%u, %u) = %llu\n", s, t,
                  static_cast<unsigned long long>(d));
    }
  }

  // 4. Spot-check the index against Dijkstra ground truth.
  const auto verdict = pll::VerifySampled(g, index, 200, /*seed=*/1);
  std::printf("verification: %s\n", verdict.ToString().c_str());

  // 5. Persist (format v2, the index container) and reload.
  const std::string path = "/tmp/parapll_quickstart.index";
  pll::WriteIndexV2File(index, path);
  const pll::Index loaded = pll::Index::LoadFile(path);
  std::printf("round-tripped index through %s: %s\n", path.c_str(),
              loaded == index ? "identical" : "MISMATCH");
  return verdict.Ok() && loaded == index ? 0 : 1;
}
