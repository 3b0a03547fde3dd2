// Social-aware search (paper §1 motivation): use shortest-path distance as
// a closeness signal in a social network and recommend the nearest users.
//
// Builds a weighted social graph (edge weight = interaction cost: lower =
// closer friends), indexes it with ParaPLL, then serves "people you may
// know" queries: the k non-neighbors at minimum weighted distance,
// comparing index latency against per-query Dijkstra.
#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "core/parapll.hpp"

namespace {

using namespace parapll;

// k closest non-neighbor candidates for `user` by indexed distance.
std::vector<std::pair<graph::Distance, graph::VertexId>> Recommend(
    const graph::Graph& g, const pll::Index& index, graph::VertexId user,
    std::size_t k) {
  std::set<graph::VertexId> direct;
  direct.insert(user);
  for (const graph::Arc& arc : g.Neighbors(user)) {
    direct.insert(arc.target);
  }
  std::vector<std::pair<graph::Distance, graph::VertexId>> candidates;
  for (graph::VertexId v = 0; v < g.NumVertices(); ++v) {
    if (direct.count(v) != 0) {
      continue;
    }
    const graph::Distance d = index.Query(user, v);
    if (d != graph::kInfiniteDistance) {
      candidates.emplace_back(d, v);
    }
  }
  const std::size_t keep = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + keep,
                    candidates.end());
  candidates.resize(keep);
  return candidates;
}

}  // namespace

int main() {
  // Synthetic stand-in for the paper's Epinions trust network.
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.03, 11);
  std::printf("social graph (Epinions-like): n=%u m=%zu\n", g.NumVertices(),
              g.NumEdges());

  const build::BuildOutcome outcome = build::Run(
      g, {.mode = build::BuildMode::kParallel, .threads = 4});
  const pll::Index& index = outcome.artifact.index;
  std::printf("indexed in %s (avg label size %.1f)\n",
              util::FormatDuration(outcome.wall_seconds).c_str(),
              index.AvgLabelSize());

  util::Rng rng(3);
  const auto user = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
  std::printf("\nrecommendations for user %u (degree %zu):\n", user,
              g.Degree(user));

  util::WallTimer indexed_timer;
  const auto recs = Recommend(g, index, user, 5);
  const double indexed_ms = indexed_timer.Millis();
  for (const auto& [dist, v] : recs) {
    std::printf("  user %-6u at weighted distance %llu\n", v,
                static_cast<unsigned long long>(dist));
  }

  // Same scan answered by one Dijkstra run, for latency comparison and a
  // correctness cross-check.
  util::WallTimer dijkstra_timer;
  const auto truth = baseline::DijkstraAll(g, user);
  const double dijkstra_ms = dijkstra_timer.Millis();
  bool all_match = true;
  for (const auto& [dist, v] : recs) {
    all_match = all_match && truth[v] == dist;
  }
  std::printf("\nfull-scan latency: %.2fms via index, %.2fms via Dijkstra\n",
              indexed_ms, dijkstra_ms);
  std::printf("cross-check vs Dijkstra: %s\n",
              all_match ? "all distances exact" : "MISMATCH");

  // The real win is point queries: closeness of one candidate pair.
  const auto other = static_cast<graph::VertexId>(rng.Below(g.NumVertices()));
  util::WallTimer point_timer;
  const graph::Distance d = index.Query(user, other);
  std::printf("point query d(%u,%u)=%llu in %.1fus\n", user, other,
              static_cast<unsigned long long>(d), point_timer.Micros());
  return all_match ? 0 : 1;
}
