// Path-reconstructing 2-hop index.
//
// The paper answers *distance* queries; a deployed route-selection system
// (paper §1) also needs the path. This index stores, with every label
// entry (hub, dist), the vertex's predecessor in the hub's pruned search
// tree. Because pruned vertices are never expanded, the search-tree path
// from a labeled vertex to its hub runs exclusively through vertices that
// are themselves labeled with that hub — so a shortest path s→t can be
// reassembled by walking parent chains from s and t to their best common
// hub, in O(path length × log |L|).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "pll/label_store.hpp"
#include "pll/ordering.hpp"
#include "pll/pruned_dijkstra.hpp"

namespace parapll::pll {

struct PathLabelEntry {
  graph::VertexId hub = 0;
  graph::Distance dist = 0;
  graph::VertexId parent = 0;  // predecessor on the hub->vertex path

  friend bool operator==(const PathLabelEntry&,
                         const PathLabelEntry&) = default;
};

struct PathBuildOptions {
  OrderingPolicy ordering = OrderingPolicy::kDegree;
  std::uint64_t seed = 0;
};

class PathIndex {
 public:
  PathIndex() = default;

  // Indexes g with serial weighted PLL, recording search-tree parents.
  static PathIndex Build(const graph::Graph& g,
                         const PathBuildOptions& options = {});

  // Exact distance, as pll::Index::Query (original vertex ids).
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const;

  // A shortest path s → t as a vertex sequence (original ids), inclusive
  // of both endpoints; empty when s and t are disconnected. The returned
  // path's weight always equals Query(s, t).
  [[nodiscard]] std::vector<graph::VertexId> ReconstructPath(
      graph::VertexId s, graph::VertexId t) const;

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }
  [[nodiscard]] double AvgLabelSize() const;

 private:
  // Walks the parent chain from rank-space vertex `v` up to `hub`,
  // appending intermediate rank-space vertices (excluding v, including
  // hub) to `out`.
  void WalkToHub(graph::VertexId v, graph::VertexId hub,
                 std::vector<graph::VertexId>& out) const;

  // Sorted-by-hub row lookup; nullptr when hub is absent.
  [[nodiscard]] const PathLabelEntry* FindEntry(graph::VertexId v,
                                                graph::VertexId hub) const;

  std::vector<std::vector<PathLabelEntry>> rows_;  // rank space, hub-sorted
  std::vector<graph::VertexId> order_;             // rank -> original
  std::vector<graph::VertexId> rank_of_;           // original -> rank
};

}  // namespace parapll::pll
