// Intra-node ParaPLL: real-thread parallel indexing (paper §4.3–§4.4).
//
// The task manager reorders vertices by descending degree and hands roots
// to p worker threads under the static or dynamic policy; every worker
// runs Pruned Dijkstra against the shared ConcurrentLabelStore. Relaxed
// label visibility can add redundant labels but never wrong ones (paper
// Proposition 1); `pll::VerifySampled` is the test-suite witness.
//
// The build itself is build::Run with BuildMode::kParallel
// (build/pipeline.hpp); this header holds the per-worker report it
// returns in BuildOutcome::reports.
#pragma once

#include <cstddef>

namespace parapll::parallel {

struct ThreadReport {
  std::size_t roots_processed = 0;
  double busy_seconds = 0.0;  // time spent inside Pruned Dijkstra
  // Time constructing the O(|V|) per-thread scratch arrays before the
  // first root. Booked separately: it is neither useful indexing work nor
  // queue wait, so folding it into idle_seconds would skew the Fig. 8
  // utilization numbers on large graphs.
  double setup_seconds = 0.0;
  // Root-loop lifetime minus busy time: queue wait plus scheduling
  // overhead. Static vs dynamic load imbalance shows up here directly.
  double idle_seconds = 0.0;

  [[nodiscard]] double WallSeconds() const {
    return busy_seconds + idle_seconds;
  }
  // Busy fraction of this worker's lifetime, in [0, 1].
  [[nodiscard]] double Utilization() const {
    const double wall = WallSeconds();
    return wall > 0.0 ? busy_seconds / wall : 0.0;
  }
};

}  // namespace parapll::parallel
