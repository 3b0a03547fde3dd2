// Virtual-time cost model.
//
// The reproduction machine has a single core, so real-thread speedups are
// physically unobservable. The virtual-time simulator instead charges each
// Pruned Dijkstra a deterministic cost in abstract "units" derived from
// its operation counts (heap ops, relaxations, pruning probes, appends) —
// the same quantities that dominate the paper's O(wm log²n + w²n log²n)
// indexing bound. A serial build calibrates units to seconds
// (BuildOutcome::wall_seconds / total_units) so tables can report IT(s)
// on the paper's scale.
#pragma once

#include "pll/pruned_dijkstra.hpp"

namespace parapll::vtime {

struct CostModel {
  double settle = 4.0;         // heap pop + bookkeeping (log-factor amortized)
  double relax = 1.0;          // edge examination
  double push = 3.0;           // heap insert
  double probe = 0.8;          // one label entry in a pruning test
  double append = 2.0;         // label publication
  double task_overhead = 25.0; // scheduling + snapshot fixed cost

  // Total virtual units for one root's PruneStats.
  [[nodiscard]] double Units(const pll::PruneStats& stats) const;
};

}  // namespace parapll::vtime
