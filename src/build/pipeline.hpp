// The unified build pipeline: BuildPlan in, IndexArtifact out.
//
// Run() is the only way to build an index. It resolves the plan once
// (ordering + rank graph, or checkpoint recovery on resume), routes every
// mode through the shared root-loop kernel in root_loop.hpp, and stamps
// the result with a provenance manifest:
//
//   const build::BuildOutcome outcome =
//       build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 8});
//   const pll::Index& index = outcome.artifact.index;
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "build/artifact.hpp"
#include "build/build_plan.hpp"
#include "parapll/parallel_indexer.hpp"

namespace parapll::build {

struct BuildOutcome {
  // The built index with its manifest populated. For a halted build
  // (plan.halt_after_roots) this is a checkpoint-shaped artifact: labels
  // restricted to the finalized frontier, roots_completed < num_vertices.
  IndexArtifact artifact;

  // This run's work (a resumed run's seed totals are *not* included here;
  // the manifest carries the combined view).
  pll::PruneStats totals;
  graph::VertexId roots_finished = 0;
  double wall_seconds = 0.0;
  bool complete = true;  // false when the build halted at a frontier

  // Per-root (rank, stats) in completion order; empty unless traced.
  std::vector<std::pair<graph::VertexId, pll::PruneStats>> trace;

  // kSerial / kParallel: per-worker load-balance reports.
  std::vector<parallel::ThreadReport> reports;

  // Virtual-time accounting. total_units is the sum of the per-root
  // CostModel units of this run's work, for every mode: the serial
  // equivalent of the build. makespan_units is the virtual schedule's
  // length (kSimulated / kCluster) and equals total_units for kSerial;
  // kParallel has no virtual schedule and leaves it 0.
  double makespan_units = 0.0;
  double total_units = 0.0;
  std::vector<double> worker_units;  // kSimulated: final clock per worker

  // kCluster only.
  double comm_units = 0.0;
  double compute_units = 0.0;
  std::vector<double> node_compute_units;
  std::uint64_t bytes_exchanged = 0;
  std::size_t sync_rounds = 0;
  std::size_t entries_exchanged = 0;

  [[nodiscard]] double AvgUtilization() const {
    if (reports.empty()) {
      return 0.0;
    }
    double total = 0.0;
    for (const parallel::ThreadReport& report : reports) {
      total += report.Utilization();
    }
    return total / static_cast<double>(reports.size());
  }
};

// Builds an index per `plan`. Throws std::runtime_error on an invalid
// plan or a failed resume (missing/corrupt/mismatched checkpoint).
BuildOutcome Run(const graph::Graph& g, const BuildPlan& plan);

}  // namespace parapll::build
