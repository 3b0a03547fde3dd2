// Mid-build snapshots: make a multi-hour index build interruptible.
//
// The safety argument leans on the same relaxed-visibility induction that
// makes parallel ParaPLL correct (paper Propositions 1–2). Define the
// frontier F as a rank such that every root with rank < F has fully
// finished. Pruned Dijkstra from root r only ever consults hubs with rank
// < r, so the label entries with hub < F form a complete, final prefix of
// the index — entries from in-flight or finished roots >= F can be
// discarded and re-derived. A checkpoint therefore persists exactly that
// prefix (labels.SnapshotRows(F)) plus the order and a manifest whose
// roots_completed == F. A resumed build seeds its store from the prefix
// and schedules roots [F, n); roots that had partially or fully run after
// F are simply re-run, producing redundant-but-never-wrong labels that
// FromRows dedups. Query answers equal an uninterrupted build's.
//
// Snapshots are written atomically (IndexArtifact::Save) so dying mid-
// write leaves the previous checkpoint usable. The process-wide registry
// at the bottom lets a SIGINT/SIGTERM flush hook (obs::ScopedSignalFlush)
// snapshot whatever build is active before the process exits.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "pll/label_store.hpp"
#include "pll/manifest.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::build {

struct CheckpointOptions {
  std::string dir;  // snapshots land in dir + "/checkpoint.bin"
  // Snapshot every `every` finished roots. 0 = never periodically; the
  // checkpointer then only writes on Snapshot() (final flush / signal).
  graph::VertexId every = 0;
};

class Checkpointer {
 public:
  // Returns every label row restricted to hubs < limit — the finalized
  // prefix. Must be safe to call while workers are still appending
  // (MutableLabels::SnapshotRows / ConcurrentLabelStore::SnapshotRows).
  using SnapshotRowsFn =
      std::function<std::vector<std::vector<pll::LabelEntry>>(
          graph::VertexId limit)>;

  // `manifest` is the build's provenance stub (cursor/totals/wall filled
  // per snapshot); `order` is the build's rank -> vertex permutation.
  // Registers itself for SnapshotActiveBuilds() until destruction.
  Checkpointer(CheckpointOptions options, pll::BuildManifest manifest,
               std::vector<graph::VertexId> order, SnapshotRowsFn rows);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Driver callback after each finished root: folds the root's stats into
  // the running totals, remembers the new frontier, and snapshots when
  // `every` more roots have finished since the last write. Thread-safe
  // and non-throwing, since it runs on worker threads: a failed snapshot
  // (I/O, or a label distance over pll::kMaxLabelDistance) stops the
  // periodic snapshots and is kept for RethrowFailure.
  void OnRootFinished(graph::VertexId frontier, const pll::PruneStats& stats,
                      double wall_seconds);

  // Rethrows the first failure of a periodic snapshot, if any. The build
  // driver calls it on its own thread once the workers have joined.
  void RethrowFailure() const;

  // Writes a snapshot of the latest recorded frontier now (final flush,
  // signal path). Thread-safe; serialized against periodic snapshots.
  void Snapshot();

  [[nodiscard]] std::string FilePath() const;
  [[nodiscard]] std::size_t SnapshotsWritten() const;
  [[nodiscard]] graph::VertexId LastFrontier() const;

 private:
  void SnapshotLocked() REQUIRES(mutex_);

  // Ctor-only, then read-only.
  CheckpointOptions options_;
  pll::BuildManifest manifest_;
  std::vector<graph::VertexId> order_;
  SnapshotRowsFn rows_;

  mutable util::Mutex mutex_;
  graph::VertexId frontier_ GUARDED_BY(mutex_) = 0;
  // This run's roots only.
  pll::PruneStats totals_ GUARDED_BY(mutex_);
  // Carried over from a resumed run; ctor-only, then read-only.
  pll::PruneStats seed_totals_;
  double wall_seconds_ GUARDED_BY(mutex_) = 0.0;
  double seed_wall_seconds_ = 0.0;  // ctor-only, then read-only
  graph::VertexId finished_since_snapshot_ GUARDED_BY(mutex_) = 0;
  std::size_t snapshots_ GUARDED_BY(mutex_) = 0;
  std::exception_ptr failure_ GUARDED_BY(mutex_);
};

// Snapshot every live Checkpointer. Wired into the CLI's signal-flush
// hook so ^C on a long build leaves a resumable checkpoint behind.
void SnapshotActiveBuilds();

}  // namespace parapll::build
