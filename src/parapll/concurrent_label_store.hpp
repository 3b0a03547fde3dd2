// Shared-memory label store for intra-node ParaPLL.
//
// Multiple Pruned Dijkstra workers concurrently append to and read from
// per-vertex rows. Rows are protected by one of three locking schemes
// (LockMode) so the lock-granularity ablation bench can compare them; the
// paper's Algorithm 2 corresponds to kGlobal ("a semaphore ... only one
// thread can update the label at any time").
//
// Concurrency contract. The store exposes one logical capability,
// row_cap_, standing for "the lock that protects row v under the current
// LockMode" — a global mutex, one of 256 stripes, or a per-row spinlock.
// LockRow/UnlockRow acquire and release that capability, so Clang's
// thread-safety analysis proves every path through ForEach / Append /
// SnapshotRows is lock-balanced. Which *concrete* primitive backs the
// capability is data-dependent (it varies with v and mode_), which is
// beyond the analysis; the underlying std primitives are therefore kept
// raw here — this file is the one documented entry on the project
// linter's raw-sync-primitive allowlist (tools/parapll_lint.py).
#pragma once

#include <atomic>
#include <mutex>
#include <vector>

#include "graph/types.hpp"
#include "obs/metrics.hpp"
#include "parapll/options.hpp"
#include "pll/label_store.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::parallel {

// Marker type for the row-locking discipline; never locked at runtime
// (LockRow locks the concrete primitive), only tracked by the analysis.
class CAPABILITY("row lock") RowCapability {};

class ConcurrentLabelStore {
 public:
  ConcurrentLabelStore(graph::VertexId n, LockMode mode);

  // Seeded construction: resume a build from checkpointed rows. Called
  // before any worker starts, so no locking is needed here.
  ConcurrentLabelStore(std::vector<std::vector<pll::LabelEntry>> rows,
                       LockMode mode);

  ConcurrentLabelStore(const ConcurrentLabelStore&) = delete;
  ConcurrentLabelStore& operator=(const ConcurrentLabelStore&) = delete;

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }

  // Thread-safe append of (hub, dist) to L(v), narrowed by
  // pll::ToLabelDistance: an over-range distance never throws here (in a
  // worker); TakeFinalized reports it on the calling thread.
  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist);

  // Thread-safe iteration: fn(hub, dist) for every entry currently in
  // L(v). The row lock is held across the callbacks; callbacks must be
  // cheap and must not touch the store.
  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) const {
    LockRow(v);
    for (const pll::LabelEntry& e : rows_[v]) {
      fn(e.hub, e.dist);
    }
    UnlockRow(v);
  }

  [[nodiscard]] std::size_t TotalEntries() const;

  // Approximate resident bytes of the label rows (vector headers plus
  // allocated entry capacity). Maintained as a relaxed atomic updated on
  // row growth, so a telemetry probe can read it from another thread
  // while workers append — the count may lag an in-flight append but is
  // never torn. See obs/telemetry.hpp (gauge "store.memory_bytes").
  [[nodiscard]] std::size_t MemoryBytes() const {
    // relaxed: monotone byte total read by the telemetry thread; a lagging
    // value is acceptable, a torn one impossible.
    return rows_.capacity() * sizeof(std::vector<pll::LabelEntry>) +
           entry_bytes_.load(std::memory_order_relaxed);
  }

  // Moves the rows into an immutable query-stage store. Must only be
  // called after all workers have finished. Throws std::overflow_error
  // if a label distance exceeded pll::kMaxLabelDistance.
  pll::LabelStore TakeFinalized();

  // Copy of every row keeping only entries with hub < limit, taken while
  // workers may still be appending: rows are locked one at a time, so
  // each row copy is internally consistent, and entries from roots
  // >= limit (possibly mid-flight) are excluded. This is the
  // "finalized prefix" a checkpoint persists.
  [[nodiscard]] std::vector<std::vector<pll::LabelEntry>> SnapshotRows(
      graph::VertexId limit) const;

 private:
  // Locks/unlocks the primitive protecting row v under mode_. Const so
  // read paths (ForEach, SnapshotRows) need no const_cast; the concrete
  // primitives are mutable.
  void LockRow(graph::VertexId v) const ACQUIRE(row_cap_);
  void UnlockRow(graph::VertexId v) const RELEASE(row_cap_);
  // Slow path for LockRow when metrics are on: try-lock first so
  // contention (somebody else held our lock) is observable as the
  // "store.lock_contended" counter next to "store.lock_acquired".
  // Deliberately unannotated: it is the body of LockRow's acquisition
  // (only raw primitives move), and LockRow's ACQUIRE is the contract.
  void LockRowCounted(graph::VertexId v) const;

  static constexpr std::size_t kStripes = 256;  // power of two

  LockMode mode_;
  // Per-element protection: rows_[v] may only be touched between
  // LockRow(v) and UnlockRow(v) (or, for TakeFinalized and construction,
  // in a phase where no worker is live). GUARDED_BY cannot express
  // per-element guards, so the discipline is enforced on the lock calls
  // (row_cap_) rather than the container.
  std::vector<std::vector<pll::LabelEntry>> rows_;
  RowCapability row_cap_;
  // The concrete primitives backing row_cap_; raw std types by design
  // (see file comment — linter allowlist raw-sync-primitive).
  mutable std::mutex global_mutex_;
  mutable std::vector<std::mutex> striped_mutexes_;
  mutable std::vector<std::atomic_flag> row_spinlocks_;
  obs::Counter* lock_acquired_;   // registry-owned; never null
  obs::Counter* lock_contended_;
  std::atomic<std::size_t> entry_bytes_{0};  // allocated entry capacity
};

}  // namespace parapll::parallel
