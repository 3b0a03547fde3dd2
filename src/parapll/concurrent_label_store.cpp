#include "parapll/concurrent_label_store.hpp"

#include "util/check.hpp"

namespace parapll::parallel {

std::string ToString(AssignmentPolicy policy) {
  return policy == AssignmentPolicy::kStatic ? "static" : "dynamic";
}

std::string ToString(LockMode mode) {
  switch (mode) {
    case LockMode::kGlobal:
      return "global";
    case LockMode::kStriped:
      return "striped";
    case LockMode::kPerRow:
      return "per-row";
  }
  return "?";
}

ConcurrentLabelStore::ConcurrentLabelStore(graph::VertexId n, LockMode mode)
    : mode_(mode),
      rows_(n),
      lock_acquired_(
          &obs::Registry::Global().GetCounter("store.lock_acquired")),
      lock_contended_(
          &obs::Registry::Global().GetCounter("store.lock_contended")) {
  switch (mode_) {
    case LockMode::kGlobal:
      break;
    case LockMode::kStriped:
      striped_mutexes_ = std::vector<std::mutex>(kStripes);
      break;
    case LockMode::kPerRow:
      row_spinlocks_ = std::vector<std::atomic_flag>(n);
      break;
  }
}

ConcurrentLabelStore::ConcurrentLabelStore(
    std::vector<std::vector<pll::LabelEntry>> rows, LockMode mode)
    : ConcurrentLabelStore(static_cast<graph::VertexId>(rows.size()), mode) {
  rows_ = std::move(rows);
  std::size_t bytes = 0;
  for (const auto& row : rows_) {
    bytes += row.capacity() * sizeof(pll::LabelEntry);
  }
  // relaxed: single-threaded construction; workers start strictly later.
  entry_bytes_.store(bytes, std::memory_order_relaxed);
}

void ConcurrentLabelStore::LockRow(graph::VertexId v) const {
  if (obs::MetricsEnabled()) {
    LockRowCounted(v);
    return;
  }
  switch (mode_) {
    case LockMode::kGlobal:
      global_mutex_.lock();
      break;
    case LockMode::kStriped:
      striped_mutexes_[v & (kStripes - 1)].lock();
      break;
    case LockMode::kPerRow:
      // acquire: pairs with the release in UnlockRow so row contents
      // written under the spinlock are visible to the next holder.
      while (row_spinlocks_[v].test_and_set(std::memory_order_acquire)) {
        // spin; rows are short and critical sections tiny
      }
      break;
  }
}

void ConcurrentLabelStore::LockRowCounted(graph::VertexId v) const {
  bool contended = false;
  switch (mode_) {
    case LockMode::kGlobal:
      if (!global_mutex_.try_lock()) {
        contended = true;
        global_mutex_.lock();
      }
      break;
    case LockMode::kStriped: {
      std::mutex& m = striped_mutexes_[v & (kStripes - 1)];
      if (!m.try_lock()) {
        contended = true;
        m.lock();
      }
      break;
    }
    case LockMode::kPerRow:
      // acquire: pairs with the release in UnlockRow (see LockRow).
      if (row_spinlocks_[v].test_and_set(std::memory_order_acquire)) {
        contended = true;
        while (row_spinlocks_[v].test_and_set(std::memory_order_acquire)) {
          // spin; rows are short and critical sections tiny
        }
      }
      break;
  }
  lock_acquired_->Add(1);
  if (contended) {
    lock_contended_->Add(1);
  }
}

void ConcurrentLabelStore::UnlockRow(graph::VertexId v) const {
  switch (mode_) {
    case LockMode::kGlobal:
      global_mutex_.unlock();
      break;
    case LockMode::kStriped:
      striped_mutexes_[v & (kStripes - 1)].unlock();
      break;
    case LockMode::kPerRow:
      // release: publishes this holder's row writes to the next acquirer.
      row_spinlocks_[v].clear(std::memory_order_release);
      break;
  }
}

void ConcurrentLabelStore::Append(graph::VertexId v, graph::VertexId hub,
                                  graph::Distance dist) {
  PARAPLL_DCHECK(v < rows_.size());
  LockRow(v);
  const std::size_t before = rows_[v].capacity();
  rows_[v].push_back(pll::LabelEntry{hub, pll::ToLabelDistance(dist)});
  const std::size_t after = rows_[v].capacity();
  UnlockRow(v);
  if (after != before) {
    // relaxed: independent byte counter for the telemetry probe; ordering
    // relative to the row contents is irrelevant (MemoryBytes may lag).
    entry_bytes_.fetch_add((after - before) * sizeof(pll::LabelEntry),
                           std::memory_order_relaxed);
  }
}

std::size_t ConcurrentLabelStore::TotalEntries() const {
  std::size_t total = 0;
  for (graph::VertexId v = 0; v < NumVertices(); ++v) {
    ForEach(v, [&total](graph::VertexId, graph::Distance) { ++total; });
  }
  return total;
}

pll::LabelStore ConcurrentLabelStore::TakeFinalized() {
  return pll::LabelStore::FromRows(std::move(rows_));
}

std::vector<std::vector<pll::LabelEntry>> ConcurrentLabelStore::SnapshotRows(
    graph::VertexId limit) const {
  std::vector<std::vector<pll::LabelEntry>> out(rows_.size());
  for (graph::VertexId v = 0; v < NumVertices(); ++v) {
    LockRow(v);
    for (const pll::LabelEntry& e : rows_[v]) {
      if (e.hub < limit) {
        out[v].push_back(e);
      }
    }
    UnlockRow(v);
  }
  return out;
}

}  // namespace parapll::parallel
