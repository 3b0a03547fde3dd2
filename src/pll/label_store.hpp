// 2-hop labels: L(v) = { (hub rank, σ(P(hub, v))) } (paper §2.1 / §3.1).
//
// Two representations:
//  * MutableLabels — append-friendly rows used while indexing (serial);
//  * LabelStore    — immutable, flat, rank-sorted rows used for queries.
// Both live in *rank space* (see pll/ordering.hpp).
//
// Entry layout. Every label row, on the build side (MutableLabels,
// parallel::ConcurrentLabelStore, DynamicIndex, vtime's timestamped rows)
// and on the query side (LabelStore, MmapLabelStore, the v2 file), is an
// array of the one 8-byte LabelEntry {u32 hub, u32 dist}: no padding,
// eight entries per cache line. Label distances are therefore 32-bit:
// at most kMaxLabelDistance. A build whose label distance would exceed
// that throws std::overflow_error when its rows are finalized (FromRows)
// instead of truncating; graph::Distance (Dijkstra, query results) stays
// 64-bit, and a query sums two label distances exactly in 64 bits.
//
// Query layout. LabelStore keeps every row contiguous in one flat array
// and terminates each row with a sentinel entry whose hub is
// kInvalidVertex. Real hubs are ranks in [0, n) and therefore always
// compare smaller than the sentinel, so the hot sorted-merge loop
// (MergeSentinelRows) needs no per-iteration bounds checks: the two
// cursors meet at the sentinels and the common-hub test terminates the
// loop. Row() spans exclude the sentinel; only the raw RowBegin()
// pointers see it.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"
#include "pll/label_source.hpp"

namespace parapll::pll {

// A label distance σ(P(hub, v)) as a row stores it.
using LabelDistance = std::uint32_t;

// Reserved label distance: what an append stores in place of a distance
// above kMaxLabelDistance (and the row sentinel's distance). FromRows
// throws std::overflow_error on it, so no finished index holds one; a
// build that produced one fails on its calling thread, never in a worker.
inline constexpr LabelDistance kOverRangeLabelDistance =
    std::numeric_limits<LabelDistance>::max();

// The largest label distance an index represents exactly.
inline constexpr LabelDistance kMaxLabelDistance = kOverRangeLabelDistance - 1;

// Narrows a search distance for an append: exact up to kMaxLabelDistance,
// kOverRangeLabelDistance beyond it (never truncated).
[[nodiscard]] constexpr LabelDistance ToLabelDistance(graph::Distance d) {
  return d > kMaxLabelDistance ? kOverRangeLabelDistance
                               : static_cast<LabelDistance>(d);
}

struct alignas(8) LabelEntry {
  graph::VertexId hub = 0;  // rank of the landmark vertex
  LabelDistance dist = 0;   // exact-or-upper-bound σ from hub

  friend bool operator==(const LabelEntry&, const LabelEntry&) = default;
};
static_assert(sizeof(LabelEntry) == 8,
              "query layout assumes 8-byte label entries");
// No padding: the v2 writer streams rows straight from memory, so equal
// stores give equal files.
static_assert(std::has_unique_object_representations_v<LabelEntry>);

// Hint the first cache line of a label row into cache ahead of the merge.
inline void PrefetchRow(const LabelEntry* row) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(row, /*rw=*/0, /*locality=*/3);
#else
  (void)row;
#endif
}

// Best common hub of two rows: the minimum of dist(hub, s) + dist(hub, t)
// and the lowest hub achieving it. {kInfiniteDistance, kInvalidVertex}
// when the rows share no hub (or every common sum saturates).
struct HubDistance {
  graph::Distance dist = graph::kInfiniteDistance;
  graph::VertexId hub = graph::kInvalidVertex;
};

// QUERY(s, t, L) over two bounded, hub-sorted rows of any entry type with
// `hub` and `dist` fields (LabelEntry, PathLabelEntry). Distance sums
// saturate at kInfiniteDistance (only PathLabelEntry's 64-bit distances
// can get there); on equal sums the lowest hub wins.
template <typename Entry>
HubDistance MergeRows(std::span<const Entry> a, std::span<const Entry> b) {
  HubDistance best;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub == b[j].hub) {
      const graph::Distance sum = graph::SaturatingAdd(a[i].dist, b[j].dist);
      if (sum < best.dist) {
        best = {sum, a[i].hub};
      }
      ++i;
      ++j;
    } else if (a[i].hub < b[j].hub) {
      ++i;
    } else {
      ++j;
    }
  }
  return best;
}

// Distance-only MergeRows over LabelEntry rows (MutableLabels,
// DynamicIndex, any Row() span).
inline graph::Distance QueryRows(std::span<const LabelEntry> a,
                                 std::span<const LabelEntry> b) {
  return MergeRows(a, b).dist;
}

// Where a sentinel merge stopped: the best sum and both final cursors.
struct SentinelMerge {
  graph::Distance dist = graph::kInfiniteDistance;
  const LabelEntry* a_end = nullptr;
  const LabelEntry* b_end = nullptr;
};

// Sentinel-terminated merge: both pointers must address rows whose final
// entry has hub == kInvalidVertex (LabelStore guarantees this). One
// branch on hub order per iteration, no length tracking. The loop only
// stops when both cursors sit on their sentinels, so a_end and b_end
// point at them: every real entry of both rows was consumed. Two 32-bit
// label distances sum exactly in graph::Distance: no saturation needed.
inline SentinelMerge MergeSentinelRows(const LabelEntry* a,
                                       const LabelEntry* b) {
  graph::Distance best = graph::kInfiniteDistance;
  for (;;) {
    const graph::VertexId ha = a->hub;
    const graph::VertexId hb = b->hub;
    if (ha == hb) {
      if (ha == graph::kInvalidVertex) {
        return {best, a, b};  // both cursors reached their sentinel
      }
      const graph::Distance sum = graph::Distance{a->dist} + b->dist;
      if (sum < best) {
        best = sum;
      }
      ++a;
      ++b;
    } else if (ha < hb) {
      ++a;  // ha is a real hub (the sentinel is the maximum VertexId)
    } else {
      ++b;
    }
  }
}

// The query hot path: the distance of MergeSentinelRows.
inline graph::Distance QuerySentinel(const LabelEntry* a,
                                     const LabelEntry* b) {
  return MergeSentinelRows(a, b).dist;
}

// QuerySentinel that also adds the entries the merge consumed,
// |L(s)| + |L(t)| (sentinels excluded), to `scanned`.
inline graph::Distance QuerySentinelCounted(const LabelEntry* a,
                                            const LabelEntry* b,
                                            std::uint64_t& scanned) {
  const SentinelMerge merge = MergeSentinelRows(a, b);
  scanned += static_cast<std::uint64_t>((merge.a_end - a) +
                                        (merge.b_end - b));
  return merge.dist;
}

// Growable per-vertex rows for serial indexing.
class MutableLabels {
 public:
  explicit MutableLabels(graph::VertexId n) : rows_(n) {}

  // Seeded construction: resume a build from previously finalized rows
  // (see build/checkpoint.hpp). Rows must already be hub-sorted; appends
  // continue with higher-ranked hubs, so rows stay sorted.
  explicit MutableLabels(std::vector<std::vector<LabelEntry>> rows)
      : rows_(std::move(rows)) {}

  [[nodiscard]] graph::VertexId NumVertices() const {
    return static_cast<graph::VertexId>(rows_.size());
  }

  // Appends (hub, dist) to L(v), narrowed by ToLabelDistance. Serial PLL
  // appends hubs in increasing rank, so rows stay sorted without extra
  // work.
  void Append(graph::VertexId v, graph::VertexId hub, graph::Distance dist) {
    rows_[v].push_back(LabelEntry{hub, ToLabelDistance(dist)});
  }

  // Calls fn(hub, dist) for every entry of L(v).
  template <typename F>
  void ForEach(graph::VertexId v, F&& fn) const {
    for (const LabelEntry& e : rows_[v]) {
      fn(e.hub, e.dist);
    }
  }

  [[nodiscard]] const std::vector<LabelEntry>& Row(graph::VertexId v) const {
    return rows_[v];
  }

  [[nodiscard]] std::size_t TotalEntries() const;

  // Copy of every row keeping only entries with hub < limit — the
  // "finalized prefix" a checkpoint persists (hubs >= limit may belong
  // to roots still in flight in a parallel build).
  [[nodiscard]] std::vector<std::vector<LabelEntry>> SnapshotRows(
      graph::VertexId limit) const;

 private:
  std::vector<std::vector<LabelEntry>> rows_;
};

// Immutable query-stage store (sentinel-terminated rows, see file header).
// The heap backend of LabelSource; `final` so direct calls through a
// concrete LabelStore devirtualize.
class LabelStore final : public LabelSource {
 public:
  LabelStore() = default;

  // Builds from per-vertex rows; each row is sorted by hub rank and
  // deduplicated (keeping the minimum distance per hub). Throws
  // std::runtime_error if any entry uses the reserved sentinel hub, and
  // std::overflow_error if any holds kOverRangeLabelDistance.
  static LabelStore FromRows(std::vector<std::vector<LabelEntry>> rows);
  static LabelStore FromMutable(const MutableLabels& labels);

  // Adopts an already-flattened query layout: `offsets` in entry units
  // with rows *including* their sentinels (the format-v2 convention).
  // Validates shape, sentinel placement, strict hub sortedness and that
  // no entry holds kOverRangeLabelDistance; throws std::runtime_error on
  // violation.
  static LabelStore FromFlat(std::vector<std::size_t> offsets,
                             std::vector<LabelEntry> entries);

  [[nodiscard]] graph::VertexId NumVertices() const override {
    return static_cast<graph::VertexId>(
        offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  // L(v) without the trailing sentinel.
  [[nodiscard]] std::span<const LabelEntry> Row(
      graph::VertexId v) const override {
    return {entries_.data() + offsets_[v],
            entries_.data() + (offsets_[v + 1] - 1)};
  }

  // Raw pointer to the sentinel-terminated row of v — QuerySentinel input.
  [[nodiscard]] const LabelEntry* RowBegin(graph::VertexId v) const override {
    return entries_.data() + offsets_[v];
  }

  // QUERY(s, t) in rank space (sentinel merge, rows prefetched on entry).
  [[nodiscard]] graph::Distance Query(graph::VertexId s,
                                      graph::VertexId t) const {
    const LabelEntry* a = RowBegin(s);
    const LabelEntry* b = RowBegin(t);
    PrefetchRow(a);
    PrefetchRow(b);
    return QuerySentinel(a, b);
  }

  // Label entries excluding the per-row sentinels.
  [[nodiscard]] std::size_t TotalEntries() const override {
    return entries_.size() - NumVertices();
  }

  [[nodiscard]] StoreBackend Backend() const override {
    return StoreBackend::kHeap;
  }

  // Per-vertex rows without sentinels (hub-sorted) — the inverse of
  // FromRows, used to seed a resumed build from a checkpoint.
  [[nodiscard]] std::vector<std::vector<LabelEntry>> ToRows() const;

  // "LN" in the paper's tables: average label entries per vertex.
  [[nodiscard]] double AvgLabelSize() const;

  // Resident size of the store in bytes (sentinels included): the
  // *capacity* of both vectors, matching how ConcurrentLabelStore counts.
  [[nodiscard]] std::size_t MemoryBytes() const override {
    return offsets_.capacity() * sizeof(std::size_t) +
           entries_.capacity() * sizeof(LabelEntry);
  }

  // Hand-written (a defaulted comparison would require operator== on the
  // abstract base): equal iff the flattened layouts are identical.
  friend bool operator==(const LabelStore& a, const LabelStore& b) {
    return a.offsets_ == b.offsets_ && a.entries_ == b.entries_;
  }

 private:
  std::vector<std::size_t> offsets_;  // n + 1, rows include their sentinel
  std::vector<LabelEntry> entries_;   // n sentinels interleaved
};

}  // namespace parapll::pll
