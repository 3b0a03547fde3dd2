// LabelSource — the ownership-agnostic read interface over a 2-hop label
// index, so the query engine and the daemon serve heap and mmap rows alike.
//
// The LabelEntry / sentinel row contract (see label_store.hpp) stays
// fixed; what varies is *where the bytes live*:
//
//   * LabelStore       — everything on the heap (build side + default);
//   * MmapLabelStore   — zero-copy over a format-v2 file (mmap_store.hpp).
//
// Pointer-lifetime contract: pointers returned by RowBegin()/Row() stay
// valid for the lifetime of the source.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "graph/types.hpp"

namespace parapll::pll {

struct LabelEntry;

// Which concrete LabelSource answers queries.
enum class StoreBackend {
  kHeap,   // LabelStore: rows deserialized onto the heap
  kMmap,   // MmapLabelStore: zero-copy over a mapped format-v2 file
};

[[nodiscard]] const char* ToString(StoreBackend backend);
// Throws std::runtime_error on an unknown name ("heap"|"mmap").
[[nodiscard]] StoreBackend StoreBackendFromString(const std::string& name);

class LabelSource {
 public:
  virtual ~LabelSource() = default;

  // Raw pointer to the sentinel-terminated row of rank-space vertex v —
  // a valid QuerySentinel input.
  [[nodiscard]] virtual const LabelEntry* RowBegin(
      graph::VertexId v) const = 0;

  // L(v) without the trailing sentinel.
  [[nodiscard]] virtual std::span<const LabelEntry> Row(
      graph::VertexId v) const = 0;

  [[nodiscard]] virtual graph::VertexId NumVertices() const = 0;

  // Label entries excluding the per-row sentinels.
  [[nodiscard]] virtual std::size_t TotalEntries() const = 0;

  // Resident *heap* bytes this source owns. The mmap backend reports only
  // its bookkeeping (mapped pages are file-backed and show up in RSS only
  // when touched).
  [[nodiscard]] virtual std::size_t MemoryBytes() const = 0;

  [[nodiscard]] virtual StoreBackend Backend() const = 0;
};

}  // namespace parapll::pll
