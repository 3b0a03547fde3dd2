// ServableIndex — a loaded index behind the LabelSource abstraction.
//
// The serving stack (query engine, daemon, CLI) doesn't care where label
// rows live; it needs a source to merge, the vertex order to translate
// ids, and the manifest for identity/provenance checks. ServableIndex
// bundles exactly that, with one Load() funnel that picks the backend
// over the one format-v2 container:
//
//   kHeap — Index::LoadFile (full per-entry validation, rows on the heap);
//   kMmap — MmapLabelStore::Open (O(n) validation, zero-copy).
//
// Every load records the cold-start cost (index.load_seconds + one log
// line, see pll::RecordIndexLoad).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pll/index.hpp"
#include "pll/label_source.hpp"

namespace parapll::pll {

struct ServableIndex {
  BuildManifest manifest;
  std::shared_ptr<const LabelSource> source;
  std::vector<graph::VertexId> order;  // rank -> original vertex id
  StoreBackend backend = StoreBackend::kHeap;  // what actually loaded
  std::uint32_t format_version = BuildManifest::kMaxFormatVersion;
  std::size_t file_bytes = 0;     // 0 when wrapped from memory
  double load_seconds = 0.0;      // 0 when wrapped from memory

  // Wraps an in-memory index (no file involved): the source aliases the
  // index's heap store, kept alive by a shared owner.
  [[nodiscard]] static ServableIndex FromIndex(Index index);

  // Loads `path` with the requested backend. Throws std::runtime_error
  // on I/O or validation failure.
  [[nodiscard]] static ServableIndex Load(const std::string& path,
                                          StoreBackend backend);

  [[nodiscard]] graph::VertexId NumVertices() const {
    return source == nullptr ? 0 : source->NumVertices();
  }
  [[nodiscard]] bool IsComplete() const { return manifest.IsComplete(); }
};

}  // namespace parapll::pll
