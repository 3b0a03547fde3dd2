// MmapLabelStore — the zero-copy LabelSource backend.
//
// Opens a format-v2 index file (pll/format_v2.hpp), maps it read-only,
// validates the mapping (O(n), touches only the header/order/offset
// regions plus one entry per row end), and serves QuerySentinel merges
// straight out of the mapping: no per-entry deserialization, cold-start
// cost independent of index size. The kernel pages label rows in on
// first touch and may reclaim them under memory pressure — RSS follows
// the working set, not the index size.
//
// Platform: requires POSIX mmap. On other platforms Open() throws and
// callers fall back to the heap path.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "pll/format_v2.hpp"
#include "pll/label_source.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define PARAPLL_HAVE_MMAP 1
#endif

namespace parapll::pll {

// RAII read-only file mapping (whole file). Move-only; unmaps on
// destruction.
class MappedFile {
 public:
  // Throws std::runtime_error on open/stat/map failure, on an empty
  // file, and unconditionally where mmap is unavailable.
  static MappedFile Open(const std::string& path);

  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

class MmapLabelStore final : public LabelSource {
 public:
  // Maps + validates `path`. Throws std::runtime_error on I/O failure,
  // validation failure, or when mmap is unavailable on this platform.
  [[nodiscard]] static std::shared_ptr<MmapLabelStore> Open(
      const std::string& path);

  // Public for make_shared; use Open().
  MmapLabelStore(MappedFile file, V2View view)
      : file_(std::move(file)), view_(view) {}

  [[nodiscard]] const LabelEntry* RowBegin(graph::VertexId v) const override {
    return view_.entries + view_.offsets[v];
  }
  [[nodiscard]] std::span<const LabelEntry> Row(
      graph::VertexId v) const override {
    return {view_.entries + view_.offsets[v],
            view_.entries + (view_.offsets[v + 1] - 1)};
  }
  [[nodiscard]] graph::VertexId NumVertices() const override {
    return static_cast<graph::VertexId>(view_.header.num_vertices);
  }
  [[nodiscard]] std::size_t TotalEntries() const override {
    return static_cast<std::size_t>(view_.header.total_entries);
  }
  // Bookkeeping only: the mapped pages are file-backed and reclaimable,
  // so they are deliberately not reported as owned memory.
  [[nodiscard]] std::size_t MemoryBytes() const override {
    return sizeof(*this);
  }
  [[nodiscard]] StoreBackend Backend() const override {
    return StoreBackend::kMmap;
  }

  [[nodiscard]] const BuildManifest& Manifest() const {
    return view_.manifest;
  }
  // rank -> original vertex id, straight from the mapping.
  [[nodiscard]] std::span<const graph::VertexId> OrderSpan() const {
    return {view_.order, static_cast<std::size_t>(view_.header.num_vertices)};
  }
  [[nodiscard]] std::size_t FileBytes() const { return file_.size(); }

 private:
  MappedFile file_;
  V2View view_;  // pointers into file_
};

}  // namespace parapll::pll
