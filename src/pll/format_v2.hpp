// Index format v2 — the one on-disk index container.
//
// v2 persists the query-stage layout verbatim: an 8-byte-aligned
// flattened region of sentinel-terminated rows of 8-byte LabelEntry
// records (u32 hub, u32 dist; no padding) plus an offset table in
// physical (sentinel-inclusive) entry units. `mmap` + pointer arithmetic
// over that region is a valid QuerySentinel input with zero per-entry
// work (mmap_store.hpp); the heap loader reads the same bytes into a
// LabelStore. Builds, checkpoints and every CLI command write it.
//
// On-disk layout (all integers little-endian host PODs; positions are
// absolute byte offsets from file start):
//
//   header (80 bytes):
//     u64 magic          "PLLIdxV2"
//     u32 version        3 (kIndexFormatV2)
//     u32 header_bytes   80
//     u64 num_vertices   n
//     u64 total_entries  label entries excluding sentinels
//     u64 manifest_pos   BuildManifest::Serialize bytes
//     u64 manifest_len
//     u64 order_pos      n * u32   (rank -> original vertex id)
//     u64 offsets_pos    (n+1) * u64, in LabelEntry units incl. sentinels
//     u64 entries_pos    (total_entries + n) * 8 bytes; 8-byte aligned
//     u64 file_bytes     declared total file size
//   regions, in file order: manifest | order | offsets | pad | entries
//
// Header version 2 is the retired layout with 16-byte entries (a 64-bit
// distance and 4 padding bytes); both loaders reject it with a message
// asking for a rebuild. There is no converter.
//
// The writer stamps the embedded manifest with format_version ==
// kIndexFormatV2; loaders accept any manifest version in
// [1, BuildManifest::kMaxFormatVersion] (see pll/manifest.hpp).
//
// Validation contract: ReadIndexV2 (the heap loader) applies full
// per-entry rigor — strictly sorted hubs, no sentinel hub inside a row,
// no reserved over-range distance, a sentinel at every row end, order
// permutation, exact file size, and no region-sized allocation before
// the size is checked against the bytes present. ValidateV2Mapping (the
// zero-copy loader) validates everything that memory safety and merge
// termination depend on in O(n): geometry, alignment, region bounds
// against the *actual* file size, one sentinel per row end, and the
// order permutation — but deliberately not per-entry hub order or
// distances, which would defeat the zero-deserialization point.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "pll/index.hpp"
#include "pll/label_store.hpp"

namespace parapll::pll {

inline constexpr std::uint64_t kIndexV2Magic =
    0x3256'7864'494c'4c50ULL;  // "PLLIdxV2" read as a little-endian u64
// The container's current header version (the name predates the 8-byte
// entries; the magic is unchanged).
inline constexpr std::uint32_t kIndexFormatV2 = 3;
// The retired 16-byte-entry layout; rejected with a rebuild message.
inline constexpr std::uint32_t kIndexFormatWideEntries = 2;
static_assert(kIndexFormatV2 == BuildManifest::kMaxFormatVersion);
inline constexpr std::uint32_t kIndexV2HeaderBytes = 80;

// Fixed-size header; see the layout comment above.
struct V2Header {
  std::uint64_t magic = kIndexV2Magic;
  std::uint32_t version = kIndexFormatV2;
  std::uint32_t header_bytes = kIndexV2HeaderBytes;
  std::uint64_t num_vertices = 0;
  std::uint64_t total_entries = 0;
  std::uint64_t manifest_pos = 0;
  std::uint64_t manifest_len = 0;
  std::uint64_t order_pos = 0;
  std::uint64_t offsets_pos = 0;
  std::uint64_t entries_pos = 0;
  std::uint64_t file_bytes = 0;
};
static_assert(sizeof(V2Header) == kIndexV2HeaderBytes);

// Serializes `index` in format v2. The index's manifest is embedded with
// format_version forced to kIndexFormatV2. Throws std::runtime_error on
// I/O failure.
void WriteIndexV2(const Index& index, std::ostream& out);
// Direct (non-atomic) file write; build/artifact.hpp wraps this in the
// tmp + rename publish step.
void WriteIndexV2File(const Index& index, const std::string& path);

// Heap loader: reads a v2 stream into an ordinary Index (LabelStore on
// the heap), with full untrusted-input validation. Requires a seekable
// stream; Index::LoadFile routes here.
Index ReadIndexV2(std::istream& in);

// Validated zero-copy view over a complete v2 file image (the mmap
// backend). `data` must stay alive (and mapped) for as long as the
// view's pointers are used. Throws std::runtime_error on any
// geometry / alignment / bounds / sentinel / permutation violation.
struct V2View {
  V2Header header;
  BuildManifest manifest;
  const graph::VertexId* order = nullptr;   // n entries
  const std::uint64_t* offsets = nullptr;   // n + 1 entries
  const LabelEntry* entries = nullptr;      // total_entries + n entries
};
V2View ValidateV2Mapping(const char* data, std::size_t size);

}  // namespace parapll::pll
