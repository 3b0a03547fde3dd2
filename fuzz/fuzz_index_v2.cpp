// Fuzz target: the two v2-container loaders, differentially.
//
// Invariants (Violate() on breach):
//   * heap-accepts => mapping-accepts. ReadIndexV2 applies a strict
//     superset of ValidateV2Mapping's checks (the documented split: only
//     the heap path verifies in-row hub sortedness and distances), so any
//     stream the heap loader takes must also validate as a mapping.
//   * anything the mapping validator accepts is safe to query: the
//     QuerySentinel merge over mapped rows must terminate in-bounds even
//     when hubs are unsorted (sentinels close every row).
#include <cstring>
#include <stdexcept>
#include <vector>

#include "harness_util.hpp"
#include "pll/format_v2.hpp"
#include "pll/label_store.hpp"

namespace {

using parapll::fuzz::AsStream;
using parapll::fuzz::Violate;

}  // namespace

extern "C" int PARAPLL_FUZZ_ENTRY(const std::uint8_t* data,
                                  std::size_t size) {
  bool heap_ok = false;
  parapll::pll::Index heap_index;
  try {
    auto in = AsStream(data, size);
    heap_index = parapll::pll::ReadIndexV2(in);
    heap_ok = true;
  } catch (const std::runtime_error&) {
  }

  // ValidateV2Mapping insists on an aligned base (mmap gives page
  // alignment for free); copy into LabelEntry-aligned storage so the
  // validator sees the geometry, not the fuzzer's buffer address.
  std::vector<parapll::pll::LabelEntry> aligned(
      size / sizeof(parapll::pll::LabelEntry) + 1);
  std::memcpy(aligned.data(), data, size);
  const char* base = reinterpret_cast<const char*>(aligned.data());

  bool map_ok = false;
  parapll::pll::V2View view;
  try {
    view = parapll::pll::ValidateV2Mapping(base, size);
    map_ok = true;
  } catch (const std::runtime_error&) {
  }

  if (heap_ok && !map_ok) {
    Violate("heap loader accepted a stream the mapping validator rejects");
  }

  if (map_ok && view.header.num_vertices > 0) {
    const auto n = static_cast<std::size_t>(view.header.num_vertices);
    const parapll::pll::LabelEntry* first = view.entries + view.offsets[0];
    const parapll::pll::LabelEntry* last =
        view.entries + view.offsets[n - 1];
    (void)parapll::pll::QuerySentinel(first, last);
    (void)parapll::pll::QuerySentinel(last, last);
  }
  if (heap_ok && heap_index.NumVertices() > 0) {
    (void)heap_index.Query(0, heap_index.NumVertices() - 1);
  }
  return 0;
}
