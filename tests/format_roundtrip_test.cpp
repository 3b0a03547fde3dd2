// Round-trip properties and degenerate-shape coverage of the format-v2
// index container:
//   * v2 -> load -> v2 is byte-idempotent;
//   * the degenerate shapes — a zero-vertex index and an all-empty-rows
//     index — survive both loaders (heap and mmap), because they are
//     exactly the shapes ad-hoc loader arithmetic tends to get wrong
//     (n == 0 offset tables, rows that are only a sentinel).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "corrupt_cases.hpp"
#include "graph/types.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"
#include "pll/label_store.hpp"
#include "pll/mmap_store.hpp"

namespace parapll {
namespace {

using corpus::MakeManifestedIndex;
using corpus::V2Bytes;

pll::Index LoadV2(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return pll::ReadIndexV2(in);
}

TEST(FormatRoundTrip, V2ToV2IsByteIdempotent) {
  const std::string v2 = V2Bytes(MakeManifestedIndex());
  EXPECT_EQ(V2Bytes(LoadV2(v2)), v2);
}

// The 4 padding bytes of a LabelEntry are indeterminate in memory; the
// writer must put zeros on disk, so equal indexes give equal files.
TEST(FormatRoundTrip, EntryPaddingIsWrittenAsZero) {
  pll::LabelEntry dirty;
  std::memset(static_cast<void*>(&dirty), 0xab, sizeof(dirty));
  std::vector<std::vector<pll::LabelEntry>> rows(2);
  for (graph::VertexId v = 0; v < 2; ++v) {
    dirty.hub = 0;
    dirty.dist = v;
    rows[v].push_back(dirty);
  }
  const pll::Index index(pll::LabelStore::FromRows(std::move(rows)), {0, 1});
  const std::string v2 = V2Bytes(index);
  const auto entries_pos =
      static_cast<std::size_t>(corpus::Peek<std::uint64_t>(
          v2, corpus::kV2EntriesPos));
  for (std::size_t at = entries_pos; at < v2.size();
       at += sizeof(pll::LabelEntry)) {
    EXPECT_EQ(corpus::Peek<std::uint32_t>(v2, at + sizeof(graph::VertexId)),
              0u)
        << "entry at byte " << at;
  }
}

// --- degenerate shapes through every backend ---------------------------

std::string BackendTempPath(const char* name) {
  return ::testing::TempDir() + "parapll_roundtrip_" + name + "." +
         std::to_string(::getpid()) + ".v2";
}

// Runs `index` through the heap loader and (where available) the mmap
// backend, checking the given probe distance.
void ExerciseAllBackends(const pll::Index& index, const char* tag,
                         graph::VertexId probe_s, graph::VertexId probe_t,
                         graph::Distance expected) {
  SCOPED_TRACE(tag);
  const auto n = index.NumVertices();

  const std::string v2 = V2Bytes(index);
  const pll::Index heap = LoadV2(v2);
  EXPECT_EQ(heap.NumVertices(), n);
  EXPECT_EQ(heap.Store(), index.Store());
  EXPECT_EQ(V2Bytes(heap), v2);
  if (n > 0) {
    EXPECT_EQ(heap.Query(probe_s, probe_t), expected);
  }

#ifdef PARAPLL_HAVE_MMAP
  const std::string path = BackendTempPath(tag);
  pll::WriteIndexV2File(index, path);
  const auto mapped = pll::MmapLabelStore::Open(path);
  EXPECT_EQ(mapped->NumVertices(), n);
  EXPECT_EQ(mapped->TotalEntries(), index.TotalEntries());
  if (n > 0) {
    // Zero-copy rows are sentinel-terminated; the merge must terminate.
    EXPECT_EQ(pll::QuerySentinel(mapped->RowBegin(index.RankOf(probe_s)),
                                 mapped->RowBegin(index.RankOf(probe_t))),
              expected);
  }
  std::remove(path.c_str());
#endif
}

TEST(DegenerateShapes, ZeroVertexIndexSurvivesEveryBackend) {
  const pll::Index empty = corpus::MakeZeroVertexIndex();
  EXPECT_EQ(empty.NumVertices(), 0u);
  ExerciseAllBackends(empty, "zero_vertex", 0, 0, 0);
}

TEST(DegenerateShapes, ZeroLabelRowsSurviveEveryBackend) {
  // Three vertices, no labels at all: every row is just its sentinel,
  // every query is "disconnected".
  const pll::Index index = corpus::MakeZeroLabelIndex();
  ASSERT_EQ(index.NumVertices(), 3u);
  ASSERT_EQ(index.TotalEntries(), 0u);
  ExerciseAllBackends(index, "zero_labels", 0, 2,
                      graph::kInfiniteDistance);
}

}  // namespace
}  // namespace parapll
