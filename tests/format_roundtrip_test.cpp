// Round-trip properties and degenerate-shape coverage of the format-v2
// index container:
//   * v2 -> load -> v2 is byte-idempotent, and two serial builds of one
//     graph write the same bytes;
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
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "build/pipeline.hpp"
#include "corrupt_cases.hpp"
#include "graph/generators.hpp"
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

// A LabelEntry has no padding, so the writer's raw copy of the rows puts
// only defined bytes on disk, and equal builds give equal files: two
// serial builds of one graph differ only in the manifest's clock fields.
static_assert(std::has_unique_object_representations_v<pll::LabelEntry>);

TEST(FormatRoundTrip, SerialBuildsWriteIdenticalBytes) {
  const graph::Graph g =
      graph::ErdosRenyi(40, 120, {graph::WeightModel::kUniform, 100}, 3);
  const auto build_bytes = [&] {
    pll::Index index = build::Run(g, {}).artifact.index;
    pll::BuildManifest manifest = index.Manifest();
    manifest.wall_seconds = 0.0;
    manifest.created_unix = 0;
    index.SetManifest(std::move(manifest));
    return V2Bytes(index);
  };
  const std::string first = build_bytes();
  EXPECT_EQ(build_bytes(), first);
  EXPECT_EQ(first.size() - corpus::Peek<std::uint64_t>(first,
                                                       corpus::kV2EntriesPos),
            (corpus::Peek<std::uint64_t>(first, corpus::kV2TotalEntries) +
             corpus::Peek<std::uint64_t>(first, corpus::kV2NumVertices)) *
                sizeof(pll::LabelEntry));
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
