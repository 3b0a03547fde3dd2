// The pluggable-label-storage contract: both LabelSource backends (heap
// LabelStore, zero-copy MmapLabelStore) must answer bit-identical
// distances through QueryEngine, and the format-v2
// container must make the mmap path genuinely zero-copy (open time far
// below the heap deserializer on a large index).
#include "pll/label_source.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "pll/format_v2.hpp"
#include "pll/index.hpp"
#include "pll/mmap_store.hpp"
#include "query/query_engine.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace parapll {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;

const WeightOptions kUniform{WeightModel::kUniform, 20};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "parapll_source_" + name + "." +
         std::to_string(::getpid()) + ".idx";
}

pll::Index BuildIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

std::vector<query::QueryPair> RandomPairs(graph::VertexId n,
                                          std::size_t count,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<query::QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

std::size_t FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return static_cast<std::size_t>(in.tellg());
}

TEST(StoreBackendTest, NamesRoundTrip) {
  for (const pll::StoreBackend backend :
       {pll::StoreBackend::kHeap, pll::StoreBackend::kMmap}) {
    EXPECT_EQ(pll::StoreBackendFromString(pll::ToString(backend)), backend);
  }
  EXPECT_THROW((void)pll::StoreBackendFromString("disk"),
               std::runtime_error);
  EXPECT_THROW((void)pll::StoreBackendFromString("paged"),
               std::runtime_error);
}

TEST(FormatV2Test, FileRoundTripPreservesStoreOrderAndManifest) {
  const Graph g = graph::ErdosRenyi(90, 270, kUniform, 13);
  const build::BuildOutcome built = build::Run(g, {});
  const pll::Index& index = built.artifact.index;
  const std::string path = TempPath("roundtrip");
  pll::WriteIndexV2File(index, path);

  const pll::Index loaded = pll::Index::LoadFile(path);
  EXPECT_EQ(loaded.Store(), index.Store());
  EXPECT_TRUE(std::equal(loaded.Order().begin(), loaded.Order().end(),
                         index.Order().begin(), index.Order().end()));
  EXPECT_EQ(loaded.Manifest(), index.Manifest());
  EXPECT_EQ(loaded.Manifest().format_version, pll::kIndexFormatV2);
  std::remove(path.c_str());
}

TEST(FormatV2Test, EmptyIndexRoundTrips) {
  const pll::Index empty(pll::LabelStore::FromRows({}), {});
  const std::string path = TempPath("empty");
  pll::WriteIndexV2File(empty, path);
  EXPECT_EQ(pll::Index::LoadFile(path).NumVertices(), 0u);
#if PARAPLL_HAVE_MMAP
  EXPECT_EQ(pll::MmapLabelStore::Open(path)->NumVertices(), 0u);
#endif
  std::remove(path.c_str());
}

#if PARAPLL_HAVE_MMAP

// The core acceptance matrix: on several graph families, the mapped
// backend's QueryBatch answers are bit-identical to the heap per-call
// baseline.
TEST(LabelSourceTest, AllBackendsAnswerIdenticallyAcrossGraphFamilies) {
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"erdos-renyi", graph::ErdosRenyi(140, 420, kUniform, 21)},
      {"barabasi-albert", graph::BarabasiAlbert(130, 3, kUniform, 22)},
      {"road-grid", graph::RoadGrid(12, 11, 0.9, 4, kUniform, 23)},
  };
  for (const Family& family : families) {
    SCOPED_TRACE(family.name);
    const pll::Index index = BuildIndex(family.g);
    const std::string path = TempPath(family.name);
    pll::WriteIndexV2File(index, path);

    const auto pairs = RandomPairs(family.g.NumVertices(), 600, 31);
    std::vector<graph::Distance> expected(pairs.size());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      expected[i] = index.Query(pairs[i].first, pairs[i].second);
    }

    const std::shared_ptr<const pll::LabelSource> mapped =
        pll::MmapLabelStore::Open(path);
    EXPECT_EQ(mapped->NumVertices(), index.NumVertices());
    EXPECT_EQ(mapped->TotalEntries(), index.TotalEntries());
    query::QueryEngine engine(mapped, index.Order(),
                              {.threads = 2, .min_pairs_per_shard = 64});
    EXPECT_EQ(engine.QueryBatch(pairs), expected);
    std::remove(path.c_str());
  }
}

TEST(MmapLabelStoreTest, ExposesManifestAndOrderFromTheMapping) {
  const Graph g = graph::ErdosRenyi(70, 210, kUniform, 41);
  const build::BuildOutcome built = build::Run(g, {});
  const std::string path = TempPath("view");
  pll::WriteIndexV2File(built.artifact.index, path);

  const auto mapped = pll::MmapLabelStore::Open(path);
  EXPECT_EQ(mapped->Manifest().graph_fingerprint,
            built.artifact.Manifest().graph_fingerprint);
  EXPECT_EQ(mapped->Manifest().format_version, pll::kIndexFormatV2);
  EXPECT_TRUE(std::equal(mapped->OrderSpan().begin(),
                         mapped->OrderSpan().end(),
                         built.artifact.index.Order().begin(),
                         built.artifact.index.Order().end()));
  EXPECT_EQ(mapped->FileBytes(), FileBytes(path));
  // Bookkeeping only: the mapping's pages are file-backed, not owned.
  EXPECT_LT(mapped->MemoryBytes(), std::size_t{4096});
  std::remove(path.c_str());
}

// Concurrent shards read the one shared mapping; every answer must match
// the heap baseline (TSan / ASan builds make this a race detector).
TEST(MmapLabelStoreTest, MultithreadedBatchesStayCorrect) {
  const Graph g = graph::BarabasiAlbert(180, 3, kUniform, 91);
  const pll::Index index = BuildIndex(g);
  const std::string path = TempPath("threads");
  pll::WriteIndexV2File(index, path);

  const auto mapped = pll::MmapLabelStore::Open(path);
  query::QueryEngine engine(mapped, index.Order(),
                            {.threads = 4, .min_pairs_per_shard = 32});
  for (std::uint64_t round = 0; round < 6; ++round) {
    const auto pairs = RandomPairs(g.NumVertices(), 2000, 100 + round);
    const auto got = engine.QueryBatch(pairs);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(got[i], index.Query(pairs[i].first, pairs[i].second));
    }
  }
  std::remove(path.c_str());
}

// Zero-copy is not a vibe: opening the mapped store must be dramatically
// cheaper than heap-deserializing the same container, because it reads
// only the O(n) metadata instead of copying every entry. Built on a
// synthetic store large enough (hundreds of thousands of entries) that
// the gap is structural, compared min-of-3 against min-of-3.
TEST(LabelSourceTest, MmapOpenIsFarCheaperThanHeapDeserialize) {
  constexpr graph::VertexId kVertices = 4096;
  constexpr std::size_t kEntriesPerRow = 160;  // ~650k entries, ~10 MB
  std::vector<std::vector<pll::LabelEntry>> rows(kVertices);
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    rows[v].reserve(kEntriesPerRow);
    for (std::size_t i = 0; i < kEntriesPerRow; ++i) {
      rows[v].push_back(pll::LabelEntry{
          static_cast<graph::VertexId>(i * 7 + (v % 5)),
          static_cast<graph::Distance>(v + i + 1)});
    }
  }
  std::vector<graph::VertexId> order(kVertices);
  for (graph::VertexId v = 0; v < kVertices; ++v) {
    order[v] = v;
  }
  const pll::Index index(pll::LabelStore::FromRows(std::move(rows)),
                         std::move(order));
  const std::string path = TempPath("timing");
  pll::WriteIndexV2File(index, path);

  auto min_of_3 = [](auto&& body) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      util::WallTimer timer;
      body();
      best = std::min(best, timer.Seconds());
    }
    return best;
  };
  // Touch the file once so both contenders read a warm page cache.
  const double heap_seconds =
      min_of_3([&] { (void)pll::Index::LoadFile(path); });
  const double mmap_seconds = min_of_3([&] {
    (void)pll::MmapLabelStore::Open(path)->TotalEntries();
  });
  EXPECT_LT(mmap_seconds * 2.0, heap_seconds)
      << "mmap open " << mmap_seconds << "s vs heap load " << heap_seconds
      << "s — zero-copy regressed into a copy";
  std::remove(path.c_str());
}

#endif  // PARAPLL_HAVE_MMAP

}  // namespace
}  // namespace parapll
