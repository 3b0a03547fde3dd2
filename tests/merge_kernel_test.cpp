// The two label-merge kernels against a naive O(|a|·|b|) reference:
// MergeRows (bounded spans: QueryRows, and PathIndex's Query and
// ReconstructPath best hub over PathLabelEntry rows) and the sentinel
// merge (QuerySentinel / QuerySentinelCounted, the query engine's loop).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "pll/label_store.hpp"
#include "pll/path_index.hpp"
#include "util/rng.hpp"

namespace parapll::pll {
namespace {

using graph::Distance;
using graph::kInfiniteDistance;
using graph::kInvalidVertex;
using graph::VertexId;

// Every common hub checked against every other: the minimum saturated
// 64-bit sum, ties to the lowest hub, no hub when nothing finite is
// shared.
HubDistance NaiveBestHub(const std::vector<LabelEntry>& a,
                         const std::vector<LabelEntry>& b) {
  HubDistance best;
  for (const LabelEntry& x : a) {
    for (const LabelEntry& y : b) {
      if (x.hub != y.hub) {
        continue;
      }
      const Distance sum = graph::SaturatingAdd(x.dist, y.dist);
      if (sum == kInfiniteDistance) {
        continue;
      }
      if (sum < best.dist || (sum == best.dist && x.hub < best.hub)) {
        best = {sum, x.hub};
      }
    }
  }
  return best;
}

std::vector<PathLabelEntry> WithParents(const std::vector<LabelEntry>& row) {
  std::vector<PathLabelEntry> out;
  for (const LabelEntry& e : row) {
    out.push_back(PathLabelEntry{e.hub, e.dist, /*parent=*/e.hub});
  }
  return out;
}

std::vector<LabelEntry> WithSentinel(std::vector<LabelEntry> row) {
  row.push_back(LabelEntry{kInvalidVertex, kOverRangeLabelDistance});
  return row;
}

// Runs every kernel on (a, b) and compares with the reference.
void ExpectKernelsAgree(const std::vector<LabelEntry>& a,
                        const std::vector<LabelEntry>& b) {
  const HubDistance want = NaiveBestHub(a, b);

  EXPECT_EQ(QueryRows(a, b), want.dist);

  const std::vector<PathLabelEntry> pa = WithParents(a);
  const std::vector<PathLabelEntry> pb = WithParents(b);
  const HubDistance got = MergeRows<PathLabelEntry>(pa, pb);
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.hub, want.hub);

  const std::vector<LabelEntry> sa = WithSentinel(a);
  const std::vector<LabelEntry> sb = WithSentinel(b);
  EXPECT_EQ(QuerySentinel(sa.data(), sb.data()), want.dist);
  std::uint64_t scanned = 7;  // the count accumulates
  EXPECT_EQ(QuerySentinelCounted(sa.data(), sb.data(), scanned), want.dist);
  EXPECT_EQ(scanned, 7 + a.size() + b.size());
}

TEST(MergeKernelTest, EmptyRows) {
  const std::vector<LabelEntry> none;
  const std::vector<LabelEntry> some = {{1, 2}, {5, 0}};
  ExpectKernelsAgree(none, none);
  ExpectKernelsAgree(none, some);
  ExpectKernelsAgree(some, none);
  EXPECT_EQ(MergeRows<LabelEntry>(none, some).hub, kInvalidVertex);
}

TEST(MergeKernelTest, DisjointHubs) {
  const std::vector<LabelEntry> evens = {{0, 1}, {2, 1}, {4, 1}, {6, 1}};
  const std::vector<LabelEntry> odds = {{1, 1}, {3, 1}, {5, 1}};
  ExpectKernelsAgree(evens, odds);
  EXPECT_EQ(QueryRows(evens, odds), kInfiniteDistance);
}

TEST(MergeKernelTest, EqualDistanceTieGoesToLowestHub) {
  // Hubs 2, 5, 9 all give 10; hub 7 gives 11.
  const std::vector<LabelEntry> a = {{2, 4}, {5, 3}, {7, 6}, {9, 9}};
  const std::vector<LabelEntry> b = {{1, 0}, {2, 6}, {5, 7}, {7, 5}, {9, 1}};
  ExpectKernelsAgree(a, b);
  const HubDistance best = MergeRows<LabelEntry>(a, b);
  EXPECT_EQ(best.dist, 10u);
  EXPECT_EQ(best.hub, 2u);
}

// Label distances are 32-bit; their sums are not. Near kMaxLabelDistance
// a 32-bit sum would wrap to a tiny, wrongly-best distance.
TEST(MergeKernelTest, SumsNearTheLabelLimitDoNotWrap) {
  const LabelDistance big = kMaxLabelDistance - 3;
  // Hub 1 would wrap to 0 in 32 bits; hub 4's sum is the true minimum.
  const std::vector<LabelEntry> a = {{1, big}, {4, big - 10}};
  const std::vector<LabelEntry> b = {{1, 5}, {4, 2}};
  ExpectKernelsAgree(a, b);
  EXPECT_EQ(QueryRows(a, b), Distance{big} - 8);
  EXPECT_EQ(MergeRows<LabelEntry>(a, b).hub, 4u);

  // The largest sum two rows can produce is exact: 2 * kMaxLabelDistance.
  const std::vector<LabelEntry> c = {{1, kMaxLabelDistance},
                                     {4, kMaxLabelDistance}};
  ExpectKernelsAgree(c, c);
  EXPECT_EQ(QueryRows(c, c), 2 * Distance{kMaxLabelDistance});
  EXPECT_EQ(MergeRows<LabelEntry>(c, c).hub, 1u);
}

// Random hub-sorted row over [0, universe) with distances drawn from
// `dist_of`: small universes give many common hubs, small distance
// ranges give many ties.
template <typename DistOf>
std::vector<LabelEntry> RandomRow(util::Rng& rng, VertexId universe,
                                  double density, DistOf dist_of) {
  std::vector<LabelEntry> row;
  for (VertexId hub = 0; hub < universe; ++hub) {
    if (rng.Chance(density)) {
      row.push_back(LabelEntry{hub, dist_of(rng)});
    }
  }
  return row;
}

TEST(MergeKernelTest, RandomRowsMatchNaiveReference) {
  util::Rng rng(14);
  const auto draw = [](util::Rng& r, std::uint64_t bound) {
    return static_cast<LabelDistance>(r.Below(bound));
  };
  const auto tiny = [&](util::Rng& r) { return draw(r, 4); };
  const auto wide = [&](util::Rng& r) { return draw(r, 1u << 20); };
  // Near the 32-bit label limit, where a narrow sum would wrap.
  const auto huge = [&](util::Rng& r) {
    return r.Chance(0.5) ? kMaxLabelDistance - draw(r, 64) : draw(r, 64);
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const auto universe = static_cast<VertexId>(1 + rng.Below(80));
    const double da = rng.Real();
    const double db = rng.Real();
    switch (trial % 3) {
      case 0:
        ExpectKernelsAgree(RandomRow(rng, universe, da, tiny),
                           RandomRow(rng, universe, db, tiny));
        break;
      case 1:
        ExpectKernelsAgree(RandomRow(rng, universe, da, wide),
                           RandomRow(rng, universe, db, wide));
        break;
      default:
        ExpectKernelsAgree(RandomRow(rng, universe, da, huge),
                           RandomRow(rng, universe, db, huge));
        break;
    }
    if (HasFailure()) {
      FAIL() << "first disagreement at trial " << trial;
    }
  }
}

}  // namespace
}  // namespace parapll::pll
