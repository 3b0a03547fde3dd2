#include "corrupt_cases.hpp"

#include <sstream>

#include "build/pipeline.hpp"
#include "cluster/wire.hpp"
#include "graph/generators.hpp"
#include "pll/format_v2.hpp"
#include "serve/frame.hpp"

namespace parapll::corpus {

pll::Index MakeIndex() {
  const graph::Graph g =
      graph::ErdosRenyi(20, 50, {graph::WeightModel::kUniform, 10}, 42);
  pll::Index index = build::Run(g, {}).artifact.index;
  // No provenance: these seeds exercise the label and order regions, and
  // MakeManifestedIndex covers the manifest.
  index.SetManifest({});
  return index;
}

pll::Index MakeManifestedIndex() {
  const graph::Graph g =
      graph::ErdosRenyi(24, 60, {graph::WeightModel::kUniform, 10}, 6);
  pll::Index index = build::Run(g, {}).artifact.index;
  // Pin the two clock-derived fields so every export writes the same
  // bytes and the committed seeds only change with the format.
  pll::BuildManifest manifest = index.Manifest();
  manifest.wall_seconds = 0.5;
  manifest.created_unix = 1'700'000'000;
  index.SetManifest(std::move(manifest));
  return index;
}

pll::Index MakeZeroVertexIndex() {
  return pll::Index(pll::LabelStore::FromRows({}), {});
}

pll::Index MakeZeroLabelIndex() {
  return pll::Index(
      pll::LabelStore::FromRows(std::vector<std::vector<pll::LabelEntry>>(3)),
      {0, 1, 2});
}

std::string V2Bytes(const pll::Index& index) {
  std::ostringstream out(std::ios::binary);
  pll::WriteIndexV2(index, out);
  return out.str();
}

std::string ManifestBytes(const pll::BuildManifest& manifest) {
  std::ostringstream out(std::ios::binary);
  manifest.Serialize(out);
  return out.str();
}

std::string WirePayloadBytes() {
  const std::vector<cluster::LabelUpdate> updates = {
      {1, 0, 7}, {2, 0, 9}, {3, 1, 4}};
  const cluster::Payload payload = cluster::EncodeUpdates(0.5, updates);
  return std::string(payload.begin(), payload.end());
}

std::string DistanceRequestFrame() {
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}, {4, 4}};
  return serve::EncodeDistanceRequest(pairs);
}

std::string OkResponseFrame() {
  const std::vector<graph::Distance> distances = {7, 0,
                                                  graph::kInfiniteDistance};
  return serve::EncodeOkResponse(distances);
}

std::string DistanceRequestPayload() { return DistanceRequestFrame().substr(4); }

std::string OkResponsePayload() { return OkResponseFrame().substr(4); }

std::string SampleGraphText() {
  return "# parapll edge list: n=6 m=4\n"
         "0 1 3\n"
         "1 2 1\n"
         "2 3 4\n"
         "4 5 1\n";
}

std::size_t RootsCursorOffset(const std::string& manifest_bytes) {
  std::size_t pos = kManifestModeLen;
  for (int name = 0; name < 3; ++name) {
    pos += sizeof(std::uint32_t) + Peek<std::uint32_t>(manifest_bytes, pos);
  }
  return pos + 3 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
}

namespace {

// A copy with one byte XOR-flipped.
std::string Flip(std::string bytes, std::size_t pos) {
  bytes.at(pos) ^= 0x5a;
  return bytes;
}

template <typename T>
std::string With(std::string bytes, std::size_t pos, T value) {
  Patch(bytes, pos, value);
  return bytes;
}

// Byte offsets inside a v2 image: offsets[v] (the sentinel-inclusive
// start of row v, in entries) and the entry at physical index i.
std::size_t V2OffsetPos(const std::string& v2, std::uint64_t v) {
  return static_cast<std::size_t>(Peek<std::uint64_t>(v2, kV2OffsetsPos) +
                                  v * sizeof(std::uint64_t));
}

std::size_t V2EntryPos(const std::string& v2, std::uint64_t i) {
  return static_cast<std::size_t>(Peek<std::uint64_t>(v2, kV2EntriesPos) +
                                  i * sizeof(pll::LabelEntry));
}

}  // namespace

std::vector<SeedCase> IndexV2Seeds() {
  const pll::Index index = MakeManifestedIndex();
  const std::string v2 = V2Bytes(index);
  const std::uint64_t n = index.NumVertices();
  const std::uint64_t total = index.TotalEntries();
  const auto order_pos =
      static_cast<std::size_t>(Peek<std::uint64_t>(v2, kV2OrderPos));
  // First entry of the first row holding at least two real entries.
  std::uint64_t long_row = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    const auto lo = Peek<std::uint64_t>(v2, V2OffsetPos(v2, v));
    if (Peek<std::uint64_t>(v2, V2OffsetPos(v2, v + 1)) - lo >= 3) {
      long_row = lo;
      break;
    }
  }
  std::vector<SeedCase> seeds = {
      {"valid", v2},
      {"valid-no-manifest", V2Bytes(MakeIndex())},
      {"valid-zero-vertex", V2Bytes(MakeZeroVertexIndex())},
      {"valid-zero-labels", V2Bytes(MakeZeroLabelIndex())},
      {"empty", ""},
      {"bad-magic", Flip(v2, 0)},
      {"bad-version", With<std::uint32_t>(v2, kV2Version, 3)},
      {"truncated-header", v2.substr(0, 79)},
      {"truncated-half", v2.substr(0, v2.size() / 2)},
      {"truncated-mid-entry", v2.substr(0, v2.size() - 5)},
      {"trailing-byte", v2 + '\0'},
      {"misaligned-entries",
       With<std::uint64_t>(v2, kV2EntriesPos,
                           Peek<std::uint64_t>(v2, kV2EntriesPos) + 8)},
      {"huge-declared-n",
       With<std::uint64_t>(v2, kV2NumVertices, std::uint64_t{1} << 56)},
      {"huge-declared-entries",
       With<std::uint64_t>(v2, kV2TotalEntries, std::uint64_t{1} << 50)},
      {"manifest-vertex-mismatch",
       With<std::uint64_t>(v2, pll::kIndexV2HeaderBytes + kManifestNumVertices,
                           n + 5)},
      // offsets[2] = 0 while offsets[1] >= 1 (rank 0's row is non-empty).
      {"non-monotonic-offsets",
       With<std::uint64_t>(v2, V2OffsetPos(v2, 2), 0)},
      {"offset-past-entries",
       With<std::uint64_t>(v2, V2OffsetPos(v2, 1), total + n + 1)},
      // The sentinel closing row 0 replaced by a plausible hub id.
      {"missing-sentinel",
       With<graph::VertexId>(
           v2, V2EntryPos(v2, Peek<std::uint64_t>(v2, V2OffsetPos(v2, 1)) - 1),
           0)},
      // order[0] duplicated into order[1]'s value, or out of range.
      {"non-permutation-order",
       With<graph::VertexId>(
           v2, order_pos,
           Peek<graph::VertexId>(v2, order_pos + sizeof(graph::VertexId)))},
      {"out-of-range-order",
       With<graph::VertexId>(v2, order_pos,
                             static_cast<graph::VertexId>(n + 7))},
      // The documented split cases: mapping-accepts, heap-rejects.
      {"unsorted-hubs",
       With<graph::VertexId>(v2, V2EntryPos(v2, long_row + 1),
                             Peek<graph::VertexId>(
                                 v2, V2EntryPos(v2, long_row)))},
      {"sentinel-hub-entry",
       With<graph::VertexId>(v2, V2EntryPos(v2, long_row),
                             graph::kInvalidVertex)},
  };
  {
    // Regions shifted past EOF while staying self-consistent.
    std::string bytes = v2;
    constexpr std::uint64_t kShift = 1 << 20;
    for (const std::size_t field :
         {kV2OffsetsPos, kV2EntriesPos, kV2FileBytes}) {
      Patch<std::uint64_t>(bytes, field,
                           Peek<std::uint64_t>(bytes, field) + kShift);
    }
    seeds.push_back({"regions-past-eof", std::move(bytes)});
  }
  {
    // One more declared entry, present in the file, that the offset
    // table does not reach.
    std::string bytes = v2 + std::string(sizeof(pll::LabelEntry), '\0');
    Patch<std::uint64_t>(bytes, kV2TotalEntries, total + 1);
    Patch<std::uint64_t>(bytes, kV2FileBytes, bytes.size());
    seeds.push_back({"total-not-covered", std::move(bytes)});
  }
  return seeds;
}

std::vector<SeedCase> ManifestSeeds() {
  const std::string m = ManifestBytes(MakeManifestedIndex().Manifest());
  return {
      {"valid", m},
      {"empty", ""},
      {"bad-magic", Flip(m, 0)},
      {"bad-version",
       With<std::uint32_t>(m, kManifestVersion,
                           pll::BuildManifest::kMaxFormatVersion + 1)},
      {"max-version",
       With<std::uint32_t>(m, kManifestVersion,
                           pll::BuildManifest::kMaxFormatVersion)},
      {"oversized-name", With<std::uint32_t>(m, kManifestModeLen, 1000)},
      {"cursor-beyond-n",
       With<std::uint64_t>(m, RootsCursorOffset(m),
                           Peek<std::uint64_t>(m, kManifestNumVertices) +
                               100)},
      {"truncated-names", m.substr(0, kManifestModeLen + 2)},
      {"truncated-tail", m.substr(0, m.size() - 3)},
  };
}

std::vector<SeedCase> ClusterWireSeeds() {
  const std::string wire = WirePayloadBytes();
  return {
      {"valid", wire},
      {"empty", ""},
      {"truncated-clock", wire.substr(0, 6)},
      {"truncated-record", wire.substr(0, wire.size() - 4)},
      {"trailing-byte", wire + '\0'},
      {"oversized-count",
       With<std::uint64_t>(wire, 8, std::uint64_t{1} << 60)},
  };
}

std::vector<SeedCase> ServeFrameSeeds() {
  const std::string request = DistanceRequestFrame();
  const std::string response = OkResponseFrame();
  const std::vector<query::QueryPair> pairs = {{0, 1}, {2, 3}};
  const std::string traced =
      serve::EncodeDistanceRequest(pairs, "req-42/a.b:c");
  const std::string info_request = serve::EncodeInfoRequest();
  std::vector<SeedCase> seeds = {
      {"valid-request", request},
      {"valid-response", response},
      {"valid-traced-request", traced},
      {"valid-info-request", info_request},
      {"empty", ""},
      {"bad-request-magic", Flip(request, 4)},
      {"unknown-type", With<char>(request, 8, '\x7f')},
      {"count-mismatch", With<std::uint32_t>(request, 9, 4)},
      {"oversized-count",
       With<std::uint32_t>(request, 9, std::uint32_t{1} << 30)},
      {"truncated-frame", request.substr(0, request.size() - 3)},
      {"two-frames", request + info_request},
  };
  {
    // A 2 GiB length prefix with no body: FrameReader must reject it
    // from the prefix alone.
    std::string bomb(4, '\0');
    const std::uint32_t declared = std::uint32_t{1} << 31;
    Patch(bomb, 0, declared);
    seeds.push_back({"declared-length-bomb", std::move(bomb)});
  }
  {
    std::string payload = DistanceRequestPayload();
    payload.push_back('\x05');
    payload += "ab";
    std::string frame(4, '\0');
    Patch(frame, 0, static_cast<std::uint32_t>(payload.size()));
    seeds.push_back({"trace-length-mismatch", frame + payload});
  }
  return seeds;
}

std::vector<SeedCase> GraphTextSeeds() {
  return {
      {"valid", SampleGraphText()},
      {"valid-no-weights", "0 1\n1 2\n"},
      {"valid-comment-only", "# nothing here\n"},
      {"empty", ""},
      {"missing-field", "0\n"},
      {"non-numeric-id", "0 x 3\n"},
      {"zero-weight", "0 1 0\n"},
      {"negative-weight", "0 1 -5\n"},
      {"nan-weight", "0 1 NaN\n"},
      {"float-weight", "0 1 2.5\n"},
      {"overflow-weight", "0 1 99999999999\n"},
      {"huge-id", "0 18446744073709551615\n"},
      {"huge-header-n", "# n=18446744073709551615\n0 1 2\n"},
      {"tabs-and-extra-columns", "0\t1\t3\t1699999999 label\n"},
  };
}

std::vector<SeedTarget> AllSeedTargets() {
  return {
      {"index_v2", IndexV2Seeds()},
      {"manifest", ManifestSeeds()},
      {"cluster_wire", ClusterWireSeeds()},
      {"serve_frame", ServeFrameSeeds()},
      {"graph_text", GraphTextSeeds()},
  };
}

}  // namespace parapll::corpus
