// Batched query-serving throughput (the paper's §1 motivation at serving
// scale): after indexing once, how many QUERY(s, t) calls per second can
// one node answer, and how does QueryEngine::QueryBatch scale with worker
// threads versus the per-call Index::Query loop?
//
// Output: one table row per thread count — wall seconds, queries/sec,
// speedup over the 1-thread batched run, and speedup over the per-call
// baseline. Every batched distance is checked against Index::Query; a
// mismatch aborts the bench (batching must never change answers).
//
//   bench_query_throughput --n 100000 --deg 4 --pairs 500000
//       --threads 1,2,4,8 --batch 8192 [--metrics-json m.json]
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "query/query_engine.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

std::vector<query::QueryPair> MakePairs(const std::string& pair_file,
                                        std::size_t count,
                                        graph::VertexId n,
                                        std::uint64_t seed) {
  std::vector<query::QueryPair> pairs;
  if (!pair_file.empty()) {
    std::ifstream in(pair_file);
    if (!in) {
      throw std::runtime_error("cannot open pair file " + pair_file);
    }
    std::uint64_t s = 0;
    std::uint64_t t = 0;
    while (in >> s >> t) {
      pairs.emplace_back(static_cast<graph::VertexId>(s),
                         static_cast<graph::VertexId>(t));
    }
    return pairs;
  }
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

int Run(util::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed"));

  graph::Graph g;
  if (!args.GetString("graph").empty()) {
    g = graph::ReadEdgeListTextFile(args.GetString("graph"));
  } else {
    const auto n = static_cast<graph::VertexId>(args.GetInt("n"));
    const auto deg = static_cast<std::size_t>(args.GetInt("deg"));
    const graph::WeightOptions weights{graph::WeightModel::kUniform, 100};
    const std::string generator = args.GetString("generator");
    if (generator == "ba") {
      g = graph::BarabasiAlbert(n, deg, weights, seed);
    } else if (generator == "rmat") {
      graph::VertexId scale = 0;
      while ((graph::VertexId{1} << scale) < n) {
        ++scale;
      }
      g = graph::Rmat(scale, static_cast<std::size_t>(n) * deg, {}, weights,
                      seed);
    } else if (generator == "road") {
      graph::VertexId side = 1;
      while (side * side < n) {
        ++side;
      }
      g = graph::RoadGrid(side, side, 0.9, n / 100,
                          {graph::WeightModel::kRoadLike, 100}, seed);
    } else {
      std::fprintf(stderr, "unknown --generator %s\n", generator.c_str());
      return 1;
    }
  }
  std::printf("graph: n=%u m=%zu\n", g.NumVertices(), g.NumEdges());

  util::WallTimer build_timer;
  const pll::Index index =
      build::Run(g, {.mode = build::BuildMode::kParallel,
                     .threads = static_cast<std::size_t>(
                         args.GetInt("build-threads")),
                     .seed = seed})
          .artifact.index;
  std::printf("index: LN=%.1f, built in %s\n", index.AvgLabelSize(),
              util::FormatDuration(build_timer.Seconds()).c_str());

  const auto pairs = MakePairs(args.GetString("pair-file"),
                               static_cast<std::size_t>(args.GetInt("pairs")),
                               g.NumVertices(), seed);
  if (pairs.empty()) {
    std::fprintf(stderr, "no query pairs\n");
    return 1;
  }
  const auto batch = static_cast<std::size_t>(args.GetInt("batch"));

  // Per-call baseline: the pre-engine serving path, one Query at a time.
  std::vector<graph::Distance> expected(pairs.size());
  util::WallTimer per_call_timer;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = index.Query(pairs[i].first, pairs[i].second);
  }
  const double per_call_seconds = per_call_timer.Seconds();
  const double per_call_qps =
      static_cast<double>(pairs.size()) / per_call_seconds;
  std::printf("per-call baseline: %zu queries in %s (%.2f Mq/s)\n\n",
              pairs.size(),
              util::FormatDuration(per_call_seconds).c_str(),
              per_call_qps / 1e6);

  util::Table table({"threads", "batch", "seconds", "Mq/s", "vs 1T",
                     "vs per-call"});
  double one_thread_qps = 0.0;
  std::vector<graph::Distance> got(pairs.size());
  for (const int threads : util::ParseIntList(args.GetString("threads"))) {
    query::QueryEngine engine(
        index, {.threads = static_cast<std::size_t>(threads)});
    util::WallTimer timer;
    for (std::size_t begin = 0; begin < pairs.size(); begin += batch) {
      const std::size_t size = std::min(batch, pairs.size() - begin);
      engine.QueryBatch(std::span(pairs).subspan(begin, size),
                        std::span(got).subspan(begin, size));
    }
    const double seconds = timer.Seconds();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (got[i] != expected[i]) {
        std::fprintf(stderr,
                     "MISMATCH at pair %zu (%u, %u): batched %llu != "
                     "per-call %llu\n",
                     i, pairs[i].first, pairs[i].second,
                     static_cast<unsigned long long>(got[i]),
                     static_cast<unsigned long long>(expected[i]));
        return 1;
      }
    }
    const double qps = static_cast<double>(pairs.size()) / seconds;
    if (threads == 1) {
      one_thread_qps = qps;
    }
    table.Row()
        .Cell(threads)
        .Cell(static_cast<std::uint64_t>(batch))
        .Cell(seconds, 3)
        .Cell(qps / 1e6, 2)
        .Cell(one_thread_qps > 0.0 ? qps / one_thread_qps : 0.0, 2)
        .Cell(qps / per_call_qps, 2);
  }
  table.Print();
  std::printf("\nall batched distances matched Index::Query\n");
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) {
  parapll::util::ArgParser args("bench_query_throughput",
                                "Batched query engine throughput");
  args.Flag("graph", "", "edge-list file (overrides the generator)")
      .Flag("generator", "ba", "synthetic graph family: ba|rmat|road")
      .Flag("n", "20000", "generated vertex count")
      .Flag("deg", "4", "generated edges per vertex")
      .Flag("build-threads", "4", "threads for index construction")
      .Flag("pairs", "200000", "random query pair count")
      .Flag("pair-file", "", "read 's t' pairs from a file instead")
      .Flag("threads", "1,2,4,8", "query thread counts to sweep")
      .Flag("batch", "8192", "pairs per QueryBatch call")
      .Flag("seed", "1", "rng seed");
  parapll::bench::AddObsFlags(args);
  if (!args.Parse(argc, argv)) {
    return 1;
  }
  parapll::bench::ObsSession obs(args);
  try {
    return parapll::bench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
