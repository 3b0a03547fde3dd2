// Serving-path benchmark: an in-process parapll_serve daemon on an
// ephemeral loopback port, driven by the closed- and open-loop load
// generator over real sockets. Three scenarios:
//
//   closed loop   — C connections firing back-to-back requests: capacity
//                   (req/s, pairs/s) and latency under full pressure.
//   open loop     — a paced absolute schedule at --rate req/s: latency at
//                   a fixed offered load (coordinated-omission-free).
//   overload      — the admission budget is shrunk below one request so
//                   every request sheds: verifies overload degrades into
//                   explicit SHED responses, never unbounded queueing.
//
// Output: one table row per scenario with p50/p99/p999 and shed rate —
// the numbers the serve row of BENCH_*.json should track.
//
//   bench_serve --n 20000 --deg 4 --threads 4 --connections 8
//       --requests 400 --pairs-per-request 64 --rate 5000 --duration 1
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"

namespace parapll::bench {
namespace {

int Run(util::ArgParser& args) {
  const auto seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  const auto n = static_cast<graph::VertexId>(args.GetInt("n"));
  const auto deg = static_cast<std::size_t>(args.GetInt("deg"));
  const graph::Graph g = graph::ErdosRenyi(
      n, n * deg, {graph::WeightModel::kUniform, 100}, seed);

  const auto threads = static_cast<std::size_t>(args.GetInt("threads"));
  pll::Index index =
      build::Run(g, {.mode = build::BuildMode::kParallel,
                     .threads = threads,
                     .seed = seed})
          .artifact.index;
  std::printf("index: n=%u, %zu entries, avg label %.1f\n",
              index.NumVertices(), index.TotalEntries(),
              index.AvgLabelSize());

  serve::LoadGenOptions load;
  load.connections =
      static_cast<std::size_t>(args.GetInt("connections"));
  load.requests_per_connection =
      static_cast<std::size_t>(args.GetInt("requests"));
  load.pairs_per_request =
      static_cast<std::size_t>(args.GetInt("pairs-per-request"));
  load.max_vertex = index.NumVertices();
  load.seed = seed;

  util::Table table({"scenario", "req/s", "pairs/s", "p50 us", "p99 us",
                     "p999 us", "shed %"});
  auto add_row = [&table](const std::string& name,
                          const serve::LoadGenReport& report) {
    const double pairs_per_s =
        report.seconds > 0.0
            ? static_cast<double>(report.pairs) / report.seconds
            : 0.0;
    table.Row()
        .Cell(name)
        .Cell(report.qps, 0)
        .Cell(pairs_per_s, 0)
        .Cell(static_cast<double>(report.p50_ns) / 1e3, 1)
        .Cell(static_cast<double>(report.p99_ns) / 1e3, 1)
        .Cell(static_cast<double>(report.p999_ns) / 1e3, 1)
        .Cell(report.ShedRate() * 100.0, 2);
  };

  serve::ServeOptions serve_options;
  serve_options.engine_threads = threads;

  {
    serve::QueryServer server(index, serve_options);
    server.Start();
    load.port = server.Port();
    load.open_loop_qps = 0.0;
    add_row("closed loop", serve::RunLoadGen(load));

    load.open_loop_qps = args.GetDouble("rate");
    load.duration_seconds = args.GetDouble("duration");
    add_row("open loop", serve::RunLoadGen(load));
    server.Stop();
  }

  {
    // Overload: a budget below one request's pair count makes every
    // DISTANCE_QUERY shed — the daemon must stay responsive and say so.
    serve::ServeOptions tiny = serve_options;
    tiny.max_queued_pairs =
        load.pairs_per_request > 1 ? load.pairs_per_request - 1 : 0;
    serve::QueryServer server(index, tiny);
    server.Start();
    load.port = server.Port();
    load.open_loop_qps = 0.0;
    const serve::LoadGenReport report = serve::RunLoadGen(load);
    add_row("overload", report);
    server.Stop();
    if (report.answered != 0 || report.shed == 0) {
      std::fprintf(stderr,
                   "overload scenario must shed everything (answered=%llu "
                   "shed=%llu)\n",
                   static_cast<unsigned long long>(report.answered),
                   static_cast<unsigned long long>(report.shed));
      return 1;
    }
  }

  table.Print();
  return 0;
}

}  // namespace
}  // namespace parapll::bench

int main(int argc, char** argv) {
  parapll::util::ArgParser args(
      "bench_serve", "TCP serving daemon: latency percentiles + shed rate");
  args.Flag("n", "20000", "vertices in the synthetic graph")
      .Flag("deg", "4", "average degree")
      .Flag("seed", "7", "graph + workload seed")
      .Flag("threads", "4", "build + engine worker threads")
      .Flag("connections", "8", "concurrent load-generator connections")
      .Flag("requests", "400", "closed-loop requests per connection")
      .Flag("pairs-per-request", "64", "pairs per DISTANCE_QUERY")
      .Flag("rate", "5000", "open-loop offered load, req/s")
      .Flag("duration", "1.0", "open-loop duration, seconds");
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
