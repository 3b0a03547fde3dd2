// parapll_cli — command-line front end for the library.
//
//   parapll_cli generate --dataset Epinions --scale 0.05 --out g.txt
//   parapll_cli build    --graph g.txt --mode parallel --threads 8
//                        --out g.index
//   parapll_cli query    --index g.index -s 3 -t 99
//   parapll_cli query    --index g.index            # pairs from stdin
//   parapll_cli stats    --index g.index
//   parapll_cli verify   --index g.index --graph g.txt --pairs 500
//   parapll_cli query-bench --index g.index --pairs 100000 --threads 8
//                        --batch 8192 [--pair-file pairs.txt]
//
// Exit code 0 on success; 1 on usage errors or failed verification.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "build/checkpoint.hpp"
#include "core/parapll.hpp"
#include "pll/format_v2.hpp"
#include "pll/servable.hpp"
#include "obs/profiler.hpp"
#include "obs/rolling.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

using namespace parapll;

// /healthz identity: which index this process is serving. Called from the
// loading funnel and after a fresh build, so a long-lived process behind
// --stats-port always reports the manifest it answers from.
void PublishHealthInfo(const pll::BuildManifest& manifest,
                       graph::VertexId num_vertices) {
  obs::HealthInfo info;
  info.index_fingerprint = manifest.graph_fingerprint;
  info.index_format_version = manifest.format_version;
  info.index_mode = manifest.mode.empty() ? "unknown" : manifest.mode;
  info.num_vertices = num_vertices;
  info.roots_completed = manifest.roots_completed;
  obs::SetProcessHealthInfo(info);
}

void PublishHealthInfo(const pll::Index& index) {
  PublishHealthInfo(index.Manifest(), index.NumVertices());
}

int Usage() {
  std::fputs(
      "usage: parapll_cli <generate|build|query|stats|verify|query-bench|"
      "serve|serve-bench> [flags]\n"
      "  generate --dataset NAME --scale S --seed K --out FILE\n"
      "  build    --graph FILE --mode serial|parallel|simulated|cluster\n"
      "           --threads P --nodes Q --sync C --policy static|dynamic\n"
      "           --out FILE   (the format-v2 index container, which\n"
      "           query-bench --backend mmap and serve --mmap map\n"
      "           zero-copy)\n"
      "           [--checkpoint-dir D [--checkpoint-every K]] write a\n"
      "           resumable snapshot to D/checkpoint.bin every K roots\n"
      "           (and on SIGINT/SIGTERM); serial/parallel modes only\n"
      "           [--resume D] continue the build checkpointed in D\n"
      "           [--halt-after N] stop after N roots (testing hook)\n"
      "  query    --index FILE [-s S -t T]  (else stdin pairs)\n"
      "  stats    --index FILE\n"
      "  verify   --index FILE --graph FILE --pairs N\n"
      "  query-bench --index FILE --pairs N [--pair-file F]\n"
      "           --threads P --batch B   (batched vs per-call throughput)\n"
      "           [--backend heap|mmap] answer the batched pass from the\n"
      "           heap rows or the mapped file; distances are verified\n"
      "           against the heap per-call baseline\n"
      "  serve    --index FILE [--port N] [--threads P] [--watch]\n"
      "           [--max-queued-pairs Q] [--idle-timeout-ms T]\n"
      "           [--port-file F]   TCP daemon answering DISTANCE_QUERY\n"
      "           frames (see EXPERIMENTS.md); --watch hot-swaps the\n"
      "           engine when the index file is republished\n"
      "           [--mmap] serve straight from the mapped index file\n"
      "           [--request-log FILE [--request-log-sample N]] wide-event\n"
      "           JSONL, one record per request (tail-sampled); also at\n"
      "           /debug/requests with --stats-port\n"
      "           [--slo-ms MS] latency objective for the windowed\n"
      "           server.window.* burn-rate gauges (default 50)\n"
      "  serve-bench --port N [--connections C] [--requests R]\n"
      "           [--pairs-per-request P] [--rate QPS --duration S]\n"
      "           [--trace-prefix P] closed-/open-loop load generator:\n"
      "           p50/p99/p999 + shed; requests carry trace ids\n"
      "           \"P-w<conn>-r<k>\" (empty P = server-minted ids)\n"
      "observability (any command):\n"
      "  --metrics-json FILE   write a metrics snapshot (counters, gauges,\n"
      "                        histograms) as JSON on exit\n"
      "  --trace FILE          write a chrome://tracing / Perfetto trace\n"
      "  --telemetry-jsonl FILE  stream periodic samples (registry + RSS/\n"
      "                        CPU/threads) as JSON lines while running\n"
      "  --telemetry-period-ms N  sampling period (default 100)\n"
      "  --profile FILE        sample the whole run with the SIGPROF CPU\n"
      "                        profiler; write collapsed stacks to FILE\n"
      "                        (pipe through flamegraph.pl)\n"
      "  --profile-hz N        profiler sample rate (default 97)\n"
      "  --stats-port N        serve Prometheus /metrics and /healthz on\n"
      "                        127.0.0.1:N (0 = ephemeral, printed)\n",
      stderr);
  return 1;
}

pll::Index LoadIndex(const std::string& path) {
  pll::Index index = pll::Index::LoadFile(path);
  PublishHealthInfo(index);
  return index;
}

int CmdGenerate(util::ArgParser& args) {
  const std::string name = args.GetString("dataset");
  const graph::Graph g = graph::MakeDatasetByName(
      name, args.GetDouble("scale"),
      static_cast<std::uint64_t>(args.GetInt("seed")));
  graph::WriteEdgeListTextFile(g, args.GetString("out"));
  std::printf("wrote %s: n=%u m=%zu (%s)\n", args.GetString("out").c_str(),
              g.NumVertices(), g.NumEdges(), name.c_str());
  return 0;
}

int CmdBuild(util::ArgParser& args) {
  const graph::Graph g = graph::ReadEdgeListTextFile(args.GetString("graph"));
  const std::string mode_name = args.GetString("mode");
  build::BuildPlan plan;
  if (mode_name == "serial") {
    plan.mode = build::BuildMode::kSerial;
  } else if (mode_name == "parallel") {
    plan.mode = build::BuildMode::kParallel;
  } else if (mode_name == "simulated") {
    plan.mode = build::BuildMode::kSimulated;
  } else if (mode_name == "cluster") {
    plan.mode = build::BuildMode::kCluster;
  } else {
    std::fprintf(stderr, "unknown mode %s\n", mode_name.c_str());
    return 1;
  }
  plan.threads = static_cast<std::size_t>(args.GetInt("threads"));
  plan.nodes = static_cast<std::size_t>(args.GetInt("nodes"));
  plan.sync_count = static_cast<std::size_t>(args.GetInt("sync"));
  plan.policy = args.GetString("policy") == "static"
                    ? parallel::AssignmentPolicy::kStatic
                    : parallel::AssignmentPolicy::kDynamic;
  plan.seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  plan.checkpoint_dir = args.GetString("checkpoint-dir");
  plan.checkpoint_every = static_cast<graph::VertexId>(
      std::max<std::int64_t>(args.GetInt("checkpoint-every"), 0));
  plan.resume_dir = args.GetString("resume");
  plan.halt_after_roots = static_cast<graph::VertexId>(
      std::max<std::int64_t>(args.GetInt("halt-after"), 0));

  const build::BuildOutcome outcome = build::Run(g, plan);
  const pll::Index& index = outcome.artifact.index;
  PublishHealthInfo(index);
  // With metrics on, sample a batch of random queries so a single build
  // run also yields a query-latency histogram in the snapshot.
  if (obs::MetricsEnabled() && index.NumVertices() > 0) {
    util::Rng rng(static_cast<std::uint64_t>(args.GetInt("seed")) ^
                  0x0b5e77eULL);
    for (int i = 0; i < 1024; ++i) {
      const auto s = static_cast<graph::VertexId>(
          rng.Below(index.NumVertices()));
      const auto t = static_cast<graph::VertexId>(
          rng.Below(index.NumVertices()));
      (void)index.Query(s, t);
    }
  }
  const std::string out = args.GetString("out");
  pll::WriteIndexV2File(index, out);
  if (outcome.complete) {
    std::printf("indexed n=%u in %s: LN=%.1f, %zu entries -> %s\n",
                g.NumVertices(),
                util::FormatDuration(outcome.wall_seconds).c_str(),
                index.AvgLabelSize(), index.TotalEntries(), out.c_str());
  } else {
    std::printf(
        "halted after %llu/%u roots in %s: %zu finalized entries -> %s "
        "(resume with --resume)\n",
        static_cast<unsigned long long>(index.Manifest().roots_completed),
        g.NumVertices(), util::FormatDuration(outcome.wall_seconds).c_str(),
        index.TotalEntries(), out.c_str());
  }
  return 0;
}

int CmdQuery(util::ArgParser& args) {
  const pll::Index index =
      LoadIndex(args.GetString("index"));
  auto answer = [&index](graph::VertexId s, graph::VertexId t) {
    if (s >= index.NumVertices() || t >= index.NumVertices()) {
      std::printf("d(%u, %u) = out-of-range\n", s, t);
      return;
    }
    const graph::Distance d = index.Query(s, t);
    if (d == graph::kInfiniteDistance) {
      std::printf("d(%u, %u) = unreachable\n", s, t);
    } else {
      std::printf("d(%u, %u) = %llu\n", s, t,
                  static_cast<unsigned long long>(d));
    }
  };
  if (args.GetInt("s") >= 0 && args.GetInt("t") >= 0) {
    answer(static_cast<graph::VertexId>(args.GetInt("s")),
           static_cast<graph::VertexId>(args.GetInt("t")));
    return 0;
  }
  std::uint64_t s = 0;
  std::uint64_t t = 0;
  while (std::cin >> s >> t) {
    answer(static_cast<graph::VertexId>(s), static_cast<graph::VertexId>(t));
  }
  return 0;
}

int CmdStats(util::ArgParser& args) {
  const pll::Index index =
      LoadIndex(args.GetString("index"));
  std::printf("vertices:        %u\n", index.NumVertices());
  std::printf("label entries:   %zu\n", index.TotalEntries());
  std::printf("avg label size:  %.2f\n", index.AvgLabelSize());
  std::printf("memory:          %.2f MB\n",
              static_cast<double>(index.MemoryBytes()) / (1024.0 * 1024.0));
  if (!(index.Manifest() == pll::BuildManifest{})) {
    std::printf("manifest:        %s\n", index.Manifest().ToJson().c_str());
  }
  return 0;
}

int CmdVerify(util::ArgParser& args) {
  const pll::Index index =
      LoadIndex(args.GetString("index"));
  const graph::Graph g = graph::ReadEdgeListTextFile(args.GetString("graph"));
  if (g.NumVertices() != index.NumVertices()) {
    std::fprintf(stderr, "graph (n=%u) does not match index (n=%u)\n",
                 g.NumVertices(), index.NumVertices());
    return 1;
  }
  const auto verdict = pll::VerifySampled(
      g, index, static_cast<std::size_t>(args.GetInt("pairs")),
      static_cast<std::uint64_t>(args.GetInt("seed")));
  std::printf("%s\n", verdict.ToString().c_str());
  return verdict.Ok() ? 0 : 1;
}

// Serving-style benchmark against a saved index: answers the same pairs
// per-call and through QueryEngine::QueryBatch, verifies the distances
// are identical, and prints both throughputs.
int CmdQueryBench(util::ArgParser& args) {
  const pll::Index index =
      LoadIndex(args.GetString("index"));
  if (index.NumVertices() == 0) {
    std::fprintf(stderr, "empty index\n");
    return 1;
  }

  std::vector<query::QueryPair> pairs;
  const std::string pair_file = args.GetString("pair-file");
  if (!pair_file.empty()) {
    std::ifstream in(pair_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", pair_file.c_str());
      return 1;
    }
    std::uint64_t s = 0;
    std::uint64_t t = 0;
    while (in >> s >> t) {
      pairs.emplace_back(static_cast<graph::VertexId>(s),
                         static_cast<graph::VertexId>(t));
    }
  } else {
    util::Rng rng(static_cast<std::uint64_t>(args.GetInt("seed")) ^
                  0x71e27b31ULL);
    const auto count = static_cast<std::size_t>(args.GetInt("pairs"));
    pairs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      pairs.emplace_back(
          static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
          static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
    }
  }
  if (pairs.empty()) {
    std::fprintf(stderr, "no query pairs\n");
    return 1;
  }

  std::vector<graph::Distance> expected(pairs.size());
  util::WallTimer per_call;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected[i] = index.Query(pairs[i].first, pairs[i].second);
  }
  const double per_call_seconds = per_call.Seconds();

  const auto threads = static_cast<std::size_t>(args.GetInt("threads"));
  const auto batch =
      std::max<std::size_t>(static_cast<std::size_t>(args.GetInt("batch")), 1);
  // --backend picks where the batched engine's label rows live; the
  // per-call baseline above always answered from the heap index, so the
  // mismatch check doubles as a cross-backend equivalence check.
  const pll::StoreBackend backend =
      pll::StoreBackendFromString(args.GetString("backend"));
  const query::QueryEngineOptions engine_options{.threads = threads};
  std::unique_ptr<query::QueryEngine> engine;
  pll::ServableIndex servable;  // owns the zero-copy source, if any
  if (backend == pll::StoreBackend::kHeap) {
    engine = std::make_unique<query::QueryEngine>(index, engine_options);
  } else {
    servable = pll::ServableIndex::Load(args.GetString("index"), backend);
    engine = std::make_unique<query::QueryEngine>(
        servable.source, servable.order, engine_options);
  }
  std::vector<graph::Distance> got(pairs.size());
  util::WallTimer batched;
  for (std::size_t begin = 0; begin < pairs.size(); begin += batch) {
    const std::size_t size = std::min(batch, pairs.size() - begin);
    engine->QueryBatch(std::span(pairs).subspan(begin, size),
                       std::span(got).subspan(begin, size));
  }
  const double batched_seconds = batched.Seconds();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (got[i] != expected[i]) {
      std::fprintf(stderr, "MISMATCH at pair %zu\n", i);
      return 1;
    }
  }

  const double per_call_qps =
      static_cast<double>(pairs.size()) / per_call_seconds;
  const double batched_qps =
      static_cast<double>(pairs.size()) / batched_seconds;
  std::printf("pairs:      %zu\n", pairs.size());
  std::printf("per-call:   %s  (%.2f Mq/s)\n",
              util::FormatDuration(per_call_seconds).c_str(),
              per_call_qps / 1e6);
  std::printf("batched:    %s  (%.2f Mq/s, %zu threads, batch %zu)\n",
              util::FormatDuration(batched_seconds).c_str(),
              batched_qps / 1e6, threads, batch);
  std::printf("speedup:    %.2fx; all distances matched per-call Query\n",
              batched_qps / per_call_qps);
  if (backend != pll::StoreBackend::kHeap) {
    std::printf("backend:    %s (%.2f MB on disk, loaded in %s)\n",
                ToString(backend),
                static_cast<double>(servable.file_bytes) / (1024.0 * 1024.0),
                util::FormatDuration(servable.load_seconds).c_str());
  }
  return 0;
}

// Runs the query daemon until SIGINT/SIGTERM (the signal-flush hook in
// main writes any requested metrics/telemetry and exits the process).
// `serve` requires a manifest-bearing artifact (what `build` writes):
// hot reload keys off BuildManifest identity, and operators
// deserve to know *what* a long-lived process serves.
int CmdServe(util::ArgParser& args) {
  const std::string path = args.GetString("index");
  if (path.empty()) {
    std::fprintf(stderr, "serve: --index is required\n");
    return 1;
  }
  serve::ServeOptions options;
  // --mmap serves straight from the mapped v2 container.
  if (args.GetBool("mmap")) {
    options.backend = pll::StoreBackend::kMmap;
  }

  pll::ServableIndex servable = pll::ServableIndex::Load(path, options.backend);
  if (!servable.IsComplete()) {
    std::fprintf(stderr, "serve: %s is a partial checkpoint, not an index\n",
                 path.c_str());
    return 1;
  }
  if (servable.manifest == pll::BuildManifest{} &&
      servable.NumVertices() != 0) {
    std::fprintf(stderr, "serve: %s has no build manifest\n", path.c_str());
    return 1;
  }
  servable.manifest.Validate();
  PublishHealthInfo(servable.manifest, servable.NumVertices());

  options.port = static_cast<std::uint16_t>(
      std::max<std::int64_t>(args.GetInt("port"), 0));
  options.engine_threads = static_cast<std::size_t>(
      std::max<std::int64_t>(args.GetInt("threads"), 1));
  options.max_queued_pairs = static_cast<std::size_t>(
      std::max<std::int64_t>(args.GetInt("max-queued-pairs"), 1));
  options.idle_timeout_ms = static_cast<int>(
      std::max<std::int64_t>(args.GetInt("idle-timeout-ms"), 0));
  if (args.GetBool("watch")) {
    options.watch_path = path;
    options.watch_poll_ms = static_cast<int>(
        std::max<std::int64_t>(args.GetInt("watch-poll-ms"), 1));
  }

  // One latency objective drives both tails: requests at/over --slo-ms
  // are always kept by the wide-event log, and the same threshold feeds
  // the windowed burn-rate gauges.
  const double slo_ms = std::max(args.GetDouble("slo-ms"), 0.0);
  const auto slo_ns = static_cast<std::uint64_t>(slo_ms * 1e6);
  options.request_log.path = args.GetString("request-log");
  options.request_log.sample_every = static_cast<std::uint64_t>(
      std::max<std::int64_t>(args.GetInt("request-log-sample"), 0));
  options.request_log.slow_threshold_ns = slo_ns;

  std::optional<obs::ServeSloGauges> slo_gauges;
  if (obs::MetricsEnabled()) {
    obs::ServeSloOptions slo_options;
    slo_options.slo_ms = slo_ms;
    slo_gauges.emplace(slo_options);
  }

  serve::QueryServer server(std::move(servable), options);
  server.Start();
  std::fprintf(stderr, "serving distance queries on 127.0.0.1:%u%s\n",
               server.Port(),
               options.watch_path.empty() ? "" : " (watching index file)");
  const std::string port_file = args.GetString("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    out << server.Port() << "\n";
    if (!out) {
      std::fprintf(stderr, "serve: cannot write %s\n", port_file.c_str());
      return 1;
    }
  }
  while (server.Running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return 0;
}

// Drives a running daemon with the closed- or open-loop load generator
// and reports latency percentiles + shed rate.
int CmdServeBench(util::ArgParser& args) {
  const std::int64_t port = args.GetInt("port");
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "serve-bench: --port is required\n");
    return 1;
  }
  serve::ServerInfo info;
  {
    serve::ServeClient probe;
    probe.Connect(static_cast<std::uint16_t>(port));
    info = probe.Info();
  }
  if (info.num_vertices == 0) {
    std::fprintf(stderr, "serve-bench: daemon serves an empty index\n");
    return 1;
  }
  serve::LoadGenOptions options;
  options.port = static_cast<std::uint16_t>(port);
  options.connections = static_cast<std::size_t>(
      std::max<std::int64_t>(args.GetInt("connections"), 1));
  options.requests_per_connection = static_cast<std::size_t>(
      std::max<std::int64_t>(args.GetInt("requests"), 1));
  options.pairs_per_request = static_cast<std::size_t>(
      std::max<std::int64_t>(args.GetInt("pairs-per-request"), 1));
  options.max_vertex = info.num_vertices;
  options.open_loop_qps = args.GetDouble("rate");
  options.duration_seconds = args.GetDouble("duration");
  options.seed = static_cast<std::uint64_t>(args.GetInt("seed"));
  options.trace_prefix = args.GetString("trace-prefix");
  const serve::LoadGenReport report = serve::RunLoadGen(options);
  std::printf("server:     127.0.0.1:%lld (n=%u, fingerprint %llu, "
              "%llu hot swaps)\n",
              static_cast<long long>(port), info.num_vertices,
              static_cast<unsigned long long>(info.fingerprint),
              static_cast<unsigned long long>(info.hot_swaps));
  std::printf("mode:       %s\n", options.open_loop_qps > 0.0
                                      ? "open loop (paced schedule)"
                                      : "closed loop (back-to-back)");
  std::fputs(report.ToString().c_str(), stdout);
  return report.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  util::ArgParser args("parapll_cli " + command, "ParaPLL command line");
  args.Flag("dataset", "Epinions", "catalog dataset name (generate)")
      .Flag("scale", "0.05", "dataset scale (generate)")
      .Flag("seed", "1", "seed (generate/build/verify)")
      .Flag("graph", "", "edge list path (build/verify)")
      .Flag("index", "", "index path (query/stats/verify)")
      .Flag("out", "", "output path (generate/build)")
      .Flag("mode", "parallel", "build mode (build)")
      .Flag("threads", "4", "threads / workers (build)")
      .Flag("nodes", "1", "cluster nodes (build)")
      .Flag("sync", "16", "cluster sync count (build)")
      .Flag("policy", "dynamic", "assignment policy (build)")
      .Flag("checkpoint-dir", "", "resumable snapshot directory (build)")
      .Flag("checkpoint-every", "0",
            "snapshot every K finished roots (build; 0 = signal-only)")
      .Flag("resume", "", "continue from checkpoint directory (build)")
      .Flag("halt-after", "0", "stop after N roots, 0 = run all (build)")
      .Flag("backend", "heap", "query-bench: label source backend (heap|mmap)")
      .Flag("mmap", "false", "serve: zero-copy mmap the index")
      .Flag("pairs", "500", "pair count (verify/query-bench)")
      .Flag("pair-file", "", "file of 's t' pairs (query-bench)")
      .Flag("batch", "8192", "pairs per QueryBatch call (query-bench)")
      .Flag("s", "-1", "query source vertex")
      .Flag("t", "-1", "query target vertex")
      .Flag("metrics-json", "", "write metrics snapshot JSON (any command)")
      .Flag("trace", "", "write Chrome-trace JSON (any command)")
      .Flag("telemetry-jsonl", "", "stream periodic telemetry JSON lines")
      .Flag("telemetry-period-ms", "100", "telemetry sampling period")
      .Flag("profile", "", "write collapsed profiler stacks (any command)")
      .Flag("profile-hz", "97", "profiler samples per CPU-second")
      .Flag("stats-port", "-1",
            "serve /metrics + /healthz on 127.0.0.1:N (0 = ephemeral)")
      .Flag("port", "0", "serve: bind port (0 = ephemeral); serve-bench: "
            "daemon port")
      .Flag("port-file", "", "serve: write the bound port here (scripts)")
      .Flag("watch", "false", "serve: hot-swap when the index file changes")
      .Flag("watch-poll-ms", "200", "serve: watch poll period")
      .Flag("max-queued-pairs", "65536",
            "serve: admission budget in pairs; over-budget requests SHED")
      .Flag("idle-timeout-ms", "30000", "serve: drop silent connections")
      .Flag("request-log", "",
            "serve: wide-event request JSONL (tail-sampled)")
      .Flag("request-log-sample", "64",
            "serve: keep every Nth OK request (0 = errors/slow only)")
      .Flag("slo-ms", "50",
            "serve: latency objective for burn-rate gauges and the "
            "request log's always-keep threshold")
      .Flag("connections", "4", "serve-bench: concurrent client connections")
      .Flag("requests", "200", "serve-bench: requests per connection")
      .Flag("pairs-per-request", "16", "serve-bench: pairs per request")
      .Flag("rate", "0", "serve-bench: open-loop req/s (0 = closed loop)")
      .Flag("duration", "1.0", "serve-bench: open-loop duration seconds")
      .Flag("trace-prefix", "lg",
            "serve-bench: client trace-id prefix (empty = no trace block)");
  if (!args.Parse(argc - 1, argv + 1)) {
    return 1;
  }
  const std::string metrics_path = args.GetString("metrics-json");
  const std::string trace_path = args.GetString("trace");
  const std::string telemetry_path = args.GetString("telemetry-jsonl");
  const std::int64_t stats_port = args.GetInt("stats-port");
  const bool telemetry_on = !telemetry_path.empty() || stats_port >= 0;
  obs::SetMetricsEnabled(!metrics_path.empty() || telemetry_on);
  obs::SetTracingEnabled(!trace_path.empty());

  const std::string profile_path = args.GetString("profile");
  std::optional<obs::TelemetrySampler> sampler;
  std::optional<obs::StatsServer> server;
  try {
    if (!profile_path.empty()) {
      obs::ProfilerOptions profiler_options;
      profiler_options.sample_hz = static_cast<std::uint64_t>(
          std::max<std::int64_t>(args.GetInt("profile-hz"), 1));
      obs::Profiler::Global().Start(profiler_options);
    }
    if (telemetry_on) {
      obs::TelemetryOptions telemetry_options;
      telemetry_options.period = std::chrono::milliseconds(
          std::max<std::int64_t>(args.GetInt("telemetry-period-ms"), 1));
      telemetry_options.jsonl_path = telemetry_path;
      sampler.emplace(telemetry_options);
      sampler->Start();
    }
    if (stats_port >= 0) {
      server.emplace(obs::StatsServerOptions{
          .port = static_cast<std::uint16_t>(stats_port),
          .sampler = sampler ? &*sampler : nullptr});
      server->Start();
      std::fprintf(stderr, "stats endpoint: http://127.0.0.1:%u/metrics\n",
                   server->Port());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Writes whatever was collected even when the command fails partway —
  // a truncated run's metrics are exactly what you want when debugging.
  // Must not throw: it runs on the error path too (and, via the signal
  // hook below, when a long run is interrupted with SIGINT/SIGTERM).
  auto flush_obs = [&]() -> bool {
    bool ok = true;
    // Profiler first: Stop() publishes profile.* metrics, so a snapshot
    // written below carries the sample/drop counters of this capture.
    if (!profile_path.empty() && obs::Profiler::Global().Running()) {
      try {
        const obs::ProfileReport report = obs::Profiler::Global().Stop();
        std::ofstream out(profile_path);
        if (!out) {
          throw std::runtime_error("cannot open " + profile_path);
        }
        report.WriteCollapsed(out);
        std::fprintf(stderr,
                     "profile (%llu samples, %llu dropped, %zu stacks) -> %s\n",
                     static_cast<unsigned long long>(report.samples),
                     static_cast<unsigned long long>(report.dropped),
                     report.stacks.size(), profile_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        ok = false;
      }
    }
    if (sampler) {
      try {
        sampler->Stop();  // takes a final sample and flushes the JSONL
        if (!telemetry_path.empty()) {
          std::fprintf(stderr, "telemetry (%llu samples) -> %s\n",
                       static_cast<unsigned long long>(
                           sampler->TotalSamples()),
                       telemetry_path.c_str());
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        ok = false;
      }
    }
    if (!metrics_path.empty()) {
      try {
        obs::WriteMetricsJsonFile(metrics_path);
        std::fprintf(stderr, "metrics snapshot -> %s\n", metrics_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        ok = false;
      }
    }
    if (!trace_path.empty()) {
      try {
        obs::TraceSink::Global().WriteChromeJsonFile(trace_path);
        std::fprintf(stderr, "trace (%zu events) -> %s\n",
                     obs::TraceSink::Global().EventCount(),
                     trace_path.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        ok = false;
      }
    }
    return ok;
  };
  // ^C on a long build snapshots any checkpointing build at its current
  // frontier (resumable with --resume) and still writes metrics/telemetry
  // before exiting.
  obs::ScopedSignalFlush signal_flush([&flush_obs] {
    try {
      build::SnapshotActiveBuilds();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "checkpoint flush failed: %s\n", e.what());
    }
    flush_obs();
  });
  try {
    int code = 1;
    if (command == "generate") {
      code = CmdGenerate(args);
    } else if (command == "build") {
      code = CmdBuild(args);
    } else if (command == "query") {
      code = CmdQuery(args);
    } else if (command == "stats") {
      code = CmdStats(args);
    } else if (command == "verify") {
      code = CmdVerify(args);
    } else if (command == "query-bench") {
      code = CmdQueryBench(args);
    } else if (command == "serve") {
      code = CmdServe(args);
    } else if (command == "serve-bench") {
      code = CmdServeBench(args);
    } else {
      return Usage();
    }
    if (!flush_obs()) {
      return 1;
    }
    return code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    flush_obs();
    return 1;
  }
}
