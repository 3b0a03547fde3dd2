// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench regenerates one table or figure of the ParaPLL paper on the
// synthetic dataset catalog (graph/datasets.hpp), scaled down so a full
// run finishes on one core. `--scale` adjusts the size, `--datasets`
// restricts to a comma-free colon-separated subset.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/parapll.hpp"
#include "util/cli.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace parapll::bench {

// --- observability -------------------------------------------------------
//
// Every ArgParser-based bench accepts --metrics-json / --trace so a bench
// run can emit the internal counters (prune hits, lock contention,
// per-thread busy/idle, sync volume) alongside its printed tables — the
// numbers BENCH_*.json entries should carry, not just totals.

// Declares the shared observability flags; call before Parse().
inline util::ArgParser& AddObsFlags(util::ArgParser& args) {
  return args
      .Flag("metrics-json", "", "write a metrics snapshot JSON at exit")
      .Flag("trace", "", "write a Chrome-trace JSON at exit")
      .Flag("telemetry-jsonl", "", "stream periodic telemetry JSON lines")
      .Flag("telemetry-period-ms", "100", "telemetry sampling period")
      .Flag("stats-port", "-1",
            "serve /metrics + /healthz on 127.0.0.1:N (0 = ephemeral)");
}

// RAII: enables collection per the parsed flags, writes the outputs when
// the bench scope ends — or when SIGINT/SIGTERM lands mid-bench, via the
// signal-flush hook, so a half-finished sweep still leaves its data.
class ObsSession {
 public:
  explicit ObsSession(const util::ArgParser& args)
      : metrics_path_(args.GetString("metrics-json")),
        trace_path_(args.GetString("trace")),
        telemetry_path_(args.GetString("telemetry-jsonl")),
        stats_port_(args.GetInt("stats-port")) {
    obs::SetMetricsEnabled(!metrics_path_.empty() ||
                           !telemetry_path_.empty() || stats_port_ >= 0);
    obs::SetTracingEnabled(!trace_path_.empty());
    if (!telemetry_path_.empty() || stats_port_ >= 0) {
      obs::TelemetryOptions options;
      options.period = std::chrono::milliseconds(std::max<std::int64_t>(
          args.GetInt("telemetry-period-ms"), 1));
      options.jsonl_path = telemetry_path_;
      sampler_.emplace(options);
      sampler_->Start();
    }
    if (stats_port_ >= 0) {
      server_.emplace(obs::StatsServerOptions{
          .port = static_cast<std::uint16_t>(stats_port_),
          .sampler = sampler_ ? &*sampler_ : nullptr});
      server_->Start();
      std::fprintf(stderr, "stats endpoint: http://127.0.0.1:%u/metrics\n",
                   server_->Port());
    }
    signal_flush_.emplace([this] { FlushNow(); });
  }

  ~ObsSession() {
    signal_flush_.reset();  // drop the hook before members die
    FlushNow();
  }

  // Idempotent: runs once whether called by the destructor or by the
  // signal watcher thread racing it.
  void FlushNow() {
    util::MutexLock lock(flush_mutex_);
    if (flushed_) {
      return;
    }
    flushed_ = true;
    try {
      if (sampler_) {
        sampler_->Stop();  // final sample + JSONL flush
        if (!telemetry_path_.empty()) {
          std::printf("telemetry (%llu samples) -> %s\n",
                      static_cast<unsigned long long>(
                          sampler_->TotalSamples()),
                      telemetry_path_.c_str());
        }
      }
      if (server_) {
        server_->Stop();
      }
      if (!metrics_path_.empty()) {
        obs::WriteMetricsJsonFile(metrics_path_);
        std::printf("metrics snapshot -> %s\n", metrics_path_.c_str());
      }
      if (!trace_path_.empty()) {
        obs::TraceSink::Global().WriteChromeJsonFile(trace_path_);
        std::printf("trace (%zu events) -> %s\n",
                    obs::TraceSink::Global().EventCount(),
                    trace_path_.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "obs output failed: %s\n", e.what());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string telemetry_path_;
  std::int64_t stats_port_ = -1;
  std::optional<obs::TelemetrySampler> sampler_;
  std::optional<obs::StatsServer> server_;
  std::optional<obs::ScopedSignalFlush> signal_flush_;
  util::Mutex flush_mutex_;
  bool flushed_ GUARDED_BY(flush_mutex_) = false;
};

struct BenchDataset {
  graph::DatasetSpec spec;
  graph::Graph graph;
};

// Materializes the catalog at `scale`. `filter` is a colon-separated list
// of dataset names ("Gnutella:Epinions"); empty means all eleven.
inline std::vector<BenchDataset> LoadDatasets(double scale,
                                              const std::string& filter,
                                              std::uint64_t seed = 1) {
  std::vector<BenchDataset> out;
  for (const auto& spec : graph::PaperCatalog()) {
    if (!filter.empty() &&
        (":" + filter + ":").find(":" + spec.name + ":") ==
            std::string::npos) {
      continue;
    }
    out.push_back({spec, graph::MakeDataset(spec, scale, seed)});
  }
  return out;
}

inline void PrintDatasetHeader(const BenchDataset& d) {
  std::printf("\n### %s (%s; paper n=%u m=%zu; this run n=%u m=%zu)\n",
              d.spec.name.c_str(), d.spec.graph_type.c_str(), d.spec.paper_n,
              d.spec.paper_m, d.graph.NumVertices(), d.graph.NumEdges());
}

// Thread counts of paper Tables 3-4.
inline std::vector<int> PaperThreadCounts() { return {1, 2, 4, 6, 8, 10, 12}; }

// Node counts of paper Table 5.
inline std::vector<int> PaperNodeCounts() { return {1, 2, 3, 4, 5, 6}; }

// Host seconds per CostModel unit, from one serial build: its wall time
// over its total units. Multiplying a virtual makespan by this expresses
// a simulated schedule in calibrated seconds.
inline double SecondsPerUnit(const build::BuildOutcome& serial) {
  return serial.total_units > 0.0 ? serial.wall_seconds / serial.total_units
                                  : 0.0;
}

}  // namespace parapll::bench
