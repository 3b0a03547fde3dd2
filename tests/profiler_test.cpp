// Sampling profiler + request-context attribution tests.
//
// The capture tests drive the two real workloads the profiler exists
// for — a parallel index build and QueryEngine::QueryBatch — and assert
// the exported collapsed stacks are non-empty and context-attributed.
// The overhead test bounds the measured slowdown of profiling a fixed
// query workload at the default 97 Hz; the documented budget is <5%, the
// assertion allows 25% so a noisy shared CI core cannot flake it.
#include "obs/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/parapll.hpp"

namespace parapll::obs {
namespace {

TEST(RequestContextTest, PacksKindAndPayload) {
  const std::uint64_t id = MakeContextId(ContextKind::kBuildRoot, 1337);
  EXPECT_EQ(ContextKindOf(id), ContextKind::kBuildRoot);
  EXPECT_EQ(ContextPayloadOf(id), 1337u);
  EXPECT_EQ(ContextIdToString(id), "build_root/1337");
  EXPECT_EQ(ContextIdToString(0), "none");
  EXPECT_EQ(
      ContextIdToString(MakeContextId(ContextKind::kQueryBatch, 42)),
      "query_batch/42");
}

TEST(RequestContextTest, ScopedContextNestsAndRestores) {
  SetCurrentRequestContext(0);
  EXPECT_EQ(CurrentRequestContext(), 0u);
  {
    ScopedRequestContext outer(MakeContextId(ContextKind::kQueryBatch, 1));
    EXPECT_EQ(ContextPayloadOf(CurrentRequestContext()), 1u);
    {
      ScopedRequestContext inner(MakeContextId(ContextKind::kBuildRoot, 2));
      EXPECT_EQ(ContextKindOf(CurrentRequestContext()),
                ContextKind::kBuildRoot);
    }
    EXPECT_EQ(ContextKindOf(CurrentRequestContext()),
              ContextKind::kQueryBatch);
  }
  EXPECT_EQ(CurrentRequestContext(), 0u);
}

TEST(RequestContextTest, BatchContextsAreFreshAndTagged) {
  const std::uint64_t a = NextQueryBatchContext();
  const std::uint64_t b = NextQueryBatchContext();
  EXPECT_NE(a, b);
  EXPECT_EQ(ContextKindOf(a), ContextKind::kQueryBatch);
  EXPECT_EQ(ContextKindOf(b), ContextKind::kQueryBatch);
}

TEST(ProfilerTest, StartWhileRunningThrowsAndStopWhenIdleIsEmpty) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  // Stop with no capture running: empty report, no error.
  const ProfileReport idle = Profiler::Global().Stop();
  EXPECT_EQ(idle.samples, 0u);
  EXPECT_TRUE(idle.stacks.empty());

  Profiler::Global().Start();
  EXPECT_TRUE(Profiler::Global().Running());
  EXPECT_THROW(Profiler::Global().Start(), std::runtime_error);
  (void)Profiler::Global().Stop();
  EXPECT_FALSE(Profiler::Global().Running());
}

TEST(ProfilerTest, RejectsBadOptions) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  EXPECT_THROW(Profiler::Global().Start({.sample_hz = 0}),
               std::runtime_error);
  EXPECT_THROW(Profiler::Global().Start({.sample_hz = 1'000'000}),
               std::runtime_error);
  EXPECT_THROW(Profiler::Global().Start({.ring_capacity = 1}),
               std::runtime_error);
  EXPECT_FALSE(Profiler::Global().Running());
}

// Collapsed-stack lines must be "frame;frame;... count".
void ExpectCollapsedWellFormed(const std::string& collapsed) {
  std::istringstream in(collapsed);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_LT(space + 1, line.size()) << line;
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[i]))) << line;
    }
    ++lines;
  }
  EXPECT_GT(lines, 0u);
}

TEST(ProfilerTest, CapturesParallelBuildWithRootAttribution) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.05, 7);

  ProfilerOptions options;
  options.sample_hz = 997;  // dense sampling keeps this test fast
  Profiler::Global().Start(options);
  const pll::Index index =
      build::Run(g, {.mode = build::BuildMode::kParallel, .threads = 2})
          .artifact.index;
  const ProfileReport report = Profiler::Global().Stop();

  EXPECT_GT(index.TotalEntries(), 0u);
  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  EXPECT_EQ(report.sample_hz, 997u);
  ExpectCollapsedWellFormed(report.ToCollapsed());

  // The dominant cost of a build is inside tagged per-root Dijkstra runs,
  // so at least one sample must carry a build_root context.
  EXPECT_GT(report.SamplesOfKind(ContextKind::kBuildRoot), 0u);
  // Hottest-context ranking is sorted by sample count.
  for (std::size_t i = 1; i < report.contexts.size(); ++i) {
    EXPECT_GE(report.contexts[i - 1].second, report.contexts[i].second);
  }
}

TEST(ProfilerTest, CapturesQueryBatchWithBatchAttribution) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.03, 7);
  const pll::Index index = build::Run(g, {}).artifact.index;

  std::vector<query::QueryPair> pairs;
  util::Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  query::QueryEngine engine(index, {.threads = 2});
  // With metrics on, each shard times itself (query.batch.shard_ns)
  // before its worker leaves the batch context. Sanitizers defer async
  // signals to library-call boundaries and the merge loop has none, so
  // under TSan that clock read is where a SIGPROF taken mid-shard is
  // delivered — still inside the batch context, not after it.
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  // Preallocated output: keeps the loop free of alloc/free outside the
  // batch context (same deferred-delivery skew, at malloc/free).
  std::vector<graph::Distance> out(pairs.size());

  ProfilerOptions options;
  options.sample_hz = 997;
  Profiler::Global().Start(options);
  // Loop batches until a few samples landed (CPU-time sampling needs
  // actual CPU burned, which varies with the machine), bounded hard so a
  // broken profiler fails instead of hanging.
  const std::uint64_t deadline_ns = TraceNowNs() + 20'000'000'000ULL;
  while (Profiler::Global().LiveSampleCount() < 20 &&
         TraceNowNs() < deadline_ns) {
    engine.QueryBatch(pairs, out);
  }
  const ProfileReport report = Profiler::Global().Stop();
  SetMetricsEnabled(metrics_were_enabled);

  ASSERT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  ExpectCollapsedWellFormed(report.ToCollapsed());
  EXPECT_GT(report.SamplesOfKind(ContextKind::kQueryBatch), 0u);

  // Merged Chrome export: one JSON document holding both the span
  // timeline and the capture's samples as instant events.
  std::ostringstream chrome;
  report.WriteChromeJsonWithTrace(chrome);
  const std::string json = chrome.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"profile\""), std::string::npos);
  EXPECT_NE(json.find("query_batch/"), std::string::npos);
}

TEST(ProfilerTest, OverheadOnQueryThroughputIsBounded) {
  if (!Profiler::Supported()) {
    GTEST_SKIP() << "profiler unsupported on this platform";
  }
  const graph::Graph g = graph::MakeDatasetByName("Epinions", 0.03, 7);
  const pll::Index index = build::Run(g, {}).artifact.index;

  std::vector<query::QueryPair> pairs;
  util::Rng rng(11);
  for (int i = 0; i < 50'000; ++i) {
    pairs.emplace_back(
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())),
        static_cast<graph::VertexId>(rng.Below(index.NumVertices())));
  }
  query::QueryEngine engine(index, {.threads = 1});
  std::vector<graph::Distance> out(pairs.size());

  // Fixed-work wall time, with and without the profiler at its default
  // 97 Hz: the minimum over kPasses passes per side. Each pass repeats the
  // batch enough times to span about 25 sample periods (~250 ms), and the
  // passes alternate sides (ABBA order), so a noisy stretch of the host
  // lands on both sides instead of on one. The minimum filters scheduler
  // noise; the generous bound keeps a loaded CI core from flaking while
  // still catching a profiler that makes sampling anywhere near expensive
  // (the real measured overhead is <5%; see EXPERIMENTS.md).
  auto time_batches = [&](std::uint64_t reps) {
    const std::uint64_t begin_ns = TraceNowNs();
    for (std::uint64_t r = 0; r < reps; ++r) {
      engine.QueryBatch(pairs, out);
    }
    return TraceNowNs() - begin_ns;
  };
  const std::uint64_t warm_ns = std::max<std::uint64_t>(time_batches(1), 1);
  const std::uint64_t reps =
      std::max<std::uint64_t>(1, 250'000'000 / warm_ns);

  constexpr int kPasses = 6;
  std::uint64_t base_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t profiled_ns = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t samples = 0;
  auto base_pass = [&] { base_ns = std::min(base_ns, time_batches(reps)); };
  auto profiled_pass = [&] {
    Profiler::Global().Start();
    profiled_ns = std::min(profiled_ns, time_batches(reps));
    samples += Profiler::Global().Stop().samples;
  };
  for (int i = 0; i < kPasses; ++i) {
    if (i % 2 == 0) {
      base_pass();
      profiled_pass();
    } else {
      profiled_pass();
      base_pass();
    }
  }

  ASSERT_GT(base_ns, 0u);
  const double overhead =
      static_cast<double>(profiled_ns) / static_cast<double>(base_ns) - 1.0;
  EXPECT_LT(overhead, 0.25) << "profiled " << profiled_ns << "ns vs "
                            << base_ns << "ns, " << reps
                            << " batches per pass (" << samples
                            << " samples)";
}

}  // namespace
}  // namespace parapll::obs
