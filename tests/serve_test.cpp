// parapll_serve end-to-end: the daemon's answers over real loopback
// sockets must be bit-identical to QueryEngine::QueryBatch, overload must
// degrade into explicit SHED responses, slow readers must get complete
// responses via the POLLOUT partial-write path, and a hot index reload
// under live traffic must never fail a query.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "build/artifact.hpp"
#include "build/pipeline.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "pll/format_v2.hpp"
#include "pll/mmap_store.hpp"
#include "pll/servable.hpp"
#include "query/query_engine.hpp"
#include "serve/frame.hpp"
#include "serve/loadgen.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

#ifdef PARAPLL_HAVE_SOCKETS
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace parapll::serve {
namespace {

using graph::Graph;
using graph::WeightModel;
using graph::WeightOptions;
using query::QueryPair;

pll::Index BuildTestIndex(const Graph& g) {
  return build::Run(g, {}).artifact.index;
}

std::vector<QueryPair> RandomPairs(graph::VertexId n, std::size_t count,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<QueryPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<graph::VertexId>(rng.Below(n)),
                       static_cast<graph::VertexId>(rng.Below(n)));
  }
  return pairs;
}

// --- frame unit coverage (no sockets required) ----------------------------

TEST(ServeFrame, DistanceRequestRoundTrips) {
  const std::vector<QueryPair> pairs = {{0, 1}, {7, 3}, {2, 2}};
  const std::string frame = EncodeDistanceRequest(pairs);
  FrameReader reader(kMaxRequestPayload);
  reader.Append(frame.data(), frame.size());
  std::string payload;
  ASSERT_TRUE(reader.Next(payload));
  EXPECT_EQ(reader.BufferedBytes(), 0u);
  const Request request = DecodeRequestPayload(payload);
  EXPECT_EQ(request.type, RequestType::kDistanceQuery);
  EXPECT_EQ(request.pairs, pairs);
}

TEST(ServeFrame, ResponsesRoundTrip) {
  const std::vector<graph::Distance> distances = {
      0, 42, graph::kInfiniteDistance};
  std::string frame = EncodeOkResponse(distances);
  Response ok = DecodeResponsePayload(frame.substr(4));
  EXPECT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances, distances);

  frame = EncodeStatusResponse(ResponseStatus::kShed);
  EXPECT_EQ(DecodeResponsePayload(frame.substr(4)).status,
            ResponseStatus::kShed);

  const ServerInfo info{.num_vertices = 9, .fingerprint = 0xfeed,
                        .hot_swaps = 2, .queued_pairs = 17, .shed = 5,
                        .snapshot_age_ms = 1234};
  frame = EncodeInfoResponse(info);
  const Response decoded = DecodeResponsePayload(frame.substr(4));
  EXPECT_EQ(decoded.status, ResponseStatus::kInfo);
  EXPECT_EQ(decoded.info.num_vertices, 9u);
  EXPECT_EQ(decoded.info.fingerprint, 0xfeedu);
  EXPECT_EQ(decoded.info.hot_swaps, 2u);
  EXPECT_EQ(decoded.info.queued_pairs, 17u);
  EXPECT_EQ(decoded.info.shed, 5u);
  EXPECT_EQ(decoded.info.snapshot_age_ms, 1234u);
}

// Old clients send 25-byte INFO bodies (no saturation fields); the
// decoder must still accept them with the new fields zeroed.
TEST(ServeFrame, LegacyInfoBodyStillDecodes) {
  const ServerInfo info{.num_vertices = 9, .fingerprint = 0xfeed,
                        .hot_swaps = 2, .queued_pairs = 17, .shed = 5,
                        .snapshot_age_ms = 1234};
  const std::string payload = EncodeInfoResponse(info).substr(4);
  const Response decoded = DecodeResponsePayload(payload.substr(0, 4 + 1 + 4 + 8 + 8));
  EXPECT_EQ(decoded.info.num_vertices, 9u);
  EXPECT_EQ(decoded.info.hot_swaps, 2u);
  EXPECT_EQ(decoded.info.queued_pairs, 0u);
  EXPECT_EQ(decoded.info.shed, 0u);
}

// A socket read loop hands FrameReader arbitrary byte slices; feeding one
// byte at a time must yield exactly the frames that were sent, in order.
TEST(ServeFrame, ReaderReassemblesByteAtATime) {
  const std::vector<QueryPair> pairs = {{1, 2}, {3, 4}};
  const std::string stream =
      EncodeDistanceRequest(pairs) + EncodeInfoRequest();
  FrameReader reader(kMaxRequestPayload);
  std::vector<Request> decoded;
  std::string payload;
  for (const char byte : stream) {
    reader.Append(&byte, 1);
    while (reader.Next(payload)) {
      decoded.push_back(DecodeRequestPayload(payload));
    }
  }
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].pairs, pairs);
  EXPECT_EQ(decoded[1].type, RequestType::kInfo);
}

TEST(ServeFrame, OversizedPairCountThrows) {
  std::vector<QueryPair> pairs(kMaxPairsPerRequest + 1, {0, 0});
  EXPECT_THROW((void)EncodeDistanceRequest(pairs), std::invalid_argument);
}

#ifdef PARAPLL_HAVE_SOCKETS

// --- daemon end-to-end ----------------------------------------------------

// A raw blocking socket to 127.0.0.1:port, for tests that need to feed
// the daemon byte streams ServeClient would never produce (slow reads,
// raw garbage).
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("raw client: socket() failed");
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("raw client: connect() failed");
    }
  }
  ~RawClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void Send(const std::string& bytes) {
    ASSERT_TRUE(util::SendAll(fd_, bytes));
  }

  // Reads one complete response payload, `chunk` bytes at a time with a
  // short pause between reads — a deliberately slow reader.
  Response ReadSlowly(std::size_t chunk) {
    FrameReader reader(kMaxResponsePayload);
    std::string payload;
    std::vector<char> buf(chunk);
    while (!reader.Next(payload)) {
      const ssize_t n = util::RecvRetry(fd_, buf.data(), buf.size());
      if (n <= 0) {
        throw std::runtime_error("raw client: connection closed");
      }
      reader.Append(buf.data(), static_cast<std::size_t>(n));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return DecodeResponsePayload(payload);
  }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

struct MatrixCase {
  const char* name;
  Graph graph;
};

std::vector<MatrixCase> GraphMatrix() {
  std::vector<MatrixCase> cases;
  cases.push_back({"erdos_renyi",
                   graph::ErdosRenyi(
                       120, 360, {WeightModel::kUniform, 50}, 11)});
  cases.push_back({"barabasi_albert",
                   graph::BarabasiAlbert(
                       120, 3, {WeightModel::kUniform, 20}, 12)});
  cases.push_back({"road_grid",
                   graph::RoadGrid(
                       10, 12, 0.9, 4, {WeightModel::kRoadLike, 100}, 13)});
  return cases;
}

// The core guarantee: every distance served over the wire is bit-identical
// to calling QueryEngine::QueryBatch on the same index directly.
TEST(QueryServerTest, ServedAnswersAreBitIdenticalToQueryBatch) {
  for (const MatrixCase& c : GraphMatrix()) {
    SCOPED_TRACE(c.name);
    pll::Index index = BuildTestIndex(c.graph);
    query::QueryEngine direct(index, {.threads = 2,
                                      .min_pairs_per_shard = 16});
    const auto pairs = RandomPairs(c.graph.NumVertices(), 500, 21);
    const std::vector<graph::Distance> want = direct.QueryBatch(pairs);

    ServeOptions options;
    options.engine_threads = 2;  // the 462-pair request spans 2 shards
    QueryServer server(index, options);
    server.Start();
    ServeClient client;
    client.Connect(server.Port());
    // Several request sizes, including an empty batch and a single pair.
    std::size_t offset = 0;
    for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                    std::size_t{37}, std::size_t{462}}) {
      const std::span<const QueryPair> slice(pairs.data() + offset, count);
      const Response response = client.Distance(slice);
      ASSERT_EQ(response.status, ResponseStatus::kOk);
      ASSERT_EQ(response.distances.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(response.distances[i], want[offset + i])
            << "pair " << offset + i;
      }
      offset += count;
    }
    const ServeStats stats = server.Stats();
    EXPECT_EQ(stats.requests, 4u);
    EXPECT_EQ(stats.answered_pairs, 500u);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.bad_requests, 0u);
    server.Stop();
  }
}

TEST(QueryServerTest, InfoReportsServedIndex) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  ServeClient client;
  client.Connect(server.Port());
  const ServerInfo info = client.Info();
  EXPECT_EQ(info.num_vertices, g.NumVertices());
  EXPECT_EQ(info.hot_swaps, 0u);
  EXPECT_EQ(info.queued_pairs, 0u);
  EXPECT_EQ(info.shed, 0u);
  server.Stop();
}

// Tracing end to end: a client-supplied trace id must come back on the
// response and land in the wide-event request log together with the
// coalesced batch's obs request-context id — the key profiler samples
// and histogram exemplars carry — so one id joins all three sinks.
TEST(QueryServerTest, ClientTraceIdJoinsResponseRequestLogAndBatchContext) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);  // for the latency exemplars
  ServeOptions options;
  options.request_log.sample_every = 1;  // keep every OK request
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const std::vector<QueryPair> pairs = {{1, 2}, {3, 4}};
  const Response response = client.Distance(pairs, "cli-abc.1");
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.trace_id, "cli-abc.1");
  const Response second = client.Distance(pairs, "cli-abc.2");
  ASSERT_EQ(second.status, ResponseStatus::kOk);

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].trace_id, "cli-abc.1");
  EXPECT_STREQ(ring[0].status, "ok");
  EXPECT_EQ(ring[0].pairs, 2u);
  EXPECT_GE(ring[0].latency_ns, ring[0].batch_ns);
  EXPECT_NE(ring[0].connection, 0u);
  // The record's batch is a query-batch request context, and each
  // sequential request rode its own batch.
  ASSERT_NE(ring[0].batch_context, 0u);
  EXPECT_EQ(obs::ContextKindOf(ring[0].batch_context),
            obs::ContextKind::kQueryBatch);
  EXPECT_EQ(ring[1].trace_id, "cli-abc.2");
  EXPECT_NE(ring[1].batch_context, ring[0].batch_context);
  EXPECT_EQ(obs::ContextKindOf(ring[1].batch_context),
            obs::ContextKind::kQueryBatch);

  // The newest batch is the last sample in its latency bucket, so that
  // bucket's exemplar names the second request's batch.
  const obs::HistogramSnapshot latency =
      obs::Registry::Global().GetHistogram("query.batch.latency_ns").Snapshot();
  bool exemplar_joined = false;
  for (const obs::HistogramExemplar& exemplar : latency.exemplars) {
    exemplar_joined |=
        exemplar.valid && exemplar.request_id == ring[1].batch_context;
  }
  EXPECT_TRUE(exemplar_joined);

  // The JSON form names the batch the way profiler contexts do.
  const std::string json = server.RequestLogRef().RingJson();
  EXPECT_NE(json.find("\"trace_id\":\"cli-abc.1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"batch\":\"" +
                      obs::ContextIdToString(ring[0].batch_context) + "\""),
            std::string::npos)
      << json;
  server.Stop();
  obs::SetMetricsEnabled(metrics_were_enabled);
}

// A client that sends no trace block gets a server-minted "srv-N" id —
// responses stay attributable even for legacy clients.
TEST(QueryServerTest, ServerMintsTraceIdsForLegacyClients) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.request_log.sample_every = 1;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const std::vector<QueryPair> pairs = {{1, 2}};
  const Response first = client.Distance(pairs);  // no trace block
  ASSERT_EQ(first.status, ResponseStatus::kOk);
  EXPECT_EQ(first.trace_id.rfind("srv-", 0), 0u) << first.trace_id;
  const Response second = client.Distance(pairs);
  EXPECT_NE(second.trace_id, first.trace_id);  // unique per request

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].trace_id, first.trace_id);
  EXPECT_EQ(ring[1].trace_id, second.trace_id);
  server.Stop();
}

// SHED responses echo the trace id too (an unattributable rejection is
// undebuggable), and the shed lands in the request log with the id.
TEST(QueryServerTest, ShedEchoesTraceIdAndLogsIt) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.max_queued_pairs = 4;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const auto pairs = RandomPairs(g.NumVertices(), 16, 5);  // over budget
  const Response response = client.Distance(pairs, "overload-probe");
  ASSERT_EQ(response.status, ResponseStatus::kShed);
  EXPECT_EQ(response.trace_id, "overload-probe");

  const std::vector<RequestRecord> ring =
      server.RequestLogRef().RingSnapshot();
  ASSERT_EQ(ring.size(), 1u);  // errors always kept, no sampling needed
  EXPECT_EQ(ring[0].trace_id, "overload-probe");
  EXPECT_STREQ(ring[0].status, "shed");

  // INFO now carries the cumulative shed count.
  EXPECT_EQ(client.Info().shed, 1u);
  server.Stop();
}

// A request larger than the admission budget must be answered SHED — an
// explicit, well-formed response on the same connection — and the
// connection must remain usable for a request that fits.
TEST(QueryServerTest, OverBudgetRequestShedsExplicitly) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  ServeOptions options;
  options.max_queued_pairs = 4;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  const auto big = RandomPairs(g.NumVertices(), 8, 5);
  EXPECT_EQ(client.Distance(big).status, ResponseStatus::kShed);

  const auto small = RandomPairs(g.NumVertices(), 4, 6);
  const Response ok = client.Distance(small);
  ASSERT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances.size(), 4u);

  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.answered_pairs, 4u);
  server.Stop();
}

TEST(QueryServerTest, OutOfRangeVertexGetsBadRequestNotPoisonedBatch) {
  const Graph g = graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 3);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  QueryServer server(index, {});
  server.Start();

  // Two connections drain in the same coalescing cycle as one QueryBatch;
  // the bad id must 400 its own request without failing the good one.
  ServeClient good;
  ServeClient bad;
  good.Connect(server.Port());
  bad.Connect(server.Port());
  const std::vector<QueryPair> bad_pairs = {{0, g.NumVertices() + 5}};
  EXPECT_EQ(bad.Distance(bad_pairs).status, ResponseStatus::kBadRequest);

  const auto pairs = RandomPairs(g.NumVertices(), 16, 8);
  const Response ok = good.Distance(pairs);
  ASSERT_EQ(ok.status, ResponseStatus::kOk);
  EXPECT_EQ(ok.distances, direct.QueryBatch(pairs));
  EXPECT_GE(server.Stats().bad_requests, 1u);
  server.Stop();
}

TEST(QueryServerTest, GarbageFrameGetsBadRequestAndClose) {
  const Graph g = graph::ErdosRenyi(40, 100, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  RawClient raw(server.Port());
  // Correct length prefix, wrong magic: decodes must throw server-side.
  std::string frame = EncodeInfoRequest();
  frame[4] ^= 0x5a;
  raw.Send(frame);
  EXPECT_EQ(raw.ReadSlowly(64).status, ResponseStatus::kBadRequest);
  EXPECT_GE(server.Stats().bad_requests, 1u);
  server.Stop();
}

// A full-size response (kMaxPairsPerRequest distances, ~512 KiB) read by a
// deliberately slow client: the daemon's non-blocking send must park the
// overflow in the connection's outbuf and finish via POLLOUT, delivering
// every byte bit-identically.
TEST(QueryServerTest, SlowReaderGetsCompleteResponseViaPartialWrites) {
  const Graph g = graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 4);
  pll::Index index = BuildTestIndex(g);
  query::QueryEngine direct(index, {});
  QueryServer server(index, {});
  server.Start();

  const auto pairs =
      RandomPairs(g.NumVertices(), kMaxPairsPerRequest, 31);
  const std::vector<graph::Distance> want = direct.QueryBatch(pairs);

  RawClient raw(server.Port());
  raw.Send(EncodeDistanceRequest(pairs));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Response response = raw.ReadSlowly(4096);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.distances, want);
  server.Stop();
}

TEST(QueryServerTest, LoadGenClosedLoopAnswersEverything) {
  const Graph g = graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 4);
  ServeOptions options;
  options.engine_threads = 2;
  QueryServer server(BuildTestIndex(g), options);
  server.Start();
  LoadGenOptions load;
  load.port = server.Port();
  load.connections = 3;
  load.requests_per_connection = 40;
  load.pairs_per_request = 8;
  load.max_vertex = g.NumVertices();
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.answered, 120u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.pairs, 960u);
  EXPECT_GT(report.p99_ns, 0u);
  server.Stop();
}

// Offered far beyond what one connection can carry, the open loop sends
// each request late, after the previous response. Request k is due at
// k / rate but completes near k * round_trip, so its latency grows with k
// and the slowest requests lag by about `seconds - duration`. Timing from
// the scheduled send keeps that backlog in the p99; timing from the
// actual send would report about one round trip. The offered load is
// sized so that even a fast host's round trips (~12 us) take over ten
// times the 10 ms schedule.
TEST(QueryServerTest, LoadGenOpenLoopLatencyIncludesScheduleLag) {
  const Graph g = graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 4);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  LoadGenOptions load;
  load.port = server.Port();
  load.connections = 1;
  load.pairs_per_request = 16;
  load.max_vertex = g.NumVertices();
  load.open_loop_qps = 1'000'000.0;
  load.duration_seconds = 0.01;  // 10 000 requests due within 10 ms
  const LoadGenReport report = RunLoadGen(load);
  EXPECT_EQ(report.answered + report.shed, 10'000u);
  EXPECT_EQ(report.errors, 0u);
  // Overloaded: the run took well past its schedule.
  ASSERT_GT(report.seconds, 3 * load.duration_seconds);
  const double lag_ns = (report.seconds - load.duration_seconds) * 1e9;
  EXPECT_GE(static_cast<double>(report.p99_ns), 0.5 * lag_ns)
      << "p99 " << report.p99_ns << " ns hides a schedule lag of " << lag_ns
      << " ns";
  server.Stop();
}

// Responses are small frames; the daemon disables Nagle on every accepted
// connection so one is never held back waiting for the client's ACK.
TEST(QueryServerTest, AcceptedConnectionsSetTcpNoDelay) {
  const Graph g = graph::ErdosRenyi(40, 100, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  RawClient raw(server.Port());
  raw.Send(EncodeInfoRequest());
  ASSERT_EQ(raw.ReadSlowly(4096).status, ResponseStatus::kInfo);

  // The daemon runs in this process, so its end of the connection is one
  // of our descriptors: the socket whose peer is the client's address.
  sockaddr_in client{};
  socklen_t client_len = sizeof(client);
  ASSERT_EQ(::getsockname(raw.fd(), reinterpret_cast<sockaddr*>(&client),
                          &client_len),
            0);
  int accepted = -1;
  for (int fd = 0; fd < 4096 && accepted < 0; ++fd) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (fd != raw.fd() &&
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) ==
            0 &&
        peer.sin_family == AF_INET && peer.sin_port == client.sin_port &&
        peer.sin_addr.s_addr == client.sin_addr.s_addr) {
      accepted = fd;
    }
  }
  ASSERT_GE(accepted, 0) << "accepted socket not found";
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len),
            0);
  EXPECT_NE(nodelay, 0);
  server.Stop();
}

// Hot swap under live traffic: republish a different complete artifact
// under the watched path while a client hammers the daemon. The swap must
// be observed (Info().hot_swaps), and not a single query may fail.
TEST(QueryServerTest, HotSwapUnderLiveTrafficNeverFailsAQuery) {
  const std::string path =
      ::testing::TempDir() + "parapll_serve_hotswap." +
      std::to_string(::getpid()) + ".idx";
  const Graph g1 =
      graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 101);
  const Graph g2 =
      graph::ErdosRenyi(80, 260, {WeightModel::kUniform, 9}, 202);
  const build::BuildOutcome b1 = build::Run(g1, {});
  b1.artifact.Save(path);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  QueryServer server(b1.artifact.index, options);
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread traffic([&] {
    try {
      ServeClient client;
      client.Connect(server.Port());
      const auto pairs = RandomPairs(80, 16, 77);
      while (!stop.load()) {
        const Response response = client.Distance(pairs);
        if (response.status == ResponseStatus::kOk &&
            response.distances.size() == pairs.size()) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      failed.fetch_add(1);
    }
  });

  // Republish a different build over the watched path (atomic rename),
  // then wait for the watcher to flip the engine.
  build::Run(g2, {}).artifact.Save(path);
  ServeClient prober;
  prober.Connect(server.Port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t swaps = 0;
  while (swaps == 0 && std::chrono::steady_clock::now() < deadline) {
    swaps = prober.Info().hot_swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  traffic.join();

  EXPECT_EQ(swaps, 1u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  const ServeStats stats = server.Stats();
  EXPECT_EQ(stats.hot_swaps, 1u);
  EXPECT_EQ(stats.reload_errors, 0u);
  // The prober's view reflects the new index's identity.
  EXPECT_EQ(prober.Info().fingerprint,
            build::IndexArtifact::Load(path).Manifest().graph_fingerprint);
  server.Stop();
}

// Republishing an identical build (same manifest) must NOT count as a
// swap, and a corrupt republish must keep the old engine serving.
TEST(QueryServerTest, WatcherSkipsIdenticalAndSurvivesCorruptRepublish) {
  const std::string path =
      ::testing::TempDir() + "parapll_serve_reload." +
      std::to_string(::getpid()) + ".idx";
  const Graph g =
      graph::ErdosRenyi(60, 150, {WeightModel::kUniform, 9}, 55);
  const build::BuildOutcome built = build::Run(g, {});
  built.artifact.Save(path);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  QueryServer server(built.artifact.index, options);
  server.Start();
  ServeClient client;
  client.Connect(server.Port());

  // Same bytes, new inode: the stamp changes but the manifest matches.
  built.artifact.Save(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(client.Info().hot_swaps, 0u);

  // Corrupt republish: reload fails, old engine keeps answering.
  {
    std::string bytes(64, '\x5a');
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.Stats().reload_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.Stats().reload_errors, 1u);
  EXPECT_EQ(client.Info().hot_swaps, 0u);
  const auto pairs = RandomPairs(g.NumVertices(), 8, 9);
  EXPECT_EQ(client.Distance(pairs).status, ResponseStatus::kOk);
  server.Stop();
}

TEST(QueryServerTest, StopIsIdempotentAndRestartable) {
  const Graph g = graph::ErdosRenyi(40, 100, {WeightModel::kUniform, 9}, 3);
  QueryServer server(BuildTestIndex(g), {});
  server.Start();
  EXPECT_TRUE(server.Running());
  server.Stop();
  server.Stop();
  EXPECT_FALSE(server.Running());
  server.Start();
  ServeClient client;
  client.Connect(server.Port());
  EXPECT_EQ(client.Info().num_vertices, g.NumVertices());
  server.Stop();
}

#if PARAPLL_HAVE_MMAP

std::string BackendTempPath(const char* name) {
  return ::testing::TempDir() + "parapll_serve_backend_" + name + "." +
         std::to_string(::getpid()) + ".idx";
}

// The daemon's answers must be bit-identical no matter which LabelSource
// backend the served snapshot sits on.
TEST(QueryServerTest, ServesIdenticallyFromEveryBackend) {
  const Graph g = graph::ErdosRenyi(90, 270, {WeightModel::kUniform, 9}, 61);
  const build::BuildOutcome built = build::Run(g, {});
  const std::string path = BackendTempPath("matrix");
  built.artifact.Save(path, pll::kIndexFormatV2);

  const auto pairs = RandomPairs(g.NumVertices(), 64, 71);
  const std::vector<graph::Distance> want =
      query::QueryEngine(built.artifact.index).QueryBatch(pairs);

  for (const pll::StoreBackend backend :
       {pll::StoreBackend::kHeap, pll::StoreBackend::kMmap}) {
    SCOPED_TRACE(pll::ToString(backend));
    pll::ServableIndex servable = pll::ServableIndex::Load(path, backend);
    EXPECT_EQ(servable.backend, backend);
    QueryServer server(std::move(servable), {});
    server.Start();
    ServeClient client;
    client.Connect(server.Port());
    const Response response = client.Distance(pairs);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.distances, want);
    server.Stop();
  }
  std::remove(path.c_str());
}

// Hot swap on the zero-copy backend: the republished v2 file must flip
// in under live traffic without failing a query — the old mapping may
// only be unmapped after in-flight batches drain (a use-after-unmap here
// is a crash, which is exactly what this test would catch).
TEST(QueryServerTest, HotSwapUnderTrafficOnZeroCopyBackend) {
  const Graph g1 =
      graph::ErdosRenyi(80, 240, {WeightModel::kUniform, 9}, 301);
  const Graph g2 =
      graph::ErdosRenyi(80, 260, {WeightModel::kUniform, 9}, 302);
  const pll::StoreBackend backend = pll::StoreBackend::kMmap;
  const std::string path = BackendTempPath(pll::ToString(backend));
  build::Run(g1, {}).artifact.Save(path, pll::kIndexFormatV2);

  ServeOptions options;
  options.watch_path = path;
  options.watch_poll_ms = 20;
  options.backend = backend;
  QueryServer server(pll::ServableIndex::Load(path, backend), options);
  server.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread traffic([&] {
    try {
      ServeClient client;
      client.Connect(server.Port());
      const auto pairs = RandomPairs(80, 16, 77);
      while (!stop.load()) {
        const Response response = client.Distance(pairs);
        if (response.status == ResponseStatus::kOk &&
            response.distances.size() == pairs.size()) {
          answered.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    } catch (const std::exception&) {
      failed.fetch_add(1);
    }
  });

  build::Run(g2, {}).artifact.Save(path, pll::kIndexFormatV2);
  ServeClient prober;
  prober.Connect(server.Port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::uint64_t swaps = 0;
  while (swaps == 0 && std::chrono::steady_clock::now() < deadline) {
    swaps = prober.Info().hot_swaps;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  traffic.join();

  EXPECT_EQ(swaps, 1u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(server.Stats().reload_errors, 0u);
  server.Stop();
  std::remove(path.c_str());
}

#endif  // PARAPLL_HAVE_MMAP

#endif  // PARAPLL_HAVE_SOCKETS

}  // namespace
}  // namespace parapll::serve
