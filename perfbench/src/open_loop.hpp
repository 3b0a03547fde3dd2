// The benchmark's own open-loop serve driver.
//
// One thread drives `connections` non-blocking TCP connections to a
// QueryServer. Request k is due at start + k / rate. It is sent when due
// on an idle connection, as from a pool of blocking clients, or waits in
// the driver until an answer frees one; with `round_robin` it is
// pipelined on connection k mod n instead. Responses are matched to
// requests by their echoed trace id. Latency runs from the due time (not
// the send time), so a stall or a wait for a connection shows up in the
// latency of the requests it delays, and the driver reports how late it
// sent. A shed, failed or unanswered request counts as a miss: its
// latency is +inf.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "graph/types.hpp"
#include "query/query_engine.hpp"

namespace perfbench {

// The requests a phase cycles through, with the engine's answers for the
// same pairs; a served answer that differs is a wrong answer.
struct RequestPool {
  std::vector<std::vector<parapll::query::QueryPair>> requests;
  std::vector<std::vector<parapll::graph::Distance>> expected;
};

struct OpenLoopOptions {
  std::uint16_t port = 0;
  double rate_rps = 0.0;
  double seconds = 0.0;
  std::size_t connections = 0;
  // Requests due in the first warmup_seconds are sent but not reported.
  double warmup_seconds = 0.0;
  // How long to wait for answers after the last request was due.
  double drain_seconds = 0.0;
  // Trace ids are "<id_prefix><k>"; the prefix names the phase.
  std::string id_prefix;
  // Request k on connection k mod n, pipelined behind whatever is in
  // flight there, instead of on an idle connection.
  bool round_robin = false;
};

struct OpenLoopResult {
  std::uint64_t sent = 0;     // reported (post-warmup) requests
  std::uint64_t ok = 0;       // answered with the right distances
  std::uint64_t wrong = 0;    // answered, but not the engine's answers
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;   // bad-request / undecodable responses
  std::uint64_t missing = 0;  // no answer before the drain deadline
  std::vector<double> latency_us;  // from due time; +inf for a miss
  std::vector<double> late_us;     // send time minus due time
  double offered_rps = 0.0;
  double achieved_rps = 0.0;  // ok answers per second of wall time

  [[nodiscard]] std::uint64_t Failed() const {
    return wrong + shed + errors + missing;
  }
};

// Runs one fixed-rate phase. When `tracer` is enabled, each reported
// request becomes a "serve.request" span from its due time to its answer.
// Throws std::runtime_error when a connection cannot be opened.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const RequestPool& pool, Tracer& tracer);

}  // namespace perfbench
