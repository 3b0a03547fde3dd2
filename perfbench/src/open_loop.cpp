#include "open_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <limits>
#include <stdexcept>

#include "serve/frame.hpp"

namespace perfbench {
namespace {

enum class Outcome : std::uint8_t { kPending, kOk, kWrong, kShed, kError };

struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_offset = 0;
  parapll::serve::FrameReader reader{parapll::serve::kMaxResponsePayload};
  std::size_t outstanding = 0;  // requests sent, answers not yet read
  bool broken = false;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
};

void Open(Connection& conn, std::uint16_t port) {
  conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn.fd < 0) {
    throw std::runtime_error("open loop: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw std::runtime_error("open loop: cannot connect to the server");
  }
  const int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(conn.fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw std::runtime_error("open loop: cannot make the socket non-blocking");
  }
}

void Flush(Connection& conn) {
  while (!conn.broken && conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_offset += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      conn.broken = true;
    }
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  }
}

}  // namespace

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options,
                           const RequestPool& pool, Tracer& tracer) {
  // Sleep to the next due time with ns precision rather than the default
  // 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<Connection> conns(options.connections);
  for (Connection& conn : conns) {
    Open(conn, options.port);
  }

  const auto total = static_cast<std::size_t>(
      std::max(1.0, std::round(options.rate_rps * options.seconds)));
  const double interval_ns = 1e9 / options.rate_rps;
  const std::uint64_t start_ns = NowNs() + 2'000'000;
  const auto due = [&](std::size_t k) {
    return start_ns + static_cast<std::uint64_t>(static_cast<double>(k) *
                                                 interval_ns);
  };
  const auto warmup = static_cast<std::size_t>(
      std::round(options.warmup_seconds * options.rate_rps));
  const std::uint64_t deadline_ns =
      due(total - 1) +
      static_cast<std::uint64_t>(options.drain_seconds * 1e9);

  std::vector<std::uint64_t> send_ns(total, 0);
  std::vector<std::uint64_t> recv_ns(total, 0);
  std::vector<Outcome> outcome(total, Outcome::kPending);
  std::uint64_t stray_errors = 0;  // responses no request can claim

  // A request goes to the first idle connection, as from a pool of
  // blocking clients, so the first few carry the traffic and the rest
  // absorb stalls; while every connection has an answer outstanding, due
  // requests wait in the driver (their latency still runs from the due
  // time). With options.round_robin, request k goes to connection k mod n
  // at once, pipelined behind whatever is in flight there.
  const auto pick = [&](std::size_t k) -> Connection* {
    if (options.round_robin) {
      return &conns[k % conns.size()];
    }
    for (Connection& conn : conns) {
      if (conn.outstanding == 0) {
        return &conn;
      }
    }
    return nullptr;
  };

  const auto handle = [&](const std::string& payload, std::uint64_t now) {
    parapll::serve::Response response;
    try {
      response = parapll::serve::DecodeResponsePayload(payload);
    } catch (const std::exception&) {
      ++stray_errors;
      return;
    }
    const std::string& id = response.trace_id;
    std::size_t k = total;
    if (id.size() > options.id_prefix.size() &&
        id.compare(0, options.id_prefix.size(), options.id_prefix) == 0) {
      const char* first = id.data() + options.id_prefix.size();
      const char* last = id.data() + id.size();
      std::size_t parsed = 0;
      const auto [ptr, ec] = std::from_chars(first, last, parsed);
      if (ec == std::errc() && ptr == last) {
        k = parsed;
      }
    }
    if (k >= total || outcome[k] != Outcome::kPending) {
      ++stray_errors;
      return;
    }
    recv_ns[k] = now;
    switch (response.status) {
      case parapll::serve::ResponseStatus::kOk:
        outcome[k] = response.distances == pool.expected[k % pool.expected.size()]
                         ? Outcome::kOk
                         : Outcome::kWrong;
        break;
      case parapll::serve::ResponseStatus::kShed:
        outcome[k] = Outcome::kShed;
        break;
      default:
        outcome[k] = Outcome::kError;
        break;
    }
  };

  std::vector<pollfd> pfds(conns.size());
  std::vector<char> buffer(1 << 16);
  std::string payload;
  std::size_t next = 0;
  std::size_t answered = 0;
  bool broken = false;
  while (!broken) {
    std::uint64_t now = NowNs();
    bool blocked = false;  // a request is due and every connection is busy
    while (next < total && due(next) <= now) {
      Connection* conn = pick(next);
      if (conn == nullptr) {
        blocked = true;
        break;
      }
      ++conn->outstanding;
      conn->out += parapll::serve::EncodeDistanceRequest(
          pool.requests[next % pool.requests.size()],
          options.id_prefix + std::to_string(next));
      send_ns[next] = now;
      ++next;
      Flush(*conn);
    }
    if (next == total && answered == total) {
      break;
    }
    now = NowNs();
    if (now >= deadline_ns) {
      break;  // what was not sent or answered by now is missing
    }
    // Sleep to the next due time, or, while requests wait for a free
    // connection, until an answer frees one.
    const std::uint64_t wake =
        next < total && !blocked ? due(next) : deadline_ns;
    const std::uint64_t wait = wake > now ? wake - now : 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const timespec timeout{static_cast<time_t>(wait / 1'000'000'000ULL),
                           static_cast<long>(wait % 1'000'000'000ULL)};
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) <= 0) {
      continue;  // due time reached (or EINTR): send what is due
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& conn = conns[i];
      if ((pfds[i].revents & POLLOUT) != 0) {
        Flush(conn);
      }
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = ::recv(conn.fd, buffer.data(), buffer.size(), 0);
        if (n > 0) {
          conn.reader.Append(buffer.data(), static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.broken = true;
        }
        break;
      }
      const std::uint64_t at = NowNs();
      try {
        while (conn.reader.Next(payload)) {
          conn.outstanding -= conn.outstanding > 0 ? 1 : 0;
          const std::size_t before = stray_errors;
          handle(payload, at);
          if (stray_errors == before) {
            ++answered;
          }
        }
      } catch (const std::exception&) {
        conn.broken = true;  // unframeable stream
      }
      broken = broken || conn.broken;
    }
  }

  OpenLoopResult result;
  result.errors = stray_errors;
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < total; ++k) {
    if (k < warmup) {
      continue;
    }
    ++result.sent;
    double latency = inf;
    switch (outcome[k]) {
      case Outcome::kOk:
        ++result.ok;
        latency = static_cast<double>(recv_ns[k] - due(k)) * 1e-3;
        break;
      case Outcome::kWrong:
        ++result.wrong;
        break;
      case Outcome::kShed:
        ++result.shed;
        break;
      case Outcome::kError:
        ++result.errors;
        break;
      case Outcome::kPending:
        ++result.missing;
        break;
    }
    result.latency_us.push_back(latency);
    if (send_ns[k] != 0) {
      result.late_us.push_back(static_cast<double>(send_ns[k] - due(k)) *
                               1e-3);
    }
    tracer.Record("serve.request", due(k),
                  recv_ns[k] != 0 ? recv_ns[k] : deadline_ns, k);
  }
  // Answers per second of wall time, from the first reported request's due
  // time to the last answer: below the offered rate when a backlog grew.
  std::uint64_t first_due = 0;
  std::uint64_t last_answer = 0;
  for (std::size_t k = 0; k < total; ++k) {
    if (k >= warmup && outcome[k] == Outcome::kOk) {
      first_due = first_due == 0 ? due(k) : first_due;
      last_answer = std::max(last_answer, recv_ns[k]);
    }
  }
  result.offered_rps = options.rate_rps;
  result.achieved_rps =
      last_answer > first_due
          ? static_cast<double>(result.ok) /
                (static_cast<double>(last_answer - first_due) * 1e-9)
          : 0.0;
  return result;
}

}  // namespace perfbench
