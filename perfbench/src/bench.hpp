// Shared pieces of the perfbench driver: a monotonic clock, order
// statistics, the metric sink that becomes the result line, and the span
// recorder used by traced runs.
//
// Spans are recorded only from the benchmark's own code, around calls
// into the library's public functions. A disabled Tracer costs one branch
// per span, so the timed (untraced) runs use the same code path.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Linear-interpolated quantile (q in [0, 1]); +inf values sort last, so a
// failed request counts as missing every latency limit. Empty -> NaN.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  if (std::isinf(values[hi])) {
    return values[hi];
  }
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Nanoseconds per iteration of a fixed chain of dependent integer
// multiplies: a proxy for the host's clock speed that touches no memory
// and calls no library code, so no change to the program can move it.
double ReferenceLoopNs();

// Named metrics with units, in insertion order of first Set().
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    if (index_.count(name) == 0) {
      index_[name] = entries_.size();
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]] = {name, value, unit};
    }
  }
  [[nodiscard]] double Get(const std::string& name) const {
    const auto it = index_.find(name);
    return it == index_.end() ? std::numeric_limits<double>::quiet_NaN()
                              : entries_[it->second].value;
  }
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Entry>& Entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

// Operations attempted and failed across a run; a wrong answer is a
// failed operation.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(std::uint64_t n, std::uint64_t bad) {
    attempted += n;
    failed += bad;
  }
};

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the span list, -1 for a root
  std::uint64_t request_id = 0;
};

// In-memory span recorder for one thread (the driver thread). Spans nest
// through an explicit stack; they are written out once, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }

  [[nodiscard]] bool Enabled() const { return enabled_; }

  std::int32_t Begin(const char* name, std::uint64_t request_id = 0) {
    if (!enabled_) {
      return -1;
    }
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(
        {name, NowNs(), 0, stack_.empty() ? -1 : stack_.back(), request_id});
    stack_.push_back(id);
    return id;
  }

  void End(std::int32_t id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }

  // A span whose interval was measured elsewhere (e.g. a served request,
  // from its due time to its response), parented to the open span.
  void Record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t request_id) {
    if (enabled_) {
      spans_.push_back({name, start_ns, end_ns,
                        stack_.empty() ? -1 : stack_.back(), request_id});
    }
  }

  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }

  // Per span name: total self time in seconds (duration minus the part
  // covered by direct children) and the number of spans.
  struct SelfTime {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> SelfTimes() const;

  // Writes every span as one JSON object per line. Returns false on I/O
  // failure.
  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request_id = 0)
      : tracer_(tracer), id_(tracer.Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

}  // namespace perfbench
