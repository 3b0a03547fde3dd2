#include "bench.hpp"

#include <cstdio>
#include <utility>

namespace perfbench {

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  // Children may overlap each other (concurrent served requests), so a
  // parent's covered time is the union of its children's intervals,
  // clipped to the parent.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, span.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    const std::uint64_t total =
        span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    SelfTime& self = out[span.name];
    self.seconds += static_cast<double>(total - std::min(total, covered)) * 1e-9;
    ++self.count;
  }
  return out;
}

double ReferenceLoopNs() {
  constexpr std::uint64_t kIterations = std::uint64_t{1} << 20;
  static volatile std::uint64_t seed = 1;
  std::uint64_t x = seed;
  const std::uint64_t start = NowNs();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 13;
  }
  const std::uint64_t end = NowNs();
  seed = x;
  return static_cast<double>(end - start) / static_cast<double>(kIterations);
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"request_id\":%llu}\n",
                 i, span.name, static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request_id));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
