// Pure arithmetic the benchmark reports with: the percentile rule and the
// span self-time subtraction. Kept free of I/O so the self-test can check
// both on synthetic input.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace perfbench {

/// Minimum number of samples that must lie strictly beyond a reported
/// percentile; with fewer, the percentile is not reported.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// (0, 1): the value at rank ceil(q * n). Returns nothing unless at least
/// kMinSamplesBeyond samples rank above it, so p99 needs n >= 1000.
template <typename T>
std::optional<T> Percentile(const std::vector<T>& sorted, double q) {
  const std::size_t n = sorted.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  return sorted[rank - 1];
}

/// One recorded span on one thread. `parent` indexes the enclosing span in
/// the same thread's buffer (-1 for a root).
struct SpanRecord {
  std::uint64_t startNs = 0;
  std::uint64_t endNs = 0;
  std::uint16_t name = 0;
  std::int32_t parent = -1;
  std::uint64_t key = 0;  // (client addr << 32) ^ reqId of the message handled
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent, overlapping children counted once).
inline std::vector<std::uint64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs, s.endNs);
    }
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t curStart = 0;
    std::uint64_t curEnd = 0;
    bool open = false;
    for (auto [b, e] : kids) {
      b = std::max(b, s.startNs);
      e = std::min(e, s.endNs);
      if (e <= b) continue;
      if (open && b <= curEnd) {
        curEnd = std::max(curEnd, e);
        continue;
      }
      if (open) covered += curEnd - curStart;
      curStart = b;
      curEnd = e;
      open = true;
    }
    if (open) covered += curEnd - curStart;
    self[i] = dur - std::min(dur, covered);
  }
  return self;
}

}  // namespace perfbench
