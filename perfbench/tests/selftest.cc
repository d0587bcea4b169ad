// Self-check of the benchmark's arithmetic on synthetic input: the
// percentile rule (a percentile is reported only with at least ten samples
// beyond it) and span self time (a span minus what its children cover).
// Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<int> Ramp(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

void PercentileRule() {
  using perfbench::Percentile;
  Check(!Percentile(std::vector<int>{}, 0.5).has_value(), "empty input has no p50");
  // p50 of 1..20 is rank 10; exactly 10 samples lie beyond it.
  Check(Percentile(Ramp(20), 0.5) == 10, "p50 of 1..20 is 10");
  Check(!Percentile(Ramp(19), 0.5).has_value(), "p50 of 19 samples has only 9 beyond");
  // p99 needs n >= 1000: rank 990 of 1000 leaves 10 beyond.
  Check(Percentile(Ramp(1000), 0.99) == 990, "p99 of 1..1000 is 990");
  Check(!Percentile(Ramp(999), 0.99).has_value(), "p99 of 999 samples is not reported");
  Check(Percentile(Ramp(100000), 0.99) == 99000, "p99 of 1..100000 is 99000");
  // Failures sort last (as the largest value) and so miss every limit.
  std::vector<int> withFailures = Ramp(1000);
  withFailures.back() = 1 << 30;
  Check(Percentile(withFailures, 0.99) == 990, "a failure only moves the tail");
  Check(!Percentile(Ramp(100), 0.0).has_value(), "q=0 is rejected");
  Check(!Percentile(Ramp(100), 1.0).has_value(), "q=1 is rejected");
}

perfbench::SpanRecord Span(std::uint64_t start, std::uint64_t end, std::int32_t parent) {
  perfbench::SpanRecord s;
  s.startNs = start;
  s.endNs = end;
  s.parent = parent;
  return s;
}

void SelfTime() {
  using perfbench::SelfTimes;
  // Root [0,100) with children [10,30) and [50,60); child 1 has its own
  // child [12,20). Root self = 100-20-10 = 70; child 0 self = 20-8 = 12.
  {
    const auto self = SelfTimes({Span(0, 100, -1), Span(10, 30, 0), Span(12, 20, 1),
                                 Span(50, 60, 0)});
    Check(self.size() == 4, "one self time per span");
    Check(self[0] == 70, "root self excludes direct children only");
    Check(self[1] == 12, "child self excludes its own child");
    Check(self[2] == 8, "leaf self is its duration");
    Check(self[3] == 10, "second leaf self is its duration");
  }
  // Overlapping children are counted once; a child running past its parent
  // is clipped to the parent's interval.
  {
    const auto self = SelfTimes({Span(0, 100, -1), Span(10, 40, 0), Span(30, 60, 0),
                                 Span(90, 150, 0)});
    Check(self[0] == 100 - 50 - 10, "overlap counted once, overrun clipped");
  }
  // Children that cover everything leave zero, never a negative value.
  {
    const auto self = SelfTimes({Span(0, 10, -1), Span(0, 10, 0), Span(0, 10, 0)});
    Check(self[0] == 0, "fully covered parent has zero self time");
  }
  // Spans on different roots do not affect each other.
  {
    const auto self = SelfTimes({Span(0, 10, -1), Span(5, 25, -1)});
    Check(self[0] == 10 && self[1] == 20, "independent roots keep their durations");
  }
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench self-test: %d check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("perfbench self-test: all checks passed\n");
  return EXIT_SUCCESS;
}
