// Readers for the run-environment record: host CPU accounting from
// /proc/stat (steal, idle), per-thread CPU time from /proc/self/task, and
// process totals from getrusage.
#pragma once

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

namespace perfbench {

inline int CurrentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

/// Host-wide jiffies from the first line of /proc/stat.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t idle = 0;   // idle + iowait
  std::uint64_t steal = 0;
};

inline HostCpu ReadHostCpu() {
  HostCpu h;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t v[10] = {};
  for (auto& x : v) in >> x;
  for (auto x : v) h.total += x;
  // guest/guest_nice (v[8], v[9]) are already included in user/nice.
  h.total -= v[8] + v[9];
  h.idle = v[3] + v[4];
  h.steal = v[7];
  return h;
}

/// Per-thread on-CPU time in nanoseconds. schedstat has nanosecond
/// resolution; the tick-based utime+stime from stat is the fallback.
inline std::map<int, std::uint64_t> ReadThreadCpuNs() {
  std::map<int, std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const std::string tidName = entry.path().filename().string();
    const int tid = std::stoi(tidName);
    std::ifstream sched(entry.path() / "schedstat");
    std::uint64_t ns = 0;
    if (sched >> ns) {
      out[tid] = ns;
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    std::getline(stat, line);
    const auto close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0;
    std::uint64_t stime = 0;
    // Fields after the command: state is field 3; utime/stime are 14/15.
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::stoull(field);
      if (i == 15) stime = std::stoull(field);
    }
    const auto hz = static_cast<std::uint64_t>(::sysconf(_SC_CLK_TCK));
    out[tid] = (utime + stime) * 1'000'000'000ULL / (hz == 0 ? 100 : hz);
  }
  return out;
}

struct ProcessUsage {
  std::uint64_t cpuNs = 0;
  std::uint64_t ctxSwitches = 0;
  std::uint64_t maxRssKb = 0;
};

inline ProcessUsage ReadProcessUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  auto ns = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1000ULL;
  };
  u.cpuNs = ns(ru.ru_utime) + ns(ru.ru_stime);
  u.ctxSwitches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.maxRssKb = static_cast<std::uint64_t>(ru.ru_maxrss);
  return u;
}

}  // namespace perfbench
