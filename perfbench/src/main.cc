// perfbench: the end-to-end benchmark. Builds an in-process cluster on
// loopback TCP, drives it with one closed-loop client (64 operations in
// flight), checks every byte it reads, and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
//   scalla_perfbench --workload warm_open --seed 1 --seconds 15 --trace 0
//                    --workdir DIR [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics: three fresh clusters are
// built one after another, each measured for an equal share of the
// window in one-second slices; the figures are medians over all slices
// (and over the set-ups, for setup_s).
// --trace 1 reports the per-layer metrics: an untraced window gives the
// per-thread CPU split and counters, a traced window gives spans, and a
// socket-free replay of the run's own streams gives per-call costs.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster.h"
#include "cms/correction_state.h"
#include "cms/location_cache.h"
#include "engine.h"
#include "oss/mem_oss.h"
#include "pcache/tiered_cache.h"
#include "procstat.h"
#include "proto/wire.h"
#include "stats.h"
#include "trace.h"
#include "util/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = scalla::net;
namespace proto = scalla::proto;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path workdir;
  std::string traceOut;
};

/// Clusters built per end-to-end run; setup_s is the median of their
/// set-up times.
constexpr int kSetups = 3;

bool ParseArgs(int argc, char** argv, Options* o) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed" || key == "--seconds") {
      try {
        if (key == "--seed") o->seed = std::stoull(val);
        if (key == "--seconds") o->seconds = std::stod(val);
      } catch (const std::exception&) {
        return false;
      }
    } else if (key == "--trace") {
      o->trace = val == "1";
    } else if (key == "--workdir") {
      o->workdir = val;
    } else if (key == "--trace-out") {
      o->traceOut = val;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && !o->workdir.empty() && o->seconds > 0;
}

// ---- report ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double Us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// End-to-end windows are measured in one-second slices; the reported
/// figures are their medians.
int SliceCount(double seconds) { return std::max(1, static_cast<int>(std::lround(seconds))); }

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PerOp(double total, std::uint64_t ops) {
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

/// p-quantile in microseconds of unsorted ns samples; 0 (and a note) when
/// too few samples lie beyond it.
double PercentileUs(std::vector<std::uint64_t> samples, double q, const std::string& what) {
  std::sort(samples.begin(), samples.end());
  const auto p = Percentile(samples, q);
  if (!p) {
    std::printf("  note: %s not reported (%zu samples, need %zu beyond the percentile)\n",
                what.c_str(), samples.size(), kMinSamplesBeyond);
    return 0;
  }
  return Us(*p);
}

// ---- cluster set-up ----

bool PortsFree(std::uint16_t base) {
  for (net::NodeAddr addr : {kManagerAddr, kServerAddr0, kServerAddr0 + 1, kProxyAddr,
                             kClientAddr}) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = htons(static_cast<std::uint16_t>(base + addr));
    const bool ok = ::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
    ::close(fd);
    if (!ok) return false;
  }
  return true;
}

/// A base port below the ephemeral range whose five endpoint ports bind.
std::uint16_t PickBasePort(int rep) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        12000 + (static_cast<unsigned>(::getpid()) * 131u + static_cast<unsigned>(rep) * 977u +
                 static_cast<unsigned>(attempt) * 4099u) %
                    18000u);
    if (PortsFree(base)) return base;
  }
  return 0;
}

/// A started cluster and the engine driving it. The cluster is declared
/// last so it is destroyed first: its executors stop before the engine
/// their callbacks refer to goes away.
struct Setup {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Cluster> cluster;
  double cpuSeconds = 0;   // process CPU spent setting up: setup_s
  double wallSeconds = 0;  // printed beside it
};

/// On-disk files are generated once per process, before the first set-up,
/// and every cluster's servers reuse them; their generation is reported on
/// its own and is not part of setup_s.
bool SeedOnDisk(const Options& o, Workload& w) {
  if (!w.UsesLocalOss()) return true;
  const std::uint64_t t0 = NowNs();
  std::vector<std::unique_ptr<scalla::oss::Oss>> stores;
  Target t;
  for (int i = 0; i < kServers; ++i) {
    stores.push_back(w.MakeStore(i, o.workdir / "data"));
    t.stores.push_back(stores.back().get());
  }
  const bool ok = w.Seed(t);
  std::printf("on-disk files: %.4f s (generated once, outside setup_s)\n",
              static_cast<double>(NowNs() - t0) / 1e9);
  return ok;
}

/// Cluster start, logins, in-memory seeding and warm-up through the same
/// 64-deep window the timed run uses. Any failed set-up operation or queue
/// overflow fails the run.
///
/// setup_s is the process CPU time this takes, not its wall time: on a
/// shared host the wall time swings with hypervisor steal (2.5x between
/// runs minutes apart), while the CPU time, like cpu_us_per_op, is not
/// charged for stolen time. Work moved into set-up shows in either.
bool BuildSetup(const Options& o, Workload& w, int rep, bool traced, Setup* s,
                std::string* error) {
  const std::uint64_t t0 = NowNs();
  const std::uint64_t cpu0 = ReadProcessUsage().cpuNs;
  const std::uint16_t port = PickBasePort(rep);
  if (port == 0) {
    *error = "no free base port";
    return false;
  }
  s->cluster = std::make_unique<Cluster>(w, port, traced, o.workdir / "data");
  if (!s->cluster->Start(w, error)) return false;
  s->engine = std::make_unique<Engine>(*s->cluster->clientExec().raw, w);
  s->engine->Start(true, w.WarmupOps());
  if (!s->engine->Wait(std::chrono::seconds(150))) {
    *error = "warm-up did not drain";
    return false;
  }
  const auto records = s->engine->TakeRecords();
  for (const auto& [why, n] : s->engine->failures()) {
    *error = "set-up operation failed " + std::to_string(n) + "x: " + why;
    return false;
  }
  if (records.size() != w.WarmupOps()) {
    *error = "warm-up completed " + std::to_string(records.size()) + " operations";
    return false;
  }
  if (s->cluster->tcp().GetCounters().queueOverflows != 0) {
    *error = "fabric queue overflow during set-up";
    return false;
  }
  s->cpuSeconds = static_cast<double>(ReadProcessUsage().cpuNs - cpu0) / 1e9;
  s->wallSeconds = static_cast<double>(NowNs() - t0) / 1e9;
  return true;
}

// ---- measurement window ----

struct Edge {
  std::uint64_t ns = 0;
  ProcessUsage usage;
  HostCpu host;
  std::map<int, std::uint64_t> threads;
  net::Fabric::Counters fabric;
  std::uint64_t redirects = 0;
  std::uint64_t recoveries = 0;
  scalla::cms::LocationCache::Stats cache;
  scalla::cms::Resolver::Stats resolver;
  scalla::pcache::TieredCacheStats pcache;
  std::uint64_t ossCalls = 0;
  std::uint64_t ossBytes = 0;
};

Edge Snap(Cluster& c, const Workload& w) {
  Edge e;
  e.ns = NowNs();
  e.usage = ReadProcessUsage();
  e.threads = ReadThreadCpuNs();
  e.host = ReadHostCpu();
  e.fabric = c.tcp().GetCounters();
  e.redirects = w.redirects();
  e.recoveries = w.recoveries();
  e.ossCalls = c.OssCalls();
  e.ossBytes = c.OssBytes();
  auto& mgr = c.manager();
  std::tie(e.cache, e.resolver) = RunOn(*c.managerExec().raw, [&mgr] {
    return std::make_pair(mgr.cache().GetStats(), mgr.resolver().GetStats());
  });
  if (auto* proxy = c.proxy()) {
    e.pcache = RunOn(*c.proxyExec()->raw, [proxy] { return proxy->cache().GetTieredStats(); });
  }
  return e;
}

/// One equal slice of a window, measured on its own. The end-to-end
/// figures are medians over slices, so a burst of hypervisor steal that
/// hits one slice does not move the run's result.
struct Slice {
  double opsPerSecond = 0;
  double cpuUsPerOp = 0;
  std::optional<std::uint64_t> p50;
  std::optional<std::uint64_t> p99;
};

struct Window {
  Edge a;
  Edge b;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::vector<Slice> slices;
  std::map<std::string, std::uint64_t> failures;
  double Seconds() const { return static_cast<double>(b.ns - a.ns) / 1e9; }
  double OpsPerSecond() const { return static_cast<double>(ok) / Seconds(); }
};

/// Measures `seconds` of closed-loop load in `sliceCount` equal slices.
/// Operations count when they complete inside the window; a failed one
/// counts as missing every latency limit.
bool RunWindow(Setup& s, const Workload& w, double seconds, int sliceCount, Window* out) {
  s.engine->Start(false, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // reach 64 in flight
  out->a = Snap(*s.cluster, w);
  // (ns, process cpu ns) at every slice boundary.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> marks = {{out->a.ns, out->a.usage.cpuNs}};
  const auto start = std::chrono::steady_clock::time_point(std::chrono::nanoseconds(out->a.ns));
  for (int i = 1; i < sliceCount; ++i) {
    std::this_thread::sleep_until(start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                              std::chrono::duration<double>(seconds * i / sliceCount)));
    marks.emplace_back(NowNs(), ReadProcessUsage().cpuNs);
  }
  std::this_thread::sleep_until(start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::duration<double>(seconds)));
  out->b = Snap(*s.cluster, w);
  marks.emplace_back(out->b.ns, out->b.usage.cpuNs);
  s.engine->RequestStop();
  if (!s.engine->Wait(std::chrono::seconds(60))) return false;

  std::vector<std::vector<std::uint64_t>> sliceLatencies(static_cast<std::size_t>(sliceCount));
  std::vector<std::uint64_t> sliceOk(static_cast<std::size_t>(sliceCount), 0);
  for (const auto& r : s.engine->TakeRecords()) {
    if (r.endNs < out->a.ns || r.endNs > out->b.ns) continue;
    std::size_t slice = 0;
    while (slice + 1 < sliceLatencies.size() && r.endNs >= marks[slice + 1].first) ++slice;
    (r.ok ? out->ok : out->failed) += 1;
    sliceOk[slice] += r.ok ? 1 : 0;
    sliceLatencies[slice].push_back(r.ok ? r.latencyNs : ~std::uint64_t{0});
  }
  out->failures = s.engine->failures();
  for (std::size_t i = 0; i < sliceLatencies.size(); ++i) {
    auto& lat = sliceLatencies[i];
    std::sort(lat.begin(), lat.end());
    Slice slice;
    slice.opsPerSecond = static_cast<double>(sliceOk[i]) /
                         (static_cast<double>(marks[i + 1].first - marks[i].first) / 1e9);
    slice.cpuUsPerOp =
        PerOp(static_cast<double>(marks[i + 1].second - marks[i].second) / 1000.0, sliceOk[i]);
    slice.p50 = Percentile(lat, 0.50);
    slice.p99 = Percentile(lat, 0.99);
    out->slices.push_back(slice);
  }
  return true;
}

// ---- run-environment record ----

std::size_t ThreadCount() {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = fs::directory_iterator("/proc/self/task", ec); it != fs::directory_iterator();
       ++it) {
    ++n;
  }
  return n;
}

struct Environment {
  double stealPct = 0;
  double idlePct = 0;
  unsigned nproc = 0;
  std::size_t threads = 0;
  std::size_t connections = 0;
};

Environment RecordEnvironment(Cluster& c, const Window& win) {
  Environment env;
  const double total = static_cast<double>(win.b.host.total - win.a.host.total);
  if (total > 0) {
    env.stealPct = 100.0 * static_cast<double>(win.b.host.steal - win.a.host.steal) / total;
    env.idlePct = 100.0 * static_cast<double>(win.b.host.idle - win.a.host.idle) / total;
  }
  env.nproc = std::thread::hardware_concurrency();
  env.threads = ThreadCount();
  env.connections = c.tcp().ActiveOutboundConnections();
  std::printf("environment: steal %.2f%%  idle %.2f%%  nproc %u  threads %zu  connections %zu\n",
              env.stealPct, env.idlePct, env.nproc, env.threads, env.connections);
  if (env.stealPct > 5.0) {
    std::printf("  flag: high hypervisor steal (%.2f%%); ops_s and p99_us of this run are "
                "suspect, cpu_us_per_op is not (stolen time is not charged)\n",
                env.stealPct);
  }
  return env;
}

// ---- per-thread CPU split ----

struct ThreadSplit {
  std::map<std::string, std::uint64_t> cpuNsByRole;  // "reactor" sums the loops
  double busiestPct = 0;
  std::string busiestRole;
  std::string busiestExecutor;  // busiest thread that is a node executor
};

ThreadSplit SplitThreads(Cluster& c, const Window& win) {
  std::map<int, std::string> roles;
  for (auto& e : c.execs()) roles[e->tid] = e->role;
  roles[static_cast<int>(::getpid())] = "main";
  const double wallNs = static_cast<double>(win.b.ns - win.a.ns);
  ThreadSplit split;
  std::uint64_t busiestExecNs = 0;
  std::printf("per-thread CPU over the window (%llu ops):\n",
              static_cast<unsigned long long>(win.ok));
  for (const auto& [tid, after] : win.b.threads) {
    const auto before = win.a.threads.find(tid);
    const std::uint64_t delta =
        after - (before == win.a.threads.end() ? 0 : std::min(after, before->second));
    const auto role = roles.count(tid) ? roles[tid] : std::string("reactor");
    split.cpuNsByRole[role] += delta;
    const double pct = 100.0 * static_cast<double>(delta) / wallNs;
    std::printf("  %-8s tid %-7d busy %6.2f%%  %8.3f us/op\n", role.c_str(), tid, pct,
                PerOp(Us(delta), win.ok));
    if (pct > split.busiestPct) {
      split.busiestPct = pct;
      split.busiestRole = role;
    }
    if (role != "main" && role != "reactor" && delta > busiestExecNs) {
      busiestExecNs = delta;
      split.busiestExecutor = role;
    }
  }
  std::printf("  busiest thread: %s (%.2f%%)\n", split.busiestRole.c_str(), split.busiestPct);
  return split;
}

// ---- layer replay (no sockets, one thread) ----

template <typename F>
double TimePerCall(std::uint64_t callsPerPass, F pass) {
  const std::uint64_t t0 = NowNs();
  std::uint64_t calls = 0;
  do {
    pass();
    calls += callsPerPass;
  } while (NowNs() - t0 < 250'000'000ULL);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(calls);
}

struct Replay {
  double encodeNs = 0;
  double decodeNs = 0;
  double cmsLookupNs = 0;
  double pcacheLookupNs = 0;
  bool ok = true;
};

Replay ReplayLayers(const Workload& w, const std::vector<proto::Message>& captured) {
  Replay r;
  volatile std::uint64_t sink = 0;
  if (!captured.empty()) {
    std::vector<std::string> encoded;
    for (const auto& m : captured) {
      encoded.push_back(proto::Encode(m));
      const auto back = proto::Decode(encoded.back());
      if (!back || proto::Encode(*back) != encoded.back()) r.ok = false;
    }
    std::string buf;
    buf.reserve(1 << 18);
    r.encodeNs = TimePerCall(captured.size(), [&] {
      for (const auto& m : captured) {
        buf.clear();
        proto::EncodeAppend(m, buf);
        sink = sink + buf.size();
      }
    });
    r.decodeNs = TimePerCall(encoded.size(), [&] {
      for (const auto& e : encoded) {
        const auto m = proto::Decode(e);
        sink = sink + (m ? m->index() : 0);
      }
    });
  }

  const auto& names = w.names();
  const auto& ops = w.opLog();
  if (!ops.empty()) {
    auto& clock = scalla::util::SystemClock::Instance();
    scalla::cms::CmsConfig cfg;
    scalla::cms::CorrectionState corrections;
    scalla::cms::LocationCache cache(cfg, clock, corrections);
    const auto vm = scalla::ServerSet::FirstN(kServers);
    for (const auto& op : ops) {
      cache.Lookup(names[op.first], vm, scalla::ServerSet::None(),
                   scalla::cms::LocationCache::AddPolicy::kCreate);
    }
    r.cmsLookupNs = TimePerCall(ops.size(), [&] {
      for (const auto& op : ops) {
        const auto f = cache.Lookup(names[op.first], vm, scalla::ServerSet::None(),
                                    scalla::cms::LocationCache::AddPolicy::kFindOnly);
        if (!f.found) r.ok = false;
      }
    });

    // The proxy's tier layout over the run's (name, block) key stream:
    // lookup, and insert on a miss.
    scalla::pcache::TieredCacheConfig tc;
    tc.dram.capacityBytes = kProxyDramBytes;
    tc.diskCapacityBytes = kProxyDiskBytes;
    tc.asyncTierOps = false;
    scalla::oss::MemOss disk(clock);
    scalla::pcache::TieredBlockCache tiers(tc, &disk, nullptr, clock);
    const std::string block(tc.dram.blockSize, 'b');
    const std::size_t keys = std::min<std::size_t>(ops.size(), 100000);
    const std::uint64_t t0 = NowNs();
    for (std::size_t i = 0; i < keys; ++i) {
      const auto& op = ops[i];
      if (!tiers.LookupDetailed(names[op.first], op.second).data) {
        tiers.Insert(names[op.first], op.second, block);
      }
    }
    r.pcacheLookupNs = static_cast<double>(NowNs() - t0) / static_cast<double>(keys);
  }
  return r;
}

// ---- span analysis ----

struct SpanSummary {
  std::map<std::string, std::uint64_t> selfNsByLayer;
  std::map<std::string, std::vector<std::uint64_t>> durationsByName;
  std::uint64_t spans = 0;
  std::uint64_t dropped = 0;
};

SpanSummary SummarizeSpans() {
  SpanSummary out;
  Tracer& tracer = Tracer::Get();
  std::map<std::uint16_t, std::string> names;
  for (const auto* buf : tracer.Buffers()) {
    out.spans += buf->spans.size();
    out.dropped += buf->dropped;
    const auto self = SelfTimes(buf->spans);
    for (std::size_t i = 0; i < buf->spans.size(); ++i) {
      const SpanRecord& s = buf->spans[i];
      if (s.endNs == 0) continue;  // still open when tracing stopped
      auto it = names.find(s.name);
      if (it == names.end()) it = names.emplace(s.name, tracer.Name(s.name)).first;
      const std::string& name = it->second;
      out.selfNsByLayer[name.substr(0, name.find('.'))] += self[i];
      out.durationsByName[name].push_back(s.endNs - s.startNs);
    }
  }
  return out;
}

std::vector<std::uint64_t> DurationsWithPrefix(const SpanSummary& s, const std::string& prefix) {
  std::vector<std::uint64_t> out;
  for (const auto& [name, d] : s.durationsByName) {
    if (name.rfind(prefix, 0) == 0) out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

// ---- output ----

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("metrics:\n");
  for (const auto& m : metrics) {
    std::printf("  %-28s %14s %s\n", m.name.c_str(), Num(m.value).c_str(), m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Prints a window's failed operations. Returns 1 if the cluster's fabric
/// overflowed a peer queue.
std::uint64_t CheckWindow(const Window& win, Cluster& c) {
  for (const auto& [why, n] : win.failures) {
    std::printf("  failure: %llu x %s\n", static_cast<unsigned long long>(n), why.c_str());
  }
  const auto overflows = c.tcp().GetCounters().queueOverflows;
  if (overflows == 0) return 0;
  std::printf("  failure: %llu fabric queue overflows\n",
              static_cast<unsigned long long>(overflows));
  return 1;
}

/// Run-wide checks on the workload's cumulative counters. Returns the
/// number of failures to add.
std::uint64_t CheckWorkload(const Workload& w) {
  std::uint64_t problems = 0;
  if (w.mismatches() != 0) {
    std::printf("  failure: %llu read mismatches\n",
                static_cast<unsigned long long>(w.mismatches()));
  }
  if (w.exhausted()) {
    std::printf("  failure: the cold name supply ran out\n");
    ++problems;
  }
  if (w.recoveries() != 0) {
    std::printf("  failure: %llu client recoveries\n",
                static_cast<unsigned long long>(w.recoveries()));
    ++problems;
  }
  return problems;
}

struct SliceMedians {
  double opsPerSecond = 0;
  double p50Us = 0;
  double p99Us = 0;
  double cpuUsPerOp = 0;
};

/// Medians over slices. A slice with too few samples for a percentile
/// adds nothing to that percentile's median (0 when no slice has it).
SliceMedians MediansOf(const std::vector<Slice>& slices) {
  std::vector<double> opsPerSecond, p50s, p99s, cpuPerOp;
  for (const Slice& slice : slices) {
    std::printf("  slice: %10.1f ops/s  p50 %9.1f us  p99 %9.1f us  cpu %7.2f us/op\n",
                slice.opsPerSecond, slice.p50 ? Us(*slice.p50) : 0.0,
                slice.p99 ? Us(*slice.p99) : 0.0, slice.cpuUsPerOp);
    opsPerSecond.push_back(slice.opsPerSecond);
    if (slice.p50) p50s.push_back(Us(*slice.p50));
    if (slice.p99) p99s.push_back(Us(*slice.p99));
    cpuPerOp.push_back(slice.cpuUsPerOp);
  }
  if (p99s.size() < slices.size()) {
    std::printf("  note: %zu of %zu slices had too few samples for p99\n",
                slices.size() - p99s.size(), slices.size());
  }
  SliceMedians out;
  out.opsPerSecond = Median(opsPerSecond);
  out.p50Us = Median(p50s);
  out.p99Us = Median(p99s);
  out.cpuUsPerOp = Median(cpuPerOp);
  return out;
}

/// Every set-up builds a fresh cluster and measures an equal share of the
/// window on it, so one cluster that settles into an unlucky thread
/// placement moves only a third of the slices the medians are taken over.
int RunEndToEnd(const Options& o, Workload& w) {
  if (!SeedOnDisk(o, w)) {
    std::fprintf(stderr, "perfbench: generating the on-disk files failed\n");
    return 1;
  }
  const double share = o.seconds / kSetups;
  std::vector<double> setupSeconds;
  std::vector<Slice> slices;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  for (int rep = 0; rep < kSetups; ++rep) {
    Setup s;
    std::string error;
    if (!BuildSetup(o, w, rep, false, &s, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setupSeconds.push_back(s.cpuSeconds);
    Window win;
    if (!RunWindow(s, w, share, SliceCount(share), &win)) {
      std::fprintf(stderr, "perfbench: the window did not drain\n");
      return 1;
    }
    std::printf("cluster %d: set-up %.4f s CPU, %.4f s wall; window %.3f s, %llu ops, %llu "
                "failed\n",
                rep, s.cpuSeconds, s.wallSeconds, win.Seconds(),
                static_cast<unsigned long long>(win.ok),
                static_cast<unsigned long long>(win.failed));
    RecordEnvironment(*s.cluster, win);
    failed += win.failed + CheckWindow(win, *s.cluster);
    ok += win.ok;
    slices.insert(slices.end(), win.slices.begin(), win.slices.end());
  }
  failed += CheckWorkload(w);

  const SliceMedians med = MediansOf(slices);
  // What a user sees, printed for the reader but not gated: on a shared
  // host these move with hypervisor steal (see README.md).
  std::printf("client view (not gated): ops_s %.1f  p50_us %.1f  p99_us %.1f\n",
              med.opsPerSecond, med.p50Us, med.p99Us);
  const std::vector<Metric> metrics = {
      {"cpu_us_per_op", med.cpuUsPerOp, "us"},
      {"setup_s", Median(setupSeconds), "s"},
  };
  PrintResult(failed == 0 && w.mismatches() == 0, ok + failed, failed, metrics);
  return failed == 0 ? 0 : 1;
}

int RunLayers(const Options& o, Workload& w) {
  if (!SeedOnDisk(o, w)) {
    std::fprintf(stderr, "perfbench: generating the on-disk files failed\n");
    return 1;
  }
  Setup s;
  std::string error;
  if (!BuildSetup(o, w, 0, true, &s, &error)) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("set-up: %.4f s CPU, %.4f s wall (decorated cluster, tracing off)\n",
              s.cpuSeconds, s.wallSeconds);
  Cluster& c = *s.cluster;

  // Untraced window: per-thread split, counters, environment.
  Window u;
  if (!RunWindow(s, w, o.seconds, SliceCount(o.seconds), &u)) {
    std::fprintf(stderr, "perfbench: the untraced window did not drain\n");
    return 1;
  }
  const SliceMedians view = MediansOf(u.slices);
  const Environment env = RecordEnvironment(c, u);
  const ThreadSplit split = SplitThreads(c, u);
  const std::uint64_t ops = u.ok;
  auto cpuUs = [&](const std::string& role) {
    std::uint64_t ns = 0;
    for (const auto& [r, v] : split.cpuNsByRole) {
      if (r.rfind(role, 0) == 0) ns += v;
    }
    return PerOp(Us(ns), ops);
  };
  auto delta = [&](std::uint64_t before, std::uint64_t after) {
    return PerOp(static_cast<double>(after - before), ops);
  };
  const auto lookups = u.b.cache.lookups - u.a.cache.lookups;
  const auto& pa = u.a.pcache;
  const auto& pb = u.b.pcache;
  const auto pLookups = (pb.hits + pb.misses) - (pa.hits + pa.misses);
  auto pRatio = [&](std::uint64_t before, std::uint64_t after) {
    return pLookups == 0 ? 0.0
                         : static_cast<double>(after - before) / static_cast<double>(pLookups);
  };

  // Traced window: same cluster, decorators recording.
  Tracer::Get().SetOn(true);
  Window t;
  // One second of spans holds >10^5 transits (enough for their p99) and
  // stays within the per-thread span cap at the fastest workload's rate.
  const double tracedSeconds = std::min(1.0, o.seconds);
  const bool drained = RunWindow(s, w, tracedSeconds, 1, &t);
  Tracer::Get().SetOn(false);
  if (!drained) {
    std::fprintf(stderr, "perfbench: the traced window did not drain\n");
    return 1;
  }
  std::vector<std::uint64_t> waits;
  std::vector<std::uint64_t> transits;
  std::vector<std::uint64_t> resolves;
  for (std::size_t i = 0; i < c.execs().size(); ++i) {
    auto& e = *c.execs()[i];
    auto& sink = *c.sinks()[i];
    auto [w8, tr, rs] = RunOn(*e.raw, [&e, &sink] {
      return std::make_tuple(std::move(e.traced->waits()), std::move(sink.transits()),
                             std::move(sink.resolves()));
    });
    if (e.role == split.busiestExecutor) waits = std::move(w8);
    transits.insert(transits.end(), tr.begin(), tr.end());
    resolves.insert(resolves.end(), rs.begin(), rs.end());
  }
  const auto captured = c.tracedFabric()->TakeCaptured();
  const std::uint64_t problems = CheckWindow(u, c) + CheckWindow(t, c) + CheckWorkload(w);
  const std::size_t filesTracked = pb.filesTracked;
  const double bytesPerEntry =
      u.b.cache.liveObjects == 0
          ? 0.0
          : static_cast<double>(u.b.cache.approxBytes) / static_cast<double>(u.b.cache.liveObjects);
  s.cluster.reset();  // joins every traced thread before its buffer is read

  const SpanSummary spans = SummarizeSpans();
  if (!o.traceOut.empty()) {
    if (Tracer::Get().WriteOut(o.traceOut)) {
      std::printf("spans: %llu written to %s (%llu dropped at the per-thread cap)\n",
                  static_cast<unsigned long long>(spans.spans), o.traceOut.c_str(),
                  static_cast<unsigned long long>(spans.dropped));
    } else {
      std::printf("  note: could not write spans to %s\n", o.traceOut.c_str());
    }
  }
  std::printf("self time per traced op by layer (%llu traced ops):\n",
              static_cast<unsigned long long>(t.ok));
  for (const auto& [layer, ns] : spans.selfNsByLayer) {
    std::printf("  %-8s %10.3f us\n", layer.c_str(), PerOp(Us(ns), t.ok));
  }
  auto self = [&](const char* layer) {
    const auto it = spans.selfNsByLayer.find(layer);
    return it == spans.selfNsByLayer.end() ? 0.0 : PerOp(Us(it->second), t.ok);
  };
  auto p50Of = [&](const std::string& prefix) {
    return PercentileUs(DurationsWithPrefix(spans, prefix), 0.5, prefix + " p50");
  };

  const Replay replay = ReplayLayers(w, captured);
  if (!replay.ok) std::printf("  failure: the socket-free replay disagreed with the run\n");
  const double tracedOps = t.OpsPerSecond();
  const double untracedOps = u.OpsPerSecond();

  std::vector<Metric> m = {
      {"client.ops_s", view.opsPerSecond, "1/s"},
      {"client.p50_us", view.p50Us, "us"},
      {"client.p99_us", view.p99Us, "us"},
      {"client.cpu_us_per_op", cpuUs("client"), "us"},
      {"client.redirects_per_op", delta(u.a.redirects, u.b.redirects), "count"},
      {"client.recoveries_per_op", delta(u.a.recoveries, u.b.recoveries), "count"},
      {"client.self_us_per_op", self("client"), "us"},
      {"net.reactor_cpu_us_per_op", cpuUs("reactor"), "us"},
      {"net.frames_per_op", delta(u.a.fabric.framesSent, u.b.fabric.framesSent), "count"},
      {"net.bytes_per_op", delta(u.a.fabric.bytesSent, u.b.fabric.bytesSent), "B"},
      {"net.queue_overflows", static_cast<double>(u.b.fabric.queueOverflows), "count"},
      {"net.reconnects", static_cast<double>(u.b.fabric.reconnects), "count"},
      {"net.send_us_p50", p50Of("net.send"), "us"},
      {"net.transit_us_p50", PercentileUs(transits, 0.5, "net.transit p50"), "us"},
      {"net.transit_us_p99", PercentileUs(transits, 0.99, "net.transit p99"), "us"},
      {"net.self_us_per_op", self("net"), "us"},
      {"proto.encode_ns_per_msg", replay.encodeNs, "ns"},
      {"proto.decode_ns_per_msg", replay.decodeNs, "ns"},
      {"sched.wait_us_p50", PercentileUs(waits, 0.5, "sched.wait p50"), "us"},
      {"sched.wait_us_p99", PercentileUs(waits, 0.99, "sched.wait p99"), "us"},
      {"sched.busiest_busy_pct", split.busiestPct, "%"},
      {"sched.self_us_per_op", self("sched"), "us"},
      {"xrd.manager_cpu_us_per_op", cpuUs("manager"), "us"},
      {"xrd.server_cpu_us_per_op", cpuUs("server"), "us"},
      {"xrd.manager_open_us_p50", p50Of("xrd.manager.XrdOpen"), "us"},
      {"xrd.server_handle_us_p50", p50Of("xrd.server."), "us"},
      {"xrd.self_us_per_op", self("xrd"), "us"},
      {"cms.cache_hit_ratio",
       lookups == 0 ? 0.0
                    : static_cast<double>(u.b.cache.hits - u.a.cache.hits) /
                          static_cast<double>(lookups),
       "ratio"},
      {"cms.queries_per_op", delta(u.a.resolver.queryMessages, u.b.resolver.queryMessages),
       "count"},
      {"cms.bytes_per_entry", bytesPerEntry, "B"},
      {"cms.lookup_ns", replay.cmsLookupNs, "ns"},
      {"cms.resolve_us_p50", PercentileUs(resolves, 0.5, "cms.resolve p50"), "us"},
      {"oss.calls_per_op", delta(u.a.ossCalls, u.b.ossCalls), "count"},
      {"oss.bytes_per_op", delta(u.a.ossBytes, u.b.ossBytes), "B"},
      {"oss.read_us_p50", p50Of("oss.read"), "us"},
      {"oss.write_us_p50", p50Of("oss.write"), "us"},
      {"oss.self_us_per_op", self("oss"), "us"},
      {"pcache.proxy_cpu_us_per_op", cpuUs("proxy"), "us"},
      {"pcache.dram_hit_ratio", pRatio(pa.dramHits, pb.dramHits), "ratio"},
      {"pcache.disk_hit_ratio", pRatio(pa.diskHits, pb.diskHits), "ratio"},
      {"pcache.origin_ratio", pRatio(pa.misses, pb.misses), "ratio"},
      {"pcache.spills_per_op", delta(pa.spills, pb.spills), "count"},
      {"pcache.promotions_per_op", delta(pa.promotions, pb.promotions), "count"},
      {"pcache.files_tracked", static_cast<double>(filesTracked), "count"},
      {"pcache.lookup_ns", replay.pcacheLookupNs, "ns"},
      {"pcache.self_us_per_op", self("pcache"), "us"},
      {"host.ctx_switches_per_op", delta(u.a.usage.ctxSwitches, u.b.usage.ctxSwitches),
       "count"},
      {"host.steal_pct", env.stealPct, "%"},
      {"host.idle_pct", env.idlePct, "%"},
      {"host.nproc", static_cast<double>(env.nproc), "count"},
      {"host.threads", static_cast<double>(env.threads), "count"},
      {"host.connections", static_cast<double>(env.connections), "count"},
      {"host.peak_rss_mb", static_cast<double>(ReadProcessUsage().maxRssKb) / 1024.0, "MiB"},
      {"trace.overhead_pct", untracedOps > 0 ? 100.0 * (untracedOps - tracedOps) / untracedOps
                                             : 0.0,
       "%"},
      {"trace.spans", static_cast<double>(spans.spans), "count"},
  };
  const std::uint64_t failed = u.failed + t.failed + problems + (replay.ok ? 0 : 1);
  PrintResult(failed == 0 && w.mismatches() == 0, u.ok + u.failed + t.ok + t.failed, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::unique_ptr<Workload> workload;
  if (ParseArgs(argc, argv, &o)) workload = Workload::Make(o.workload, o.seed);
  if (!workload) {
    std::fprintf(stderr,
                 "usage: scalla_perfbench --workload warm_open|cold_open|rw_mix|proxy_zipf "
                 "--seed N --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(o.workdir, ec);
  std::printf("workload %s seed %llu: %.1f s %s, 64 in flight, closed loop\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? "untraced + traced windows" : "window");
  const int rc = o.trace ? RunLayers(o, *workload) : RunEndToEnd(o, *workload);
  fs::remove_all(o.workdir, ec);
  return rc;
}
