// The four closed-loop workloads. Each one owns its generated inputs
// (paths, placement and byte patterns, all derived from the seed), seeds
// the cluster's stores, and issues one operation at a time on the client
// executor; the engine keeps 64 of them in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "net/fabric.h"
#include "oss/oss.h"
#include "sched/executor.h"
#include "util/rng.h"

namespace perfbench {

/// Completion of one operation: ok, or the reason it failed.
using Done = std::function<void(bool ok, const char* why)>;

/// Every file's bytes are a function of (path, offset): 8-byte words
/// seed(path) + wordIndex * K. Writes rewrite the same pattern, so any
/// read of stale, torn or misplaced bytes fails the check.
std::uint64_t PatternSeed(const std::string& path);
void FillPattern(std::uint64_t seed, std::uint64_t offset, char* out, std::size_t len);
bool CheckPattern(std::uint64_t seed, std::uint64_t offset, std::string_view data);

/// What a workload needs from the cluster: where its files live and the
/// client that drives it.
struct Target {
  scalla::client::ScallaClient* client = nullptr;
  scalla::sched::Executor* clientExec = nullptr;
  /// Raw (undecorated) server stores, for seeding before start.
  std::vector<scalla::oss::Oss*> stores;
  std::vector<scalla::net::NodeAddr> serverAddrs;
  /// The node an open must land on for a file on server i; the proxy
  /// address when a proxy fronts the cluster.
  scalla::net::NodeAddr proxyAddr = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// The workload called `name` (warm_open, cold_open, rw_mix or
  /// proxy_zipf) with inputs generated from `seed`; null for another name.
  static std::unique_ptr<Workload> Make(const std::string& name, std::uint64_t seed);

  virtual bool UsesLocalOss() const { return false; }
  virtual bool UsesProxy() const { return false; }

  /// Builds server `server`'s store: an in-memory one by default, a
  /// LocalOss under `dataDir` for the on-disk workloads.
  virtual std::unique_ptr<scalla::oss::Oss> MakeStore(int server,
                                                      const std::filesystem::path& dataDir) const;

  /// Writes the files into the stores (main thread, before the cluster
  /// starts). In-memory stores are seeded per cluster; on-disk
  /// (UsesLocalOss) files are generated once per process and every
  /// cluster's servers reuse them (writes rewrite the same bytes).
  virtual bool Seed(const Target& target) = 0;
  /// Operations the set-up phase issues through the same window.
  virtual std::uint64_t WarmupOps() const = 0;
  /// Resets per-cluster state (the op stream restarts for a new cluster).
  virtual void Attach(const Target& target);

  /// Issues one operation; runs on the client executor and never calls
  /// `done` synchronously.
  virtual void Issue(bool warmup, Done done) = 0;

  /// The run's own streams, for the socket-free layer replay: every
  /// generated name and the (name, block) key of each timed operation.
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>>& opLog() const { return opLog_; }

  std::uint64_t redirects() const { return redirects_.load(std::memory_order_relaxed); }
  std::uint64_t recoveries() const { return recoveries_.load(std::memory_order_relaxed); }
  std::uint64_t mismatches() const { return mismatches_.load(std::memory_order_relaxed); }
  /// A consumed supply ran out (cold names): the run failed.
  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

 protected:
  static constexpr std::size_t kMaxOpLog = 1 << 18;  // operations kept for the replay

  void Fail(Done done, const char* why);
  void Log(std::uint32_t name, std::uint32_t block);
  /// open(mode) -> `body` with the file -> close -> done. Checks that the
  /// open landed on `expectNode` (0 = do not check).
  void OpenBodyClose(std::uint32_t name, scalla::cms::AccessMode mode,
                     scalla::net::NodeAddr expectNode,
                     std::function<void(const scalla::client::FileRef&, Done)> body, Done done);

  Target target_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> seeds_;     // PatternSeed(names_[i])
  std::vector<std::uint8_t> owner_;      // server index holding names_[i]
  std::vector<std::pair<std::uint32_t, std::uint32_t>> opLog_;
  std::atomic<std::uint64_t> redirects_{0};
  std::atomic<std::uint64_t> recoveries_{0};
  std::atomic<std::uint64_t> mismatches_{0};
  std::atomic<bool> exhausted_{false};
};

}  // namespace perfbench
