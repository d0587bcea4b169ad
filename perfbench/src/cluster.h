// An in-process Scalla cluster on loopback TcpFabric with real
// ThreadExecutors and the shipped FabricOptions defaults: one manager, two
// servers, an optional pcache proxy, and one ScallaClient on its own
// executor. With `traced` set, every executor, sink, the fabric and every
// store the nodes see is wrapped in the bench's tracing decorators.
#pragma once

#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "client/scalla_client.h"
#include "net/tcp_fabric.h"
#include "oss/oss.h"
#include "pcache/proxy_node.h"
#include "sched/thread_executor.h"
#include "trace.h"
#include "workloads.h"
#include "xrd/scalla_node.h"

namespace perfbench {

inline constexpr scalla::net::NodeAddr kManagerAddr = 1;
inline constexpr scalla::net::NodeAddr kServerAddr0 = 11;
inline constexpr scalla::net::NodeAddr kProxyAddr = 20;
inline constexpr scalla::net::NodeAddr kClientAddr = 100;
inline constexpr int kServers = 2;
/// The proxy's tiers: 16 MiB of DRAM over a 128 MiB disk tier.
inline constexpr std::uint64_t kProxyDramBytes = 16ULL << 20;
inline constexpr std::uint64_t kProxyDiskBytes = 128ULL << 20;

/// Runs `fn` on `exec` and waits for its result. Aborts the process if the
/// executor does not answer within 30 s (a wedged node cannot be measured).
template <typename F>
auto RunOn(scalla::sched::Executor& exec, F fn) -> decltype(fn()) {
  std::packaged_task<decltype(fn())()> task(std::move(fn));
  auto result = task.get_future();
  exec.Post([&task] { task(); });
  if (result.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    std::fprintf(stderr, "perfbench: executor did not answer within 30 s\n");
    std::_Exit(3);
  }
  return result.get();
}

class Cluster {
 public:
  /// One node's dispatch thread, and its tracing wrapper when traced.
  struct Exec {
    std::string role;
    std::unique_ptr<scalla::sched::ThreadExecutor> raw;
    std::unique_ptr<TracedExecutor> traced;
    int tid = 0;
    scalla::sched::Executor& use() {
      return traced ? static_cast<scalla::sched::Executor&>(*traced) : *raw;
    }
  };

  /// On-disk server stores live under `dataDir`/server<i>, shared by
  /// every cluster of the process.
  Cluster(const Workload& workload, std::uint16_t basePort, bool traced,
          const std::filesystem::path& dataDir);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Seeds in-memory stores, registers every endpoint (manager first), starts
  /// the nodes and waits for both logins. Returns false with `error` set.
  bool Start(Workload& workload, std::string* error);

  Target target();

  scalla::net::TcpFabric& tcp() { return *tcp_; }
  Exec& managerExec() { return *execs_[0]; }
  Exec* proxyExec() { return execs_.size() > 2 + kServers ? execs_[1 + kServers].get() : nullptr; }
  Exec& clientExec() { return *execs_.back(); }
  std::vector<std::unique_ptr<Exec>>& execs() { return execs_; }
  scalla::xrd::ScallaNode& manager() { return *manager_; }
  scalla::pcache::ProxyCacheNode* proxy() { return proxy_.get(); }
  TracedFabric* tracedFabric() { return tfab_.get(); }
  std::vector<std::unique_ptr<TracedSink>>& sinks() { return sinks_; }
  /// Calls and bytes through every decorated store (traced clusters only).
  std::uint64_t OssCalls() const;
  std::uint64_t OssBytes() const;

 private:
  scalla::net::Fabric& fabric();
  scalla::net::MessageSink* Wrap(scalla::net::MessageSink* sink, scalla::net::NodeAddr addr,
                                 const std::string& role);
  scalla::oss::Oss* WrapStore(scalla::oss::Oss* store);
  bool Register(scalla::net::NodeAddr addr, scalla::net::MessageSink* sink, Exec& exec,
                std::string* error);

  bool traced_;
  std::unique_ptr<scalla::net::TcpFabric> tcp_;
  TransitBook book_;
  std::unique_ptr<TracedFabric> tfab_;
  std::vector<std::unique_ptr<Exec>> execs_;  // manager, servers, [proxy], client
  std::vector<std::unique_ptr<scalla::oss::Oss>> stores_;  // servers, then proxy disk
  std::vector<std::unique_ptr<TracedOss>> tstores_;
  std::unique_ptr<scalla::xrd::ScallaNode> manager_;
  std::vector<std::unique_ptr<scalla::xrd::ScallaNode>> servers_;
  std::unique_ptr<scalla::pcache::ProxyCacheNode> proxy_;
  std::unique_ptr<scalla::client::ScallaClient> client_;
  std::vector<std::unique_ptr<TracedSink>> sinks_;
  std::vector<scalla::net::NodeAddr> registered_;
};

}  // namespace perfbench
