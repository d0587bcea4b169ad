// Federation tier: the meta-manager that clusters the clusters.
//
// The paper's 64-ary B-tree composes: the same subscribe / locate /
// redirect machinery that lets a manager front 64 servers lets a
// meta-manager front 64 *clusters*. The meta is an xrd::Redirector
// configured for cluster children — the same membership, name cache,
// response queue, resolver, heartbeat and StatsQuery fold a cluster head
// runs, with ServerSet correction vectors keyed by cluster ID instead of
// server slot, FedQuery as its flood frame (owner heads answer FedHave;
// request-rarely-respond lifted one level) and fed.* counter names. A
// client is redirected to the owning cluster's head, which resolves to a
// data server as today.
//
// What the meta adds is only its federation edges:
//   - FedSubscribe: cluster heads join exactly as servers log into a
//     manager, each with a locality weight;
//   - FedHave / FedGone digests from heads, and FedLocate, the explicit
//     "which cluster owns <path>?" query;
//   - the locality weight itself: a cluster's load bias is
//     locality * kLocalityScale, added to its heads' piggybacked load, so a
//     load-based selection prefers near clusters when several hold a file.
// A pcache proxy whose origin head is the meta acts as a federation edge
// cache with no new proxy code (its embedded client follows the two-hop
// redirect walk like any other client).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sched/executor.h"
#include "xrd/redirector.h"

namespace scalla::fed {

struct MetaConfig {
  std::string name = "meta";
  net::NodeAddr addr = 0;
  cms::CmsConfig cms;
  // kLoad makes locality weights effective: a cluster's reported load is
  // locality * kLocalityScale + its heads' piggybacked load, so nearer
  // clusters win ties. Round-robin ignores locality (still correct).
  cms::SelectCriterion selection = cms::SelectCriterion::kLoad;
  bool startTimers = true;
  Duration statsTimeout = std::chrono::seconds(2);
};

class MetaManager : public net::MessageSink {
 public:
  /// Load units one locality step is worth; keeps locality dominant over
  /// the (small) head load numbers without saturating the u32.
  static constexpr std::uint32_t kLocalityScale = 1000;

  MetaManager(MetaConfig config, sched::Executor& executor, net::Fabric& fabric);
  ~MetaManager() override;

  MetaManager(const MetaManager&) = delete;
  MetaManager& operator=(const MetaManager&) = delete;

  /// Starts maintenance timers (window tick, sweep, drop scan, heartbeat).
  void Start();
  void Stop();

  // net::MessageSink
  void OnMessage(net::NodeAddr from, proto::Message message) override;
  void OnPeerDown(net::NodeAddr peer) override;

  // ---- introspection (tests / benches / tools) ----
  const MetaConfig& config() const { return config_; }
  cms::Membership& membership() { return redirector_.membership(); }
  cms::LocationCache& cache() { return redirector_.cache(); }
  cms::Resolver& resolver() { return redirector_.resolver(); }
  net::NodeAddr HeadOfCluster(ServerSlot clusterId) const {
    return redirector_.AddrOfSlot(clusterId);
  }
  std::optional<ServerSlot> ClusterOfHead(net::NodeAddr addr) const {
    return redirector_.SlotOfAddr(addr);
  }

  obs::MetricsRegistry& metrics() { return metrics_; }
  /// Local metrics under fed.* plus the cms component stats — the same
  /// canonical dotted names as a ScallaNode, so federation-level
  /// StatsQuery merges compose with cluster aggregates.
  obs::MetricsSnapshot SnapshotMetrics() const;

 private:
  void HandleSubscribe(net::NodeAddr from, const proto::FedSubscribe& m);
  void HandleLocate(net::NodeAddr from, const proto::FedLocate& m);

  MetaConfig config_;
  net::Fabric& fabric_;

  obs::MetricsRegistry metrics_;
  struct FedMetrics {
    obs::Counter& subscribes;       // FedSubscribe frames admitted
    obs::Counter& locates;          // client-visible resolutions served
    obs::Counter& notFound;         // global-namespace misses
    obs::Counter& clusterDeaths;    // heartbeat death declarations
    explicit FedMetrics(obs::MetricsRegistry& r);
  };
  FedMetrics fm_;
  // Registers fed.redirects_issued, fed.waits_issued, fed.pings_sent,
  // fed.pongs_received and fed.stats_queries.
  xrd::Redirector redirector_;
  bool started_ = false;
};

}  // namespace scalla::fed
