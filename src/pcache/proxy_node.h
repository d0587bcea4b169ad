// ProxyCacheNode: an XCache-style caching proxy in front of a Scalla
// cluster. To clients it speaks the ordinary xrd protocol (open / read /
// readv / stat / close) at a single fabric address; internally it serves
// reads from a block cache and resolves misses through an embedded
// ScallaClient, which brings the full redirect / wait-retry / refresh
// recovery machinery along for free — a staging (MSS) origin file just
// looks like a slow first fetch.
//
// Properties the tests pin down:
//   - a warm hit never touches the cluster (no resolver traffic, no origin
//     fetch): the proxy answers from its own block cache and session table;
//   - concurrent misses on one block coalesce into exactly one origin
//     fetch (SingleFlight);
//   - the cache evicts oldest-first between the high and low watermarks;
//   - sequential demand fetches trigger read-ahead of the next N blocks.
//
// The proxy is read-only: writes and creates are refused with kInvalid
// (production proxy caches front read-mostly analysis traffic; write-through
// is future work, see docs/PCACHE.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/scalla_client.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "pcache/block_cache.h"
#include "pcache/tiered_cache.h"
#include "sched/executor.h"

namespace scalla::pcache {

struct ProxyCacheConfig {
  net::NodeAddr addr = 0;            // the proxy's fabric address
  std::string name = "proxy";
  /// Origin-side client config. `origin.addr` is overwritten with `addr`
  /// (the proxy and its embedded client share one fabric address; request
  /// and response message types are disjoint, so routing is unambiguous).
  client::ClientConfig origin;
  BlockCacheConfig cache;            // the DRAM tier
  /// Disk tier (0 disables): DRAM victims spill here, disk hits promote
  /// back, and first-touch blocks land here until the ghost list proves
  /// reuse. Requires `diskOss`.
  std::uint64_t diskCapacityBytes = 0;
  double diskHighWatermark = 0.95;
  double diskLowWatermark = 0.80;
  std::size_t ghostEntries = 0;      // 0 = auto (4x DRAM block slots)
  /// Backing store for the disk tier (LocalOss in the daemon, MemOss in
  /// simulation). Non-owning; must outlive the proxy.
  oss::Oss* diskOss = nullptr;
  int readAhead = 0;                 // blocks prefetched past a demand miss
  Duration statsTimeout = std::chrono::seconds(2);  // origin QueryStats wait
};

class ProxyCacheNode : public net::MessageSink {
 public:
  ProxyCacheNode(const ProxyCacheConfig& config, sched::Executor& executor,
                 net::Fabric& fabric);

  // net::MessageSink
  void OnMessage(net::NodeAddr from, proto::Message message) override;
  void OnPeerDown(net::NodeAddr peer) override;

  const ProxyCacheConfig& config() const { return config_; }
  TieredBlockCache& cache() { return cache_; }
  SingleFlight& singleFlight() { return singleFlight_; }
  client::ScallaClient& origin() { return origin_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Registry instruments plus cache/coalescing stats under pcache.* names
  /// and the embedded origin client's client.* instruments; answers the
  /// cluster stats protocol with this merged view.
  obs::MetricsSnapshot SnapshotMetrics() const;

 private:
  static constexpr std::uint64_t kUnknownSize = ~std::uint64_t{0};

  /// Per-path origin state, shared by every client handle on that path.
  /// Sessions outlive client closes: the origin handle and learned size
  /// are the proxy's metadata cache, which is what lets a warm open or
  /// read complete without any cluster traffic.
  struct FileSession {
    bool validated = false;   // an origin open has ever succeeded
    bool originOpen = false;  // origin handle currently usable
    bool opening = false;     // origin open in flight
    client::FileRef origin;
    std::uint64_t knownSize = kUnknownSize;
    int refs = 0;             // live client handles on this path
    // Continuations parked on origin-open completion: client open replies
    // and deferred block fetches.
    std::vector<std::function<void(proto::XrdErr)>> awaitingOrigin;
  };

  /// One client read (or one readv segment) being assembled from blocks.
  /// It holds references to the blocks it spans, shared with the cache and
  /// with other reads; only the requested bytes are copied, into the reply.
  struct PendingRange {
    std::string path;
    std::uint64_t offset = 0;
    std::uint64_t end = 0;          // clamped exclusive end
    std::uint64_t firstBlock = 0;
    std::vector<Block> blocks;
    int outstanding = 0;
    proto::XrdErr err = proto::XrdErr::kNone;
    std::function<void(proto::XrdErr, std::string)> done;
  };

  // request handlers (client -> proxy)
  void HandleOpen(net::NodeAddr from, const proto::XrdOpen& m);
  void HandleRead(net::NodeAddr from, const proto::XrdRead& m);
  void HandleReadV(net::NodeAddr from, const proto::XrdReadV& m);
  void HandleClose(net::NodeAddr from, const proto::XrdClose& m);
  void HandleStat(net::NodeAddr from, const proto::XrdStat& m);
  void HandleUnlink(net::NodeAddr from, const proto::XrdUnlink& m);
  void HandleChecksum(net::NodeAddr from, const proto::XrdChecksum& m);
  void HandlePrepare(net::NodeAddr from, const proto::XrdPrepare& m);
  void HandleStatsQuery(net::NodeAddr from, const proto::StatsQuery& m);
  void HandlePcacheAdmin(net::NodeAddr from, const proto::PcacheAdmin& m);

  // origin-side plumbing
  void EnsureOriginOpen(const std::string& path);
  void OnOriginOpen(const std::string& path, const client::OpenOutcome& outcome);
  /// Runs (and clears) a session's parked continuations, then drops the
  /// session if the origin open failed and nothing references it anymore.
  void FlushAwaiting(const std::string& path, proto::XrdErr err);
  /// Resolves [offset, offset+length) through cache + origin; `done` gets
  /// the assembled bytes (possibly short at EOF).
  void GatherRange(const std::string& path, std::uint64_t offset, std::uint32_t length,
                   std::function<void(proto::XrdErr, std::string)> done);
  void OnBlockReady(std::uint64_t rangeId, std::uint64_t blockIdx, proto::XrdErr err,
                    const Block& data);
  void FinishRange(std::uint64_t rangeId);
  /// Fetch owner path: issues (or defers until origin-open) the one origin
  /// read for a block. demand=false marks read-ahead (no further cascade).
  void StartFetch(const std::string& path, std::uint64_t index, bool demand);
  void DoFetch(const std::string& path, std::uint64_t index, bool demand);
  void OnFetchDone(const std::string& path, std::uint64_t index, bool demand,
                   proto::XrdErr err, std::string data);
  void StartReadAhead(const std::string& path, std::uint64_t fromIndex);
  void LearnSize(const std::string& path, std::uint64_t size);

  ProxyCacheConfig config_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  TieredBlockCache cache_;
  SingleFlight singleFlight_;
  client::ScallaClient origin_;

  std::unordered_map<std::string, FileSession> sessions_;
  std::unordered_map<std::uint64_t, std::string> handles_;  // client handle -> path
  std::uint64_t nextHandle_ = 1;
  std::unordered_map<std::uint64_t, PendingRange> ranges_;
  std::uint64_t nextRangeId_ = 1;

  // Registry first: references below point into it.
  obs::MetricsRegistry metrics_;
  obs::Counter& opensLocal_;      // pcache.opens_local — warm opens, no cluster traffic
  obs::Counter& originOpens_;     // pcache.origin_opens — resolver round trips
  obs::Counter& originFetches_;   // pcache.origin_fetches — block reads at origin
  obs::Counter& bytesFromCache_;  // pcache.bytes_from_cache (either tier)
  obs::Counter& bytesFromDisk_;   // pcache.bytes_from_disk (disk-tier share)
  obs::Counter& bytesFromOrigin_; // pcache.bytes_from_origin
  obs::Counter& readAheads_;      // pcache.readaheads — prefetches issued
  obs::Counter& readsLocal_;      // pcache.reads_local — client reads served
  obs::Counter& readsWithMiss_;   // pcache.reads_with_miss — reads that touched origin
  obs::Histogram& readLatency_;   // pcache.read_latency
};

}  // namespace scalla::pcache
