// Shared proxy-cache types (block geometry, keys, stats) and SingleFlight.
// The cache itself is pcache::TieredBlockCache (tiered_cache.h): one block
// table whose DRAM tier, with the disk tier off, is the plain strict-LRU
// block cache with high/low watermark eviction and pinning.
//
// A cached block travels as a `Block`: an immutable, ref-counted buffer.
// The cache, SingleFlight waiters and pending proxy reads share one copy
// of the bytes; a reader copies out only the segment it needs (the
// djbdns cache_get idiom: a hit hands out a reference into the cache's
// own storage, not a copy of it).
//
// SingleFlight coalesces concurrent misses on the same block: the first
// requester becomes the fetch owner, later requesters queue behind it and
// share the one origin fetch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "proto/messages.h"

namespace scalla::pcache {

struct BlockCacheConfig {
  std::uint32_t blockSize = 64 * 1024;       // bytes per cache block
  std::uint64_t capacityBytes = 64 * 1024 * 1024;
  double highWatermark = 0.95;               // start evicting above this
  double lowWatermark = 0.80;                // evict down to this
};

/// The bytes of one cached block. Never mutated once built: a re-insert of
/// the same (path, index) makes a new Block, and a holder of the old one
/// keeps seeing the old bytes.
using Block = std::shared_ptr<const std::string>;

inline Block MakeBlock(std::string data) {
  return std::make_shared<const std::string>(std::move(data));
}

/// Identifies one cached block of one file.
struct BlockKey {
  std::string path;
  std::uint64_t index = 0;

  bool operator==(const BlockKey&) const = default;
};

struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t usedBytes = 0;
  std::uint64_t blockCount = 0;
};

/// One block dropped by the DRAM watermark sweep with the disk tier off,
/// handed to TieredBlockCache's eviction sink.
struct EvictedBlock {
  BlockKey key;
  std::string data;
  int pins = 0;  // always 0: pinned blocks are never evicted
};

/// Deduplicates concurrent fetches of the same block. The first Begin()
/// for a key returns true (the caller owns the origin fetch); later calls
/// enqueue their waiter and return false. Complete() delivers the outcome
/// to every queued waiter, all sharing the one Block.
class SingleFlight {
 public:
  /// `data` is null when the fetch failed.
  using Waiter = std::function<void(proto::XrdErr, const Block& data)>;

  /// Registers interest in (path, index). Returns true if the caller is
  /// now the fetch owner; false if a fetch is already in flight (the
  /// waiter fires on its completion).
  bool Begin(const std::string& path, std::uint64_t index, Waiter waiter);

  /// Owner-only variant for read-ahead: claims the key if nobody holds it,
  /// without queueing a waiter. Returns false if a fetch is in flight.
  bool TryOwn(const std::string& path, std::uint64_t index);

  /// Resolves the key, invoking all queued waiters (outside the lock).
  void Complete(const std::string& path, std::uint64_t index, proto::XrdErr err,
                const Block& data);

  /// How many Begin() calls piggybacked on an existing fetch.
  std::uint64_t Coalesced() const { return coalesced_.load(std::memory_order_relaxed); }

  /// Fetches currently in flight.
  std::size_t InFlight() const;

 private:
  static std::string Key(const std::string& path, std::uint64_t index);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<Waiter>> inflight_;
  std::atomic<std::uint64_t> coalesced_{0};
};

}  // namespace scalla::pcache
