// Two-tier proxy cache: a DRAM tier over a local-disk tier backed by any
// oss::Oss (LocalOss in the daemon, MemOss in simulation). The shape
// follows ScaleStore's DRAM-over-SSD buffer manager and XCache's
// disk-backed proxy, with workload-driven placement:
//
//   - Ghost-list admission (2Q/TinyLFU-style): a first-touch block goes to
//     the DISK tier and is remembered in the ghost FIFO; only a block that
//     proves reuse (it is still remembered, or it is on disk) earns a DRAM
//     slot. A sequential scan therefore flows through the disk tier
//     without evicting the DRAM-resident hot set.
//   - Spill-on-evict: DRAM watermark victims are written to disk instead
//     of being dropped, so DRAM eviction is a demotion, not data loss.
//   - Promote-on-disk-hit: a disk hit returns the bytes immediately and
//     promotes the block to DRAM.
//   - A block lives in at most ONE tier at a time, so a stale disk copy
//     can never shadow a newer DRAM write.
//
// One block table holds it all. Each (path, index) has exactly one owner
// record carrying its tier (DRAM, disk, or neither — a ghost), its pin
// count, its recency stamp, its size and, while in DRAM, its bytes. A tier
// move is a state change on that record under the one shard lock that
// guards it, so pins never leave the record and a purge is ordered
// against every move it races with. Records are sharded by path, so a
// path's purge, its lifecycle stats and its ghosts live in one shard.
// Recency lists (the DRAM LRU, the disk LRU and the ghost FIFO) are
// index-linked inside each shard's record arena, and one watermark sweep
// serves all three: each shard offers its oldest evictable record and the
// sweep takes the smallest stamp, so eviction order is globally LRU.
//
// Blocks are handed out, not copied. A record in DRAM (or spilling) owns
// its bytes as an immutable ref-counted `Block` (block_cache.h); a DRAM
// hit returns that Block, which costs one reference-count bump under the
// shard lock. A disk hit wraps the bytes it read in a Block once, and the
// promotion it queues installs that same Block. A Block never changes
// after it is built: a re-insert makes a new one, so a caller holding the
// old Block keeps reading the old bytes, and a purge, a spill, a disk
// eviction or the cache's destruction only drops the cache's reference.
// DRAM accounting counts the Blocks the cache owns. A Block that a pending
// read still holds after the cache let go of it lives outside that count;
// it is bounded by the reads in flight (each holds at most the blocks its
// range spans: 64 reads of one 64 KiB block in perfbench's proxy_zipf).
//
// With `asyncTierOps` set (the proxy's setting), spill and promotion are
// posted to the given executor and applied on a later turn, by a task
// holding a weak reference to the cache internals; a task whose record
// changed meanwhile (purged, re-inserted, touched again) drops itself.
// The proxy passes its own single-threaded executor, so tier ops are
// deferred off the lookup/insert that caused them, not run in parallel
// with it. With asyncTierOps=false they apply inline — the deterministic
// mode the tests and the benchmark replay use.
//
// Per-file lifecycle stats (first/last access, lookups, reuses, resident
// blocks per tier) feed `scalla_cli cachestat` and the Bellavita-style
// workload studies in the bench.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "oss/oss.h"
#include "pcache/block_cache.h"
#include "sched/executor.h"
#include "util/clock.h"
#include "util/result.h"

namespace scalla::pcache {

struct TieredCacheConfig {
  BlockCacheConfig dram;
  /// 0 disables the disk tier entirely (single-tier legacy behaviour:
  /// every insert goes straight to DRAM, evictions are data loss).
  std::uint64_t diskCapacityBytes = 0;
  double diskHighWatermark = 0.95;  // start evicting disk above this
  double diskLowWatermark = 0.80;   // evict disk down to this
  /// Ghost-list capacity in entries; 0 = auto (4x the DRAM block slots).
  std::size_t ghostEntries = 0;
  /// Run spill/promote on the executor (true) or inline (false).
  bool asyncTierOps = true;
};

/// Range/consistency checks for a tiered config, mirroring
/// net::ValidateFabricOptions: the config loader and the constructor agree
/// on what is legal, and bad directive files fail loudly.
Result<void> ValidateTieredConfig(const TieredCacheConfig& config);

enum class CacheTier : std::uint8_t { kNone = 0, kDram = 1, kDisk = 2 };

struct TieredCacheStats {
  // Combined lookup outcomes (either tier answering counts as a hit).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  // Per-tier detail.
  BlockCacheStats dram;            // the DRAM tier's own counters
  std::uint64_t dramHits = 0;      // lookups answered from DRAM
  std::uint64_t diskHits = 0;      // lookups answered from disk
  std::uint64_t diskUsedBytes = 0;
  std::uint64_t diskBlockCount = 0;
  std::uint64_t diskEvictions = 0;      // disk watermark victims (data loss)
  std::uint64_t diskWriteFailures = 0;  // spills/inserts the backend refused
  // Placement traffic.
  std::uint64_t admitsDram = 0;  // inserts that earned a DRAM slot
  std::uint64_t admitsDisk = 0;  // first-touch inserts routed to disk
  std::uint64_t spills = 0;      // DRAM victims demoted to disk
  std::uint64_t droppedSpills = 0;  // DRAM victims lost (changed in flight / failure)
  std::uint64_t promotions = 0;     // disk hits promoted to DRAM
  std::uint64_t ghostHits = 0;      // admissions proven by the ghost list
  std::uint64_t filesTracked = 0;   // lifecycle entries (files with a record)
  std::uint64_t pinnedBlocks = 0;   // resident blocks holding >= 1 pin
};

/// Lifecycle of one path through the cache (Bellavita et al.'s access
/// metadata: when it arrived, when it was last wanted, how often reuse
/// actually happened, and where its blocks live right now). The entry sits
/// beside the file's block records: it is created by the file's first
/// insert and dropped with its last record (resident or ghost), so a
/// lookup of an untracked path is not recorded and the table stays bounded
/// by the records the tiers and the ghost FIFO hold.
struct FileLifecycle {
  TimePoint firstAccess{};
  TimePoint lastAccess{};
  std::uint64_t lookups = 0;
  std::uint64_t reuses = 0;  // lookups answered by either tier
  std::uint64_t dramBlocks = 0;
  std::uint64_t diskBlocks = 0;
};

class TieredBlockCache {
 public:
  using Block = pcache::Block;

  struct LookupResult {
    Block data;                         // null on a miss
    CacheTier tier = CacheTier::kNone;  // which tier answered (kNone = miss)
  };

  /// `disk` must outlive the cache and is required when
  /// config.diskCapacityBytes > 0. `executor` runs async spill/promote
  /// (may be null when asyncTierOps=false). The config must pass
  /// ValidateTieredConfig.
  TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                   sched::Executor* executor, util::Clock& clock);
  ~TieredBlockCache();

  TieredBlockCache(const TieredBlockCache&) = delete;
  TieredBlockCache& operator=(const TieredBlockCache&) = delete;

  std::uint32_t BlockSize() const;
  bool DiskEnabled() const;

  /// DRAM, then disk. A DRAM hit returns the record's own Block; a disk
  /// hit returns the bytes it read as a new Block and schedules (or
  /// applies) promotion of that Block to DRAM. Both outcomes count toward
  /// stats.
  LookupResult LookupDetailed(const std::string& path, std::uint64_t index);
  /// LookupDetailed as a copy of the bytes (tests and tools).
  std::optional<std::string> Lookup(const std::string& path, std::uint64_t index);

  /// Recency- and stats-neutral presence probe across both tiers.
  bool Contains(const std::string& path, std::uint64_t index) const;

  /// Admission-controlled store: DRAM if the block is already DRAM-resident
  /// or proves reuse via the ghost list, else the disk tier. With the disk
  /// tier disabled, every insert replaces or adds a DRAM block. A DRAM
  /// admission keeps `data` itself, so later hits share it.
  void Insert(const std::string& path, std::uint64_t index, Block data,
              bool pinned = false);
  /// Moves `data` into a new Block and inserts that.
  void Insert(const std::string& path, std::uint64_t index, std::string data,
              bool pinned = false);

  /// Pins the block in whichever tier holds it (pinned blocks are never
  /// evicted, spilled, or purged; a promotion keeps the pins). Returns
  /// false on miss.
  bool Pin(const std::string& path, std::uint64_t index);
  void Unpin(const std::string& path, std::uint64_t index);

  /// Drops every unpinned block of `path` from BOTH tiers (and the ghost
  /// FIFO); in-flight spill/promote tasks for them find no record and drop
  /// themselves.
  std::uint64_t Purge(const std::string& path);
  std::uint64_t PurgeAll();

  /// Combined view (the single-tier cache's stats):
  /// hits/misses are tier-agnostic lookup outcomes, usedBytes/blockCount
  /// span both tiers, evictions counts true data loss only (a spill to
  /// disk is a demotion, not an eviction).
  BlockCacheStats GetStats() const;
  TieredCacheStats GetTieredStats() const;
  std::uint64_t UsedBytes() const;

  std::optional<FileLifecycle> FileStats(const std::string& path) const;

  /// With the disk tier off, DRAM watermark victims are handed to `sink`
  /// (key and bytes, oldest first) instead of being dropped. The sink runs
  /// outside every shard lock but under the sweep lock, so calls never
  /// overlap. Set once, before the cache sees concurrent traffic.
  void SetEvictionSink(std::function<void(EvictedBlock)> sink);

  /// Spill/promote tasks posted but not yet executed (0 at quiescence;
  /// tests drain on this before asserting exact occupancy).
  std::size_t PendingTierOps() const;

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace scalla::pcache
