#include "pcache/tiered_cache.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scalla::pcache {

namespace {

/// Name of one block in the disk-tier oss namespace. The record is
/// authoritative for the block's size: a rewrite that shrinks a block
/// leaves stale tail bytes in the backing file, and bounding reads by the
/// recorded size keeps them invisible.
std::string DiskBlockPath(const std::string& path, std::uint64_t index) {
  return path + "#b" + std::to_string(index);
}

bool BadWatermarks(double low, double high) {
  return low <= 0 || low > high || high > 1.0;
}

/// Shards of the block table. Records are sharded by path, so a file's
/// records, ghosts and lifecycle entry share one shard and one lock.
constexpr std::size_t kShards = 8;
constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();

/// Where a record's block is. kDram, kDisk and kGhost also index the
/// per-shard recency lists and the per-tier gauges. A kGhost record holds
/// no bytes in either tier. A kSpilling record was evicted from DRAM and
/// keeps its bytes until its disk write (a tier op) lands.
enum Tier : std::uint8_t { kDram = 0, kDisk = 1, kGhost = 2, kSpilling = 3 };

enum Counter : std::uint8_t {
  kDramHits, kDiskHits, kMisses, kInserts, kDramInserts, kDramEvictions,
  kDiskEvictions, kDiskWriteFailures, kAdmitsDram, kAdmitsDisk, kSpills,
  kDroppedSpills, kPromotions, kGhostHits, kCounters
};

}  // namespace

Result<void> ValidateTieredConfig(const TieredCacheConfig& config) {
  if (config.dram.blockSize == 0) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache.blocksize must be positive");
  }
  if (config.dram.capacityBytes == 0) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache.capacity must be positive");
  }
  if (BadWatermarks(config.dram.lowWatermark, config.dram.highWatermark)) {
    return Result<void>::Err(proto::XrdErr::kInvalid,
                             "pcache watermarks need 0 < lowater <= hiwater <= 1");
  }
  if (config.diskCapacityBytes > 0) {
    if (config.diskCapacityBytes < config.dram.blockSize) {
      return Result<void>::Err(proto::XrdErr::kInvalid,
                               "pcache.disk.capacity must hold at least one block");
    }
    if (BadWatermarks(config.diskLowWatermark, config.diskHighWatermark)) {
      return Result<void>::Err(
          proto::XrdErr::kInvalid,
          "pcache disk watermarks need 0 < lowater <= hiwater <= 1");
    }
  }
  return Result<void>::Ok();
}

// ---------------------------------------------------------------- Impl

/// All mutable state lives here behind a shared_ptr: async spill/promote
/// tasks capture a weak reference, so a task that fires after the cache is
/// destroyed locks nothing and drops itself (no blocking destructor — a
/// sim executor may never run the task at all).
struct TieredBlockCache::Impl : std::enable_shared_from_this<TieredBlockCache::Impl> {
  struct FileEntry {
    FileLifecycle life;
    std::unordered_map<std::uint64_t, std::uint32_t> blocks;  // index -> slot
  };
  using FileMap = std::unordered_map<std::string, FileEntry>;

  /// The owner record of one (path, index). Links and stamps come in two
  /// sets: [0] threads the DRAM or disk LRU (and the free list), [1] the
  /// ghost FIFO. Ghost membership is a flag beside the tier, not a tier of
  /// its own, because admission remembers a first-touch block while it is
  /// also on disk.
  struct Record {
    Block data;  // the bytes, while kDram or kSpilling
    FileMap::value_type* file = nullptr;  // map nodes never move
    std::uint64_t index = 0;
    std::uint64_t size = 0;
    std::uint64_t stamp[2] = {0, 0};  // list order; unique, larger = fresher
    std::uint64_t moved = 0;  // stamp of the last tier move; tier ops check it
    std::uint32_t prev[2] = {kNil, kNil};
    std::uint32_t next[2] = {kNil, kNil};
    int pins = 0;
    Tier where = kGhost;
    bool ghosted = false;
  };

  struct Shard {
    std::mutex mu;
    FileMap files;
    std::vector<Record> arena;
    std::uint32_t freeHead = kNil;
    std::uint32_t head[3] = {kNil, kNil, kNil};  // oldest, per Tier list
    std::uint32_t tail[3] = {kNil, kNil, kNil};

    void PushBack(Tier list, std::uint32_t i, std::uint64_t stamp) {
      const int k = list == kGhost;
      Record& r = arena[i];
      r.stamp[k] = stamp;
      r.prev[k] = tail[list];
      r.next[k] = kNil;
      (tail[list] == kNil ? head[list] : arena[tail[list]].next[k]) = i;
      tail[list] = i;
    }

    void Unlink(Tier list, std::uint32_t i) {
      const int k = list == kGhost;
      const Record& r = arena[i];
      (r.prev[k] == kNil ? head[list] : arena[r.prev[k]].next[k]) = r.next[k];
      (r.next[k] == kNil ? tail[list] : arena[r.next[k]].prev[k]) = r.prev[k];
    }

    std::uint32_t Find(const std::string& path, std::uint64_t index) const {
      const auto f = files.find(path);
      if (f == files.end()) return kNil;
      const auto b = f->second.blocks.find(index);
      return b == f->second.blocks.end() ? kNil : b->second;
    }
  };

  Impl(const TieredCacheConfig& cfg, oss::Oss* diskOss, sched::Executor* ex,
       util::Clock& clk)
      : config(cfg), disk(diskOss), executor(ex), clock(&clk) {
    asyncMode = config.asyncTierOps && executor != nullptr && DiskEnabled();
    const auto mark = [](double fraction, std::uint64_t capacity) {
      return static_cast<std::uint64_t>(fraction * static_cast<double>(capacity));
    };
    high[kDram] = mark(cfg.dram.highWatermark, cfg.dram.capacityBytes);
    low[kDram] = mark(cfg.dram.lowWatermark, cfg.dram.capacityBytes);
    high[kDisk] = mark(cfg.diskHighWatermark, cfg.diskCapacityBytes);
    low[kDisk] = mark(cfg.diskLowWatermark, cfg.diskCapacityBytes);
    const std::size_t dramSlots = static_cast<std::size_t>(
        cfg.dram.capacityBytes / std::max<std::uint32_t>(cfg.dram.blockSize, 1) + 1);
    high[kGhost] = low[kGhost] = cfg.ghostEntries != 0 ? cfg.ghostEntries : 4 * dramSlots;
  }

  bool DiskEnabled() const { return config.diskCapacityBytes > 0 && disk != nullptr; }
  Shard& ShardOf(const std::string& path) {
    return shards[std::hash<std::string>{}(path) % kShards];
  }
  void Count(Counter c) { counters[c].fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t Get(Counter c) const { return counters[c].load(std::memory_order_relaxed); }
  std::uint64_t NextStamp() { return nextStamp.fetch_add(1, std::memory_order_relaxed); }
  bool Over(Tier t) const { return used[t].load(std::memory_order_relaxed) > high[t]; }

  // ---- records (every helper below requires the shard lock) ---------

  /// The slot of (path, index), creating a bare record (and the file's
  /// lifecycle entry) if absent. Only inserts create records.
  std::uint32_t RecordFor(Shard& s, const std::string& path, std::uint64_t index) {
    const auto [f, newFile] = s.files.try_emplace(path);
    const TimePoint now = clock->Now();
    if (newFile) {
      files.fetch_add(1, std::memory_order_relaxed);
      f->second.life.firstAccess = now;
    }
    f->second.life.lastAccess = now;
    const auto [b, newBlock] = f->second.blocks.try_emplace(index, s.freeHead);
    if (!newBlock) return b->second;
    if (b->second == kNil) {
      b->second = static_cast<std::uint32_t>(s.arena.size());
      s.arena.emplace_back();
    } else {
      s.freeHead = s.arena[b->second].next[0];
    }
    Record& r = s.arena[b->second];
    r.next[0] = kNil;
    r.file = &*f;
    r.index = index;
    return b->second;
  }

  /// Frees a record that no tier, ghost FIFO or queued spill holds, and
  /// the file's lifecycle entry with its last record.
  void ReleaseIfIdle(Shard& s, std::uint32_t i) {
    Record& r = s.arena[i];
    if (r.where != kGhost || r.ghosted) return;
    FileMap::value_type* file = r.file;
    file->second.blocks.erase(r.index);
    r = Record{};
    r.next[0] = s.freeHead;
    s.freeHead = i;
    if (file->second.blocks.empty()) {
      s.files.erase(s.files.find(file->first));
      files.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Moves record i to tier `to`, keeping the tier gauges, the recency
  /// lists and the file's per-tier block counts in step. Every move
  /// restamps the record; leaving DRAM (other than to spill) frees its bytes.
  void Place(Shard& s, std::uint32_t i, Tier to) {
    Record& r = s.arena[i];
    FileLifecycle& life = r.file->second.life;
    if (r.where == kDram || r.where == kDisk) {
      s.Unlink(r.where, i);
      used[r.where].fetch_sub(r.size, std::memory_order_relaxed);
      blocks[r.where].fetch_sub(1, std::memory_order_relaxed);
      --(r.where == kDram ? life.dramBlocks : life.diskBlocks);
    }
    r.where = to;
    r.moved = NextStamp();
    if (to == kDram || to == kDisk) {
      s.PushBack(to, i, r.moved);
      used[to].fetch_add(r.size, std::memory_order_relaxed);
      blocks[to].fetch_add(1, std::memory_order_relaxed);
      ++(to == kDram ? life.dramBlocks : life.diskBlocks);
    }
    if (to != kDram && to != kSpilling) r.data.reset();
  }

  /// Takes record i out of its tier, unlinking its backing file if on disk.
  void Drop(Shard& s, std::uint32_t i) {
    const Record& r = s.arena[i];
    if (r.where == kDisk) (void)disk->Unlink(DiskBlockPath(r.file->first, r.index));
    Place(s, i, kGhost);
  }

  void Touch(Shard& s, std::uint32_t i) {
    const Tier t = s.arena[i].where;
    s.Unlink(t, i);
    s.PushBack(t, i, NextStamp());
  }

  void SetGhost(Shard& s, std::uint32_t i, bool on) {
    Record& r = s.arena[i];
    if (r.ghosted == on) return;
    r.ghosted = on;
    if (on) {
      s.PushBack(kGhost, i, NextStamp());
      used[kGhost].fetch_add(1, std::memory_order_relaxed);
    } else {
      s.Unlink(kGhost, i);
      used[kGhost].fetch_sub(1, std::memory_order_relaxed);
    }
  }

  void AddPins(Record& r, int delta) {
    const bool was = r.pins > 0;
    r.pins += delta;
    if (was && r.pins == 0) pinned.fetch_sub(1, std::memory_order_relaxed);
    if (!was && r.pins > 0) pinned.fetch_add(1, std::memory_order_relaxed);
  }

  /// Makes `data` record i's DRAM copy, replacing any copy in either tier.
  void PutDram(Shard& s, std::uint32_t i, Block data, bool pin) {
    Drop(s, i);
    Record& r = s.arena[i];
    r.data = std::move(data);
    r.size = r.data->size();
    if (pin) AddPins(r, 1);
    Place(s, i, kDram);
    Count(kDramInserts);
  }

  bool DiskWrite(const std::string& dpath, const std::string& data) {
    const bool ok = (disk->StateOf(dpath) != oss::FileState::kAbsent ||
                     disk->Create(dpath).ok()) &&
                    disk->Write(dpath, 0, data).ok();
    if (!ok) Count(kDiskWriteFailures);
    return ok;
  }

  /// Drops every unpinned record of one file from its tier, and every
  /// record from the ghost FIFO. A spilling record goes too, so its queued
  /// write finds nothing. Returns the resident blocks dropped.
  std::uint64_t PurgeFile(Shard& s, FileMap::iterator f) {
    std::vector<std::uint32_t> slots;
    for (const auto& [index, slot] : f->second.blocks) slots.push_back(slot);
    std::uint64_t dropped = 0;
    for (const std::uint32_t i : slots) {
      SetGhost(s, i, false);
      if (s.arena[i].pins > 0) continue;
      if (s.arena[i].where == kDram || s.arena[i].where == kDisk) ++dropped;
      Drop(s, i);
      ReleaseIfIdle(s, i);
    }
    return dropped;
  }

  // ---- tier ops -----------------------------------------------------

  /// Runs a tier op now (inline mode) or on a later executor turn, then
  /// sweeps whatever tier it filled. Never called under sweepMu inline.
  void RunTierOp(std::function<void(Impl&)> op) {
    if (!asyncMode) {
      op(*this);
      Sweep();
      return;
    }
    pendingOps.fetch_add(1, std::memory_order_acq_rel);
    executor->Post([weak = weak_from_this(), op = std::move(op)] {
      const auto impl = weak.lock();
      if (!impl) return;
      op(*impl);
      impl->Sweep();
      impl->pendingOps.fetch_sub(1, std::memory_order_acq_rel);
    });
  }

  /// A DRAM victim reaching the disk tier. Applies only if the record is
  /// still spilling from that eviction; a purge or re-insert since wins.
  void Spill(const BlockKey& key, std::uint64_t moved) {
    Shard& s = ShardOf(key.path);
    std::lock_guard lock(s.mu);
    const std::uint32_t i = s.Find(key.path, key.index);
    if (i == kNil || s.arena[i].where != kSpilling || s.arena[i].moved != moved) {
      Count(kDroppedSpills);
      return;
    }
    if (DiskWrite(DiskBlockPath(key.path, key.index), *s.arena[i].data)) {
      Place(s, i, kDisk);
      Count(kSpills);
      return;
    }
    Count(kDroppedSpills);
    Place(s, i, kGhost);
    ReleaseIfIdle(s, i);
  }

  /// A disk hit earning its DRAM slot: installs the Block the lookup
  /// returned. Applies only if the record has not moved since the lookup
  /// read `data` from disk; its pins stay with it.
  void Promote(const BlockKey& key, std::uint64_t moved, Block data) {
    Shard& s = ShardOf(key.path);
    std::lock_guard lock(s.mu);
    const std::uint32_t i = s.Find(key.path, key.index);
    if (i == kNil || s.arena[i].where != kDisk || s.arena[i].moved != moved) return;
    (void)disk->Unlink(DiskBlockPath(key.path, key.index));
    s.arena[i].data = std::move(data);
    Place(s, i, kDram);
    Count(kPromotions);
    Count(kDramInserts);
  }

  // ---- watermark sweep ----------------------------------------------

  void Sweep() {
    if (!Over(kDram) && !Over(kDisk) && !Over(kGhost)) return;
    std::lock_guard lock(sweepMu);
    for (const Tier t : {kDram, kDisk, kGhost}) SweepLocked(t);
  }

  /// Requires sweepMu. Once tier `t` is over its high watermark, evicts its
  /// globally oldest evictable records until it is back at the low one:
  /// DRAM victims spill to disk (or go to the sink with the disk tier off),
  /// disk victims become ghosts, ghosts are forgotten. Each shard's list is
  /// in stamp order, so its first evictable record is its candidate, and
  /// the sweep takes the smallest candidate stamp. A shard is re-peeked
  /// only after the sweep takes from it (or finds its candidate touched),
  /// so a burst of E evictions costs O(shards + E) lock rounds.
  void SweepLocked(Tier t) {
    if (!Over(t)) return;
    const int k = t == kGhost;
    std::array<std::pair<std::uint32_t, std::uint64_t>, kShards> cand;  // slot, stamp
    const auto peek = [&](std::size_t n) {  // requires shards[n].mu
      const Shard& s = shards[n];
      std::uint32_t i = s.head[t];
      while (i != kNil && k == 0 && s.arena[i].pins > 0) i = s.arena[i].next[0];
      cand[n] = {i, i == kNil ? 0 : s.arena[i].stamp[k]};
    };
    for (std::size_t n = 0; n < kShards; ++n) {
      std::lock_guard lock(shards[n].mu);
      peek(n);
    }
    while (used[t].load(std::memory_order_relaxed) > low[t]) {
      std::size_t v = kShards;
      for (std::size_t n = 0; n < kShards; ++n) {
        if (cand[n].first != kNil && (v == kShards || cand[n].second < cand[v].second)) v = n;
      }
      if (v == kShards) break;  // everything left is pinned
      Shard& s = shards[v];
      BlockKey victim;
      Block victimData;
      std::uint64_t moved = 0;
      bool taken = false;
      {
        std::lock_guard lock(s.mu);
        const std::uint32_t i = cand[v].first;
        Record& r = s.arena[i];
        taken = (k == 1 ? r.ghosted : r.where == t && r.pins == 0) &&
                r.stamp[k] == cand[v].second;
        if (taken && t == kDram) {
          Count(kDramEvictions);
          victim = BlockKey{r.file->first, r.index};
          if (DiskEnabled()) {
            Place(s, i, kSpilling);
            moved = r.moved;
          } else {
            victimData = std::move(r.data);
            Place(s, i, kGhost);
            ReleaseIfIdle(s, i);
          }
        } else if (taken && t == kDisk) {
          Count(kDiskEvictions);
          Drop(s, i);
          SetGhost(s, i, true);
        } else if (taken) {
          SetGhost(s, i, false);
          ReleaseIfIdle(s, i);
        }
        peek(v);  // taken, or touched/moved/pinned since the peek
      }
      if (!taken || t != kDram) continue;
      if (!DiskEnabled()) {
        if (evictionSink) evictionSink(EvictedBlock{std::move(victim), *victimData});
      } else if (asyncMode) {
        RunTierOp([key = std::move(victim), moved](Impl& impl) { impl.Spill(key, moved); });
      } else {
        Spill(victim, moved);
        SweepLocked(kDisk);
      }
    }
    if (t == kDisk) SweepLocked(kGhost);
  }

  TieredCacheConfig config;
  oss::Oss* disk = nullptr;
  sched::Executor* executor = nullptr;
  util::Clock* clock = nullptr;
  bool asyncMode = false;
  std::array<Shard, kShards> shards;
  std::uint64_t high[3] = {};  // per Tier: bytes for DRAM/disk, records for ghosts
  std::uint64_t low[3] = {};

  std::mutex sweepMu;  // one watermark sweep at a time, any tier
  std::function<void(EvictedBlock)> evictionSink;

  std::atomic<std::uint64_t> nextStamp{1};
  std::array<std::atomic<std::uint64_t>, 3> used{};  // per Tier, as high/low
  std::array<std::atomic<std::uint64_t>, 2> blocks{};  // kDram, kDisk
  std::atomic<std::uint64_t> files{0};
  std::atomic<std::uint64_t> pinned{0};
  std::atomic<std::size_t> pendingOps{0};
  std::array<std::atomic<std::uint64_t>, kCounters> counters{};
};

// --------------------------------------------------- TieredBlockCache

TieredBlockCache::TieredBlockCache(const TieredCacheConfig& config, oss::Oss* disk,
                                   sched::Executor* executor, util::Clock& clock)
    : impl_(std::make_shared<Impl>(config, disk, executor, clock)) {}

TieredBlockCache::~TieredBlockCache() = default;

std::uint32_t TieredBlockCache::BlockSize() const {
  return impl_->config.dram.blockSize;
}

bool TieredBlockCache::DiskEnabled() const { return impl_->DiskEnabled(); }

std::optional<std::string> TieredBlockCache::Lookup(const std::string& path,
                                                    std::uint64_t index) {
  const Block data = LookupDetailed(path, index).data;
  if (data == nullptr) return std::nullopt;
  return *data;
}

TieredBlockCache::LookupResult TieredBlockCache::LookupDetailed(
    const std::string& path, std::uint64_t index) {
  Impl& impl = *impl_;
  Impl::Shard& s = impl.ShardOf(path);
  LookupResult res;
  std::uint64_t promote = 0;  // the record's move stamp, if it should promote
  {
    std::lock_guard lock(s.mu);
    const auto f = s.files.find(path);
    std::uint32_t i = kNil;
    if (f != s.files.end()) {
      const auto b = f->second.blocks.find(index);
      if (b != f->second.blocks.end()) i = b->second;
    }
    bool torn = false;
    if (i != kNil && s.arena[i].where == kDram) {
      impl.Touch(s, i);
      res.data = s.arena[i].data;  // a reference-count bump, not a copy
      res.tier = CacheTier::kDram;
    } else if (i != kNil && s.arena[i].where == kDisk) {
      Impl::Record& r = s.arena[i];
      auto read = impl.disk->Read(DiskBlockPath(path, index), 0,
                                  static_cast<std::uint32_t>(r.size));
      torn = !read.ok() || read.value().size() != r.size;
      if (!torn) {
        impl.Touch(s, i);
        res.data = MakeBlock(std::move(read).value());
        res.tier = CacheTier::kDisk;
        if (r.pins == 0) promote = r.moved;  // pinned blocks stay put
      }
    }
    if (f != s.files.end()) {
      FileLifecycle& life = f->second.life;
      life.lastAccess = impl.clock->Now();
      ++life.lookups;
      if (res.data != nullptr) ++life.reuses;
    }
    if (torn) {
      // Torn or missing backing file: drop the block, report a miss (the
      // origin re-fetch repairs it).
      impl.AddPins(s.arena[i], -s.arena[i].pins);
      impl.Drop(s, i);
      impl.ReleaseIfIdle(s, i);
    }
  }
  impl.Count(res.tier == CacheTier::kDram   ? kDramHits
             : res.tier == CacheTier::kDisk ? kDiskHits
                                            : kMisses);
  if (promote != 0) {
    impl.RunTierOp([key = BlockKey{path, index}, promote, data = res.data](Impl& i) mutable {
      i.Promote(key, promote, std::move(data));
    });
  }
  return res;
}

bool TieredBlockCache::Contains(const std::string& path, std::uint64_t index) const {
  Impl::Shard& s = impl_->ShardOf(path);
  std::lock_guard lock(s.mu);
  const std::uint32_t i = s.Find(path, index);
  return i != kNil && (s.arena[i].where == kDram || s.arena[i].where == kDisk);
}

void TieredBlockCache::Insert(const std::string& path, std::uint64_t index,
                              std::string data, bool pinned) {
  Insert(path, index, MakeBlock(std::move(data)), pinned);
}

void TieredBlockCache::Insert(const std::string& path, std::uint64_t index,
                              Block data, bool pinned) {
  Impl& impl = *impl_;
  impl.Count(kInserts);
  Impl::Shard& s = impl.ShardOf(path);
  {
    std::lock_guard lock(s.mu);
    const std::uint32_t i = impl.RecordFor(s, path, index);
    Impl::Record& r = s.arena[i];
    if (!impl.DiskEnabled()) {
      impl.PutDram(s, i, std::move(data), pinned);
    } else if (r.where == kDram) {
      // Already DRAM-resident: replace in place (recency bumps like a hit).
      impl.Count(kAdmitsDram);
      impl.PutDram(s, i, std::move(data), pinned);
    } else if (r.ghosted || r.where == kDisk) {
      // The key has history (a ghost, or a disk copy being replaced): it
      // earned a DRAM slot, and its pins come along.
      if (r.ghosted) impl.Count(kGhostHits);
      impl.SetGhost(s, i, false);
      impl.Count(kAdmitsDram);
      impl.PutDram(s, i, std::move(data), pinned);
    } else {
      // First touch: route to the disk tier and remember the key, so the
      // next insert of this block proves reuse. Scans flow through disk.
      impl.Count(kAdmitsDisk);
      if (impl.DiskWrite(DiskBlockPath(path, index), *data)) {
        r.size = data->size();
        if (pinned) impl.AddPins(r, 1);
        impl.Place(s, i, kDisk);
        impl.SetGhost(s, i, true);
      } else {
        // Backend refused the write: fall back to DRAM rather than lose a
        // block the proxy may hold pinned mid-fetch.
        impl.PutDram(s, i, std::move(data), pinned);
      }
    }
  }
  impl.Sweep();
}

bool TieredBlockCache::Pin(const std::string& path, std::uint64_t index) {
  Impl::Shard& s = impl_->ShardOf(path);
  std::lock_guard lock(s.mu);
  const std::uint32_t i = s.Find(path, index);
  if (i == kNil || (s.arena[i].where != kDram && s.arena[i].where != kDisk)) return false;
  impl_->AddPins(s.arena[i], 1);
  return true;
}

void TieredBlockCache::Unpin(const std::string& path, std::uint64_t index) {
  Impl::Shard& s = impl_->ShardOf(path);
  std::lock_guard lock(s.mu);
  const std::uint32_t i = s.Find(path, index);
  if (i != kNil && s.arena[i].pins > 0) impl_->AddPins(s.arena[i], -1);
}

std::uint64_t TieredBlockCache::Purge(const std::string& path) {
  Impl::Shard& s = impl_->ShardOf(path);
  std::lock_guard lock(s.mu);
  const auto f = s.files.find(path);
  return f == s.files.end() ? 0 : impl_->PurgeFile(s, f);
}

std::uint64_t TieredBlockCache::PurgeAll() {
  std::uint64_t dropped = 0;
  for (Impl::Shard& s : impl_->shards) {
    std::lock_guard lock(s.mu);
    for (auto f = s.files.begin(); f != s.files.end();) dropped += impl_->PurgeFile(s, f++);
  }
  return dropped;
}

BlockCacheStats TieredBlockCache::GetStats() const {
  const TieredCacheStats t = GetTieredStats();
  BlockCacheStats s;
  s.hits = t.hits;
  s.misses = t.misses;
  s.inserts = t.inserts;
  s.usedBytes = t.dram.usedBytes + t.diskUsedBytes;
  s.blockCount = t.dram.blockCount + t.diskBlockCount;
  // Evictions = true data loss. With the disk tier on, a DRAM eviction is
  // a demotion; loss happens at disk eviction or when a spill is dropped.
  s.evictions = impl_->DiskEnabled() ? t.diskEvictions + t.droppedSpills
                                     : t.dram.evictions;
  return s;
}

TieredCacheStats TieredBlockCache::GetTieredStats() const {
  const Impl& impl = *impl_;
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  TieredCacheStats t;
  t.dramHits = impl.Get(kDramHits);
  t.diskHits = impl.Get(kDiskHits);
  t.hits = t.dramHits + t.diskHits;
  t.misses = impl.Get(kMisses);
  t.inserts = impl.Get(kInserts);
  t.dram.hits = t.dramHits;
  t.dram.misses = t.diskHits + t.misses;
  t.dram.inserts = impl.Get(kDramInserts);
  t.dram.evictions = impl.Get(kDramEvictions);
  t.dram.usedBytes = load(impl.used[kDram]);
  t.dram.blockCount = load(impl.blocks[kDram]);
  t.diskUsedBytes = load(impl.used[kDisk]);
  t.diskBlockCount = load(impl.blocks[kDisk]);
  t.diskEvictions = impl.Get(kDiskEvictions);
  t.diskWriteFailures = impl.Get(kDiskWriteFailures);
  t.admitsDram = impl.Get(kAdmitsDram);
  t.admitsDisk = impl.Get(kAdmitsDisk);
  t.spills = impl.Get(kSpills);
  t.droppedSpills = impl.Get(kDroppedSpills);
  t.promotions = impl.Get(kPromotions);
  t.ghostHits = impl.Get(kGhostHits);
  t.filesTracked = load(impl.files);
  t.pinnedBlocks = load(impl.pinned);
  return t;
}

std::uint64_t TieredBlockCache::UsedBytes() const {
  return impl_->used[kDram].load(std::memory_order_relaxed) +
         impl_->used[kDisk].load(std::memory_order_relaxed);
}

std::optional<FileLifecycle> TieredBlockCache::FileStats(
    const std::string& path) const {
  Impl::Shard& s = impl_->ShardOf(path);
  std::lock_guard lock(s.mu);
  const auto f = s.files.find(path);
  if (f == s.files.end()) return std::nullopt;
  return f->second.life;
}

void TieredBlockCache::SetEvictionSink(std::function<void(EvictedBlock)> sink) {
  impl_->evictionSink = std::move(sink);
}

std::size_t TieredBlockCache::PendingTierOps() const {
  return impl_->pendingOps.load(std::memory_order_acquire);
}

}  // namespace scalla::pcache
