// Differential property tests for the proxy cache.
//
// 1. The DRAM tier (TieredBlockCache with its disk tier off) vs a
//    single-map reference model: the model re-implements the documented
//    semantics (global-stamp recency, watermark burst eviction of the
//    globally-oldest unpinned block, pin counts, purge) with none of the
//    sharding, and a seeded random op stream must agree on every
//    observable — lookup results, return counts, stats, the exact
//    eviction-sink victim sequence.
// 2. TieredBlockCache (DRAM + MemOss disk tier, inline tier ops) against
//    an integrity model: a hit in either tier must return the bytes most
//    recently inserted, pinned blocks must never be lost or purged, and
//    the per-tier accounting identities must hold at every audit point.
// 3. A multi-threaded hammer over the async-tier-ops configuration, run
//    under TSan by scripts/verify.sh, and repeated under ctest -j load by
//    the pcache_property_hammer entry.
// 4. Tier moves racing pins and purges, stepped one task at a time on the
//    discrete-event engine, and the bound on the lifecycle table.
// 5. The scan-resistance regression gate: a sequential scan of 2x the
//    DRAM tier must not dent the Zipf hot set's hit rate by more than
//    5 points. Strict LRU (disk tier disabled) fails this bound; ghost
//    admission passes it.
// 6. Block identity and lifetime: hits share the cache's own Block, a
//    promotion installs the Block the disk hit returned, and a Block a
//    caller holds keeps its bytes whatever the cache does next. The proxy
//    over the sim fabric assembles byte-exact replies from shared blocks,
//    whichever tier serves them.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oss/mem_oss.h"
#include "pcache/block_cache.h"
#include "pcache/tiered_cache.h"
#include "sched/thread_executor.h"
#include "sim/cluster.h"
#include "sim/event_engine.h"
#include "util/clock.h"
#include "util/rng.h"

namespace scalla::pcache {
namespace {

// ------------------------------------------------ BlockCache vs reference

// The DRAM tier alone: the tiered cache with its disk tier off.
class BlockCache : public TieredBlockCache {
 public:
  explicit BlockCache(const BlockCacheConfig& dram)
      : TieredBlockCache(TieredCacheConfig{dram}, nullptr, nullptr,
                         util::SystemClock::Instance()) {}
};

// The reference model: one flat map, no shards, no LRU lists. Recency is
// the global stamp alone; eviction repeatedly removes the smallest-stamp
// unpinned entry. Everything the real cache reports must match this.
class ReferenceModel {
 public:
  struct Entry {
    std::string data;
    std::uint64_t stamp = 0;
    int pins = 0;
  };
  using Key = std::pair<std::string, std::uint64_t>;

  explicit ReferenceModel(const BlockCacheConfig& config) : config_(config) {}

  std::optional<std::string> Lookup(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it == entries_.end()) {
      ++misses_;
      return std::nullopt;
    }
    it->second.stamp = nextStamp_++;
    ++hits_;
    return it->second.data;
  }

  void Insert(const std::string& path, std::uint64_t index, std::string data,
              bool pinned) {
    auto& e = entries_[{path, index}];
    usedBytes_ += data.size();
    usedBytes_ -= e.data.size();  // 0 for a fresh entry
    e.data = std::move(data);
    e.stamp = nextStamp_++;
    if (pinned) ++e.pins;
    ++inserts_;
    const auto high = static_cast<std::uint64_t>(
        config_.highWatermark * static_cast<double>(config_.capacityBytes));
    if (usedBytes_ > high) EvictToLowWatermark();
  }

  bool Pin(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it == entries_.end()) return false;
    ++it->second.pins;
    return true;
  }

  void Unpin(const std::string& path, std::uint64_t index) {
    const auto it = entries_.find({path, index});
    if (it != entries_.end() && it->second.pins > 0) --it->second.pins;
  }

  bool Contains(const std::string& path, std::uint64_t index) const {
    return entries_.count({path, index}) > 0;
  }

  std::uint64_t Purge(const std::string& path) {
    std::uint64_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.first == path && it->second.pins == 0) {
        usedBytes_ -= it->second.data.size();
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  std::uint64_t PurgeAll() {
    std::uint64_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->second.pins == 0) {
        usedBytes_ -= it->second.data.size();
        it = entries_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    return dropped;
  }

  BlockCacheStats GetStats() const {
    BlockCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.usedBytes = usedBytes_;
    s.blockCount = entries_.size();
    return s;
  }

  const std::vector<EvictedBlock>& EvictionLog() const { return evictionLog_; }
  const std::map<Key, Entry>& entries() const { return entries_; }

 private:
  void EvictToLowWatermark() {
    const auto low = static_cast<std::uint64_t>(
        config_.lowWatermark * static_cast<double>(config_.capacityBytes));
    while (usedBytes_ > low) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.pins > 0) continue;
        if (victim == entries_.end() || it->second.stamp < victim->second.stamp) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;  // everything pinned
      usedBytes_ -= victim->second.data.size();
      ++evictions_;
      evictionLog_.push_back(EvictedBlock{
          BlockKey{victim->first.first, victim->first.second},
          std::move(victim->second.data), 0});
      entries_.erase(victim);
    }
  }

  BlockCacheConfig config_;
  std::map<Key, Entry> entries_;
  std::vector<EvictedBlock> evictionLog_;
  std::uint64_t nextStamp_ = 0;
  std::uint64_t usedBytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

std::string RandomBlock(util::Rng& rng, std::uint32_t blockSize) {
  const std::size_t len = 1 + rng.NextBelow(blockSize);
  return std::string(len, static_cast<char>('a' + rng.NextBelow(26)));
}

class PcachePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcachePropertyTest, BlockCacheAgreesWithReferenceModel) {
  BlockCacheConfig cfg;
  cfg.blockSize = 32;
  cfg.capacityBytes = 1024;
  cfg.highWatermark = 0.9;
  cfg.lowWatermark = 0.6;

  BlockCache cache(cfg);
  ReferenceModel model(cfg);
  std::vector<EvictedBlock> sinkLog;
  cache.SetEvictionSink([&sinkLog](EvictedBlock b) { sinkLog.push_back(std::move(b)); });

  util::Rng rng(GetParam());
  const std::vector<std::string> paths = {"/a", "/b", "/c", "/d/deep/path",
                                          "/e", "/f", "/g", "/h"};

  for (int step = 0; step < 20000; ++step) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const std::uint64_t index = rng.NextBelow(32);
    switch (rng.NextBelow(12)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // lookup
        const auto got = cache.Lookup(path, index);
        const auto want = model.Lookup(path, index);
        ASSERT_EQ(got, want) << "step " << step << " lookup " << path << "#" << index;
        break;
      }
      case 4:
      case 5:
      case 6:
      case 7: {  // insert (occasionally pinned)
        const bool pinned = rng.NextBool(0.1);
        std::string data = RandomBlock(rng, cfg.blockSize);
        model.Insert(path, index, data, pinned);
        cache.Insert(path, index, std::move(data), pinned);
        break;
      }
      case 8: {  // pin, remembering to unpin later via the op stream
        ASSERT_EQ(cache.Pin(path, index), model.Pin(path, index)) << "step " << step;
        break;
      }
      case 9: {  // unpin (also drains pins accumulated by case 8)
        cache.Unpin(path, index);
        model.Unpin(path, index);
        break;
      }
      case 10: {  // contains (stats-neutral)
        ASSERT_EQ(cache.Contains(path, index), model.Contains(path, index));
        break;
      }
      default: {  // purge one path; full purge rarely
        if (rng.NextBool(0.1)) {
          ASSERT_EQ(cache.PurgeAll(), model.PurgeAll()) << "step " << step;
        } else {
          ASSERT_EQ(cache.Purge(path), model.Purge(path)) << "step " << step;
        }
        break;
      }
    }

    if (step % 500 == 499) {
      const auto got = cache.GetStats();
      const auto want = model.GetStats();
      ASSERT_EQ(got.hits, want.hits) << "step " << step;
      ASSERT_EQ(got.misses, want.misses) << "step " << step;
      ASSERT_EQ(got.inserts, want.inserts) << "step " << step;
      ASSERT_EQ(got.evictions, want.evictions) << "step " << step;
      ASSERT_EQ(got.usedBytes, want.usedBytes) << "step " << step;
      ASSERT_EQ(got.blockCount, want.blockCount) << "step " << step;
      ASSERT_EQ(cache.UsedBytes(), want.usedBytes);

      // Every model entry must be present with matching pin-protection, and
      // the sink must have seen exactly the model's victims, oldest first,
      // bytes intact (this is what the tiered cache spills to disk).
      for (const auto& [key, entry] : model.entries()) {
        ASSERT_TRUE(cache.Contains(key.first, key.second))
            << key.first << "#" << key.second << " missing at step " << step;
      }
      ASSERT_EQ(sinkLog.size(), model.EvictionLog().size());
      for (std::size_t i = 0; i < sinkLog.size(); ++i) {
        ASSERT_EQ(sinkLog[i].key.path, model.EvictionLog()[i].key.path) << "victim " << i;
        ASSERT_EQ(sinkLog[i].key.index, model.EvictionLog()[i].key.index) << "victim " << i;
        ASSERT_EQ(sinkLog[i].data, model.EvictionLog()[i].data) << "victim " << i;
      }
    }
  }
}

// --------------------------------------- TieredBlockCache integrity model

// Deterministic per-version block content so any torn or stale byte path
// (spill, promote, disk round trip) shows up as a content mismatch.
std::string VersionedBlock(const std::string& path, std::uint64_t index,
                           std::uint64_t version, std::uint32_t blockSize) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ version;
  for (const char c : path) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h ^= index * 0x9E3779B97F4A7C15ULL;
  std::string out(blockSize, '\0');
  for (std::uint32_t i = 0; i < blockSize; ++i) {
    h ^= h << 13;
    h ^= h >> 7;
    h ^= h << 17;
    out[i] = static_cast<char>('0' + (h % 64));
  }
  return out;
}

TEST_P(PcachePropertyTest, TieredCacheNeverServesStaleOrTornBytes) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 32;
  cfg.dram.capacityBytes = 512;  // 16 slots: constant spill pressure
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.6;
  cfg.diskCapacityBytes = 2048;
  cfg.diskHighWatermark = 0.9;
  cfg.diskLowWatermark = 0.7;
  cfg.ghostEntries = 64;
  cfg.asyncTierOps = false;  // inline: a deterministic single-threaded oracle

  util::ManualClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(cfg, &disk, /*executor=*/nullptr, clock);

  // Model entry: the content version last inserted (0 = never), and the
  // pins we currently hold. Purge resets unpinned keys to version 0.
  struct ModelEntry {
    std::uint64_t version = 0;
    int pins = 0;
  };
  std::map<std::pair<std::string, std::uint64_t>, ModelEntry> model;
  std::uint64_t nextVersion = 1;

  util::Rng rng(GetParam());
  const std::vector<std::string> paths = {"/t/a", "/t/b", "/t/c", "/t/d", "/t/e"};
  std::uint64_t pinnedBytes = 0;

  for (int step = 0; step < 12000; ++step) {
    const std::string& path = paths[rng.NextBelow(paths.size())];
    const std::uint64_t index = rng.NextBelow(24);
    auto& entry = model[{path, index}];
    switch (rng.NextBelow(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // lookup: any hit must carry the latest version's bytes
        const auto hit = cache.LookupDetailed(path, index);
        if (hit.data != nullptr) {
          ASSERT_GT(entry.version, 0u)
              << "hit on a never-inserted/purged key " << path << "#" << index
              << " at step " << step;
          ASSERT_EQ(*hit.data,
                    VersionedBlock(path, index, entry.version, cfg.dram.blockSize))
              << "stale/torn bytes from tier " << static_cast<int>(hit.tier)
              << " at step " << step;
          // Inline mode: a promotable disk hit is re-resident by the time
          // LookupDetailed returns — usually in DRAM, but when DRAM is
          // saturated with pinned blocks the promotion legitimately
          // spills straight back to disk. Either way the block must still
          // be readable with the same bytes (promotion never loses data).
          if (hit.tier == CacheTier::kDisk && entry.pins == 0) {
            const auto again = cache.LookupDetailed(path, index);
            ASSERT_TRUE(again.data != nullptr)
                << "promotion lost the block at step " << step;
            ASSERT_EQ(*again.data, *hit.data)
                << "promotion corrupted the block at step " << step;
          }
        } else if (entry.pins > 0) {
          FAIL() << "pinned block " << path << "#" << index << " lost at step " << step;
        }
        break;
      }
      case 4:
      case 5:
      case 6: {  // insert a fresh version
        const bool pinned = rng.NextBool(0.1) && entry.pins == 0;
        entry.version = nextVersion++;
        cache.Insert(path, index,
                     VersionedBlock(path, index, entry.version, cfg.dram.blockSize),
                     pinned);
        if (pinned) {
          entry.pins = 1;
          pinnedBytes += cfg.dram.blockSize;
        }
        break;
      }
      case 7: {  // pin/unpin cycle bounded by the model's pin ledger
        if (entry.pins > 0) {
          cache.Unpin(path, index);
          entry.pins = 0;
          pinnedBytes -= cfg.dram.blockSize;
        } else if (cache.Pin(path, index)) {
          ASSERT_GT(entry.version, 0u) << "pinned a phantom block at step " << step;
          entry.pins = 1;
          pinnedBytes += cfg.dram.blockSize;
        }
        break;
      }
      case 8: {  // purge one path: unpinned keys must be gone from BOTH tiers
        (void)cache.Purge(path);
        for (auto& [key, e] : model) {
          if (key.first != path) continue;
          if (e.pins == 0) {
            e.version = 0;
            ASSERT_FALSE(cache.Contains(key.first, key.second))
                << key.first << "#" << key.second << " survived purge at step " << step;
          } else {
            ASSERT_TRUE(cache.Contains(key.first, key.second))
                << "pinned " << key.first << "#" << key.second << " purged at step "
                << step;
          }
        }
        break;
      }
      default: {  // clock advance + lifecycle sanity
        clock.Advance(std::chrono::seconds(1));
        const auto life = cache.FileStats(path);
        if (life.has_value()) {
          ASSERT_GE(life->lookups, life->reuses);
          ASSERT_GE(life->lastAccess, life->firstAccess);
        }
        break;
      }
    }

    if (step % 400 == 399) {
      ASSERT_EQ(cache.PendingTierOps(), 0u);  // inline mode never queues
      const auto stats = cache.GetTieredStats();
      ASSERT_EQ(stats.hits, stats.dramHits + stats.diskHits);
      ASSERT_EQ(cache.GetStats().usedBytes, stats.dram.usedBytes + stats.diskUsedBytes);
      ASSERT_EQ(cache.GetStats().blockCount,
                stats.dram.blockCount + stats.diskBlockCount);
      ASSERT_EQ(cache.UsedBytes(), cache.GetStats().usedBytes);
      // Pinned blocks may hold a tier over its watermark target, but never
      // by more than the pinned bytes themselves.
      ASSERT_LE(stats.dram.usedBytes, cfg.dram.capacityBytes + pinnedBytes);
      ASSERT_LE(stats.diskUsedBytes, cfg.diskCapacityBytes + pinnedBytes);
      // Every pinned block is resident and readable, and the gauge counts
      // exactly the blocks the model holds pins on.
      std::uint64_t pinnedKeys = 0;
      for (const auto& [key, e] : model) {
        if (e.pins == 0) continue;
        ++pinnedKeys;
        ASSERT_TRUE(cache.Contains(key.first, key.second))
            << "pinned " << key.first << "#" << key.second << " lost at step " << step;
      }
      ASSERT_EQ(stats.pinnedBlocks, pinnedKeys) << "at step " << step;
      // Lifecycle entries exist only for files with a record.
      ASSERT_LE(stats.filesTracked,
                stats.dram.blockCount + stats.diskBlockCount + cfg.ghostEntries);
    }
  }

  // Drain: unpin everything, purge both tiers, and the cache must be empty.
  for (const auto& [key, e] : model) {
    if (e.pins > 0) cache.Unpin(key.first, key.second);
  }
  EXPECT_GT(cache.PurgeAll(), 0u);
  EXPECT_EQ(cache.UsedBytes(), 0u);
  EXPECT_EQ(cache.GetStats().blockCount, 0u);
  EXPECT_EQ(cache.PendingTierOps(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcachePropertyTest,
                         ::testing::Values(3, 17, 99, 4242, 616161));

// --------------------------------------------- multithreaded (TSan) hammer

TEST(TieredCacheConcurrencyTest, AsyncTierOpsSurviveThreads) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 64;
  cfg.dram.capacityBytes = 64 * 32;  // tight: constant eviction + spill
  cfg.dram.highWatermark = 0.9;
  cfg.dram.lowWatermark = 0.5;
  cfg.diskCapacityBytes = 64 * 96;
  cfg.diskHighWatermark = 0.9;
  cfg.diskLowWatermark = 0.6;
  cfg.asyncTierOps = true;

  sched::ThreadExecutor executor;
  oss::MemOss disk(executor.clock());
  {
    TieredBlockCache cache(cfg, &disk, &executor, executor.clock());

    constexpr int kThreads = 8;
    constexpr int kOps = 1500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        util::Rng rng(9000 + t);
        const std::string path = "/c/" + std::to_string(t % 3);
        for (int i = 0; i < kOps; ++i) {
          const std::uint64_t idx = rng.NextBelow(48);
          switch (rng.NextBelow(8)) {
            case 0:
            case 1:
            case 2: {
              const auto hit = cache.Lookup(path, idx);
              if (hit.has_value()) {
                // Content integrity even mid-spill/promote: every insert of
                // (path, idx) writes the same bytes.
                ASSERT_EQ(hit->size(), 64u);
                ASSERT_EQ((*hit)[0], path.back());
              }
              break;
            }
            case 3:
            case 4:
            case 5: {
              std::string data(64, path.back());
              cache.Insert(path, idx, std::move(data));
              break;
            }
            case 6: {  // pin/unpin pair: no pins outlive the op
              if (cache.Pin(path, idx)) cache.Unpin(path, idx);
              break;
            }
            default: {
              if (rng.NextBool(0.1)) {
                (void)cache.Purge(path);
              } else {
                (void)cache.Contains(path, idx);
                (void)cache.FileStats(path);
                (void)cache.GetTieredStats();
              }
              break;
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    // Drain the background tier ops, then the accounting must be coherent.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (cache.PendingTierOps() > 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(cache.PendingTierOps(), 0u);

    const auto stats = cache.GetTieredStats();
    EXPECT_EQ(stats.pinnedBlocks, 0u);  // every Pin was paired with an Unpin
    EXPECT_EQ(stats.hits, stats.dramHits + stats.diskHits);
    EXPECT_LE(stats.dram.usedBytes, cfg.dram.capacityBytes);
    EXPECT_LE(stats.diskUsedBytes, cfg.diskCapacityBytes);
    EXPECT_EQ(cache.UsedBytes(), stats.dram.usedBytes + stats.diskUsedBytes);

    (void)cache.PurgeAll();
    while (cache.PendingTierOps() > 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(cache.UsedBytes(), 0u);
    EXPECT_EQ(cache.GetStats().blockCount, 0u);
  }
  // The cache is gone; any task still queued on the executor must no-op
  // (weak-reference capture) instead of touching freed memory.
  executor.Stop();
}

// ------------------------------------ tier moves on a deterministic engine

// asyncTierOps on a discrete-event engine: spill and promote tasks run only
// when the test steps the engine, so each interleaving below is exact.
class TierMoveTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kBlock = 16;

  TierMoveTest() : disk_(engine_.clock()) {
    cfg_.dram.blockSize = kBlock;
    cfg_.dram.capacityBytes = 4 * kBlock;  // the 4th DRAM block sweeps 2
    cfg_.dram.highWatermark = 0.9;
    cfg_.dram.lowWatermark = 0.5;
    cfg_.diskCapacityBytes = 64 * kBlock;
    cfg_.asyncTierOps = true;
  }

  static std::string Block(char fill) { return std::string(kBlock, fill); }

  // Leaves `path` with a promotion and two spills queued: block 0 is on
  // disk with its promotion posted; blocks 1..4 were admitted to DRAM
  // (first touch to disk, second insert proves reuse), and the 4th crossed
  // the high watermark, so the two oldest are evicted and spilling.
  void QueueMoves(TieredBlockCache& cache, const std::string& path) {
    cache.Insert(path, 0, Block('0'));
    ASSERT_EQ(cache.LookupDetailed(path, 0).tier, CacheTier::kDisk);
    for (std::uint64_t i = 1; i <= 4; ++i) {
      cache.Insert(path, i, Block('x'));
      cache.Insert(path, i, Block('x'));
    }
    ASSERT_EQ(cache.PendingTierOps(), 3u);
    ASSERT_FALSE(cache.Contains(path, 1));  // in flight: in neither tier
  }

  void ExpectEmpty(TieredBlockCache& cache, const std::string& path) {
    for (std::uint64_t i = 0; i <= 4; ++i) {
      EXPECT_FALSE(cache.Contains(path, i)) << path << "#" << i << " came back";
    }
    EXPECT_EQ(cache.UsedBytes(), 0u);
    EXPECT_EQ(cache.GetStats().blockCount, 0u);
    EXPECT_TRUE(disk_.List(path + "#b").empty());
  }

  sim::EventEngine engine_;
  oss::MemOss disk_;
  TieredCacheConfig cfg_;
};

TEST_F(TierMoveTest, PinTakenAfterPromotionIsQueuedMovesWithTheBlock) {
  TieredBlockCache cache(cfg_, &disk_, &engine_, engine_.clock());
  cache.Insert("/p", 0, Block('p'));  // first touch: disk
  ASSERT_EQ(cache.LookupDetailed("/p", 0).tier, CacheTier::kDisk);
  ASSERT_EQ(cache.PendingTierOps(), 1u);  // the promotion
  ASSERT_TRUE(cache.Pin("/p", 0));
  engine_.RunUntilIdle();

  auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.dram.blockCount, 1u);
  EXPECT_EQ(stats.diskBlockCount, 0u);
  EXPECT_EQ(stats.pinnedBlocks, 1u);
  EXPECT_EQ(cache.PurgeAll(), 0u);  // the pin came along: not purgeable
  EXPECT_EQ(cache.LookupDetailed("/p", 0).tier, CacheTier::kDram);

  cache.Unpin("/p", 0);
  EXPECT_EQ(cache.GetTieredStats().pinnedBlocks, 0u);
  EXPECT_EQ(cache.PurgeAll(), 1u);
  EXPECT_EQ(cache.UsedBytes(), 0u);
  EXPECT_EQ(cache.GetStats().blockCount, 0u);
  EXPECT_TRUE(disk_.List("/p#b").empty());
}

TEST_F(TierMoveTest, PurgesBeatQueuedSpillsAndPromotions) {
  TieredBlockCache cache(cfg_, &disk_, &engine_, engine_.clock());
  QueueMoves(cache, "/one");
  EXPECT_EQ(cache.Purge("/one"), 3u);  // block 0 on disk, 3 and 4 in DRAM
  engine_.RunUntilIdle();
  ExpectEmpty(cache, "/one");

  QueueMoves(cache, "/all");
  EXPECT_EQ(cache.PurgeAll(), 3u);
  engine_.RunUntilIdle();
  ExpectEmpty(cache, "/all");

  const auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(stats.spills, 0u);
  EXPECT_EQ(stats.droppedSpills, 4u);
  EXPECT_EQ(stats.filesTracked, 0u);
  EXPECT_EQ(cache.PendingTierOps(), 0u);
}

TEST_F(TierMoveTest, InsertWhileSpillIsQueuedKeepsTheNewCopy) {
  TieredBlockCache cache(cfg_, &disk_, &engine_, engine_.clock());
  QueueMoves(cache, "/r");
  cache.Insert("/r", 1, Block('n'));  // lands while block 1's spill is queued
  engine_.RunUntilIdle();

  // Block 1's queued spill finds its record moved and drops itself instead
  // of writing the evicted bytes over the new copy; block 2's lands.
  EXPECT_EQ(cache.Lookup("/r", 1), Block('n'));
  const auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.droppedSpills, 1u);
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(cache.Lookup("/r", 2), Block('x'));
}

TEST_F(TierMoveTest, InsertOverPinnedDiskCopyKeepsEveryPin) {
  TieredBlockCache cache(cfg_, &disk_, &engine_, engine_.clock());
  cache.Insert("/c", 0, Block('a'), /*pinned=*/true);  // disk, 1 pin
  ASSERT_TRUE(cache.Pin("/c", 0));                     // 2 pins
  cache.Insert("/c", 0, Block('b'), /*pinned=*/true);  // to DRAM, 3 pins
  engine_.RunUntilIdle();

  const auto stats = cache.GetTieredStats();
  EXPECT_EQ(stats.dram.blockCount, 1u);
  EXPECT_EQ(stats.diskBlockCount, 0u);
  EXPECT_EQ(stats.pinnedBlocks, 1u);
  EXPECT_EQ(cache.Lookup("/c", 0), Block('b'));
  for (int pin = 0; pin < 3; ++pin) {
    EXPECT_EQ(cache.PurgeAll(), 0u) << "purged with " << 3 - pin << " pins held";
    cache.Unpin("/c", 0);
  }
  EXPECT_EQ(cache.GetTieredStats().pinnedBlocks, 0u);
  EXPECT_EQ(cache.PurgeAll(), 1u);
  EXPECT_EQ(cache.UsedBytes(), 0u);
  EXPECT_TRUE(disk_.List("/c#b").empty());
}

// ------------------------------------------------ Block identity + lifetime

class BlockLifetimeTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kBlock = 256;

  // DRAM for 4 blocks and disk for 4, tier ops inline: the 4th DRAM block
  // spills the 2 oldest, the 4th disk block evicts the 2 oldest.
  BlockLifetimeTest() : disk_(clock_) {
    cfg_.dram.blockSize = kBlock;
    cfg_.dram.capacityBytes = 4 * kBlock;
    cfg_.dram.highWatermark = 0.9;
    cfg_.dram.lowWatermark = 0.5;
    cfg_.diskCapacityBytes = 4 * kBlock;
    cfg_.diskHighWatermark = 0.9;
    cfg_.diskLowWatermark = 0.5;
    cfg_.asyncTierOps = false;
  }

  static std::string Bytes(char fill) { return std::string(kBlock, fill); }

  // Puts (path, index) in DRAM: the first insert lands on disk, the second
  // proves reuse. Returns the Block a DRAM hit hands out.
  static TieredBlockCache::Block InDram(TieredBlockCache& cache, const std::string& path,
                                        std::uint64_t index, char fill) {
    cache.Insert(path, index, Bytes(fill));
    cache.Insert(path, index, Bytes(fill));
    const auto hit = cache.LookupDetailed(path, index);
    EXPECT_EQ(hit.tier, CacheTier::kDram);
    return hit.data;
  }

  util::ManualClock clock_;
  oss::MemOss disk_;
  TieredCacheConfig cfg_;
};

TEST_F(BlockLifetimeTest, DramHitsShareOneBlock) {
  TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
  const TieredBlockCache::Block first = InDram(cache, "/s", 0, 's');
  const auto second = cache.LookupDetailed("/s", 0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second.tier, CacheTier::kDram);
  EXPECT_EQ(second.data.get(), first.get());

  // The Block an insert hands in is the one hits hand out.
  const TieredBlockCache::Block mine = MakeBlock(Bytes('m'));
  cache.Insert("/s", 0, mine);
  EXPECT_EQ(cache.LookupDetailed("/s", 0).data.get(), mine.get());
}

TEST_F(BlockLifetimeTest, PromotionInstallsTheBlockTheDiskHitReturned) {
  TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
  cache.Insert("/p", 0, Bytes('p'));  // first touch: disk
  const auto fromDisk = cache.LookupDetailed("/p", 0);
  ASSERT_EQ(fromDisk.tier, CacheTier::kDisk);
  ASSERT_EQ(cache.GetTieredStats().promotions, 1u);  // inline
  const auto fromDram = cache.LookupDetailed("/p", 0);
  EXPECT_EQ(fromDram.tier, CacheTier::kDram);
  EXPECT_EQ(fromDram.data.get(), fromDisk.data.get());
  EXPECT_EQ(*fromDram.data, Bytes('p'));

  // The same holds when the promotion is queued and runs on a later turn.
  sim::EventEngine engine;
  TieredCacheConfig async = cfg_;
  async.asyncTierOps = true;
  oss::MemOss disk(engine.clock());
  TieredBlockCache queued(async, &disk, &engine, engine.clock());
  queued.Insert("/q", 0, Bytes('q'));
  const auto queuedDisk = queued.LookupDetailed("/q", 0);
  ASSERT_EQ(queuedDisk.tier, CacheTier::kDisk);
  ASSERT_EQ(queued.PendingTierOps(), 1u);
  engine.RunUntilIdle();
  const auto queuedDram = queued.LookupDetailed("/q", 0);
  EXPECT_EQ(queuedDram.tier, CacheTier::kDram);
  EXPECT_EQ(queuedDram.data.get(), queuedDisk.data.get());
}

TEST_F(BlockLifetimeTest, HeldBlockKeepsItsBytesThroughPurge) {
  TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
  const TieredBlockCache::Block one = InDram(cache, "/a", 0, 'a');
  const TieredBlockCache::Block all = InDram(cache, "/b", 0, 'b');
  EXPECT_EQ(cache.Purge("/a"), 1u);
  EXPECT_FALSE(cache.Lookup("/a", 0).has_value());
  EXPECT_EQ(*one, Bytes('a'));
  EXPECT_EQ(cache.PurgeAll(), 1u);
  EXPECT_FALSE(cache.Lookup("/b", 0).has_value());
  EXPECT_EQ(*all, Bytes('b'));
  EXPECT_EQ(cache.UsedBytes(), 0u);
}

TEST_F(BlockLifetimeTest, HeldBlockKeepsItsBytesThroughSpillAndDiskEviction) {
  TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
  const TieredBlockCache::Block held = InDram(cache, "/h", 0, 'h');
  // Newer blocks push /h#0 out of DRAM (a spill), then off the disk tier.
  for (std::uint64_t i = 0; i < 16 && cache.Contains("/h", 0); ++i) {
    InDram(cache, "/o", i, 'o');
  }
  const auto stats = cache.GetTieredStats();
  ASSERT_GE(stats.spills, 1u);
  ASSERT_GE(stats.diskEvictions, 1u);
  ASSERT_FALSE(cache.Contains("/h", 0));
  EXPECT_EQ(*held, Bytes('h'));
}

TEST_F(BlockLifetimeTest, ReinsertMakesANewBlockAndTheHeldOneKeepsTheOldBytes) {
  TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
  const TieredBlockCache::Block old = InDram(cache, "/r", 0, 'o');
  cache.Insert("/r", 0, Bytes('n'));
  const auto next = cache.LookupDetailed("/r", 0);
  ASSERT_NE(next.data, nullptr);
  EXPECT_NE(next.data.get(), old.get());
  EXPECT_EQ(*next.data, Bytes('n'));
  EXPECT_EQ(*old, Bytes('o'));
}

TEST_F(BlockLifetimeTest, HeldBlockOutlivesTheCache) {
  TieredBlockCache::Block dram;
  TieredBlockCache::Block disk;
  {
    TieredBlockCache cache(cfg_, &disk_, nullptr, clock_);
    dram = InDram(cache, "/d", 0, 'd');
    cache.Insert("/d", 1, Bytes('k'));  // first touch: disk
    disk = cache.LookupDetailed("/d", 1).data;
  }
  ASSERT_NE(dram, nullptr);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(*dram, Bytes('d'));
  EXPECT_EQ(*disk, Bytes('k'));
}

// The proxy assembles replies from shared blocks: a read straddling two
// blocks, a read running past EOF and a 3-segment ReadV must come back
// byte-exact whether their blocks come from the origin, the disk tier or
// DRAM.
TEST(ProxyBlockTest, RepliesAreByteExactFromEveryTier) {
  constexpr std::uint32_t kBs = 64;
  sim::ClusterSpec spec;
  spec.servers = 2;
  spec.cms.deadline = std::chrono::milliseconds(500);
  spec.withProxy = true;
  spec.proxyCache.blockSize = kBs;
  spec.proxyCache.capacityBytes = 64 * kBs;
  spec.proxyDiskCapacity = 64 * kBs;
  sim::SimCluster cluster(spec);
  cluster.Start();
  std::string payload(200, '\0');  // 4 blocks, the last one 8 bytes
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>('A' + i % 53);
  }
  cluster.PlaceFile(0, "/store/f", payload);

  auto& c = cluster.NewProxyClient();
  const auto open = cluster.OpenAndWait(c, "/store/f", cms::AccessMode::kRead, false);
  ASSERT_EQ(open.err, proto::XrdErr::kNone);
  ProxyCacheNode& proxy = *cluster.proxy();

  const auto read = [&](std::uint64_t offset, std::uint32_t length) {
    std::optional<std::string> got;
    c.Read(open.file, offset, length, [&](proto::XrdErr err, std::string data) {
      EXPECT_EQ(err, proto::XrdErr::kNone);
      got = std::move(data);
    });
    cluster.engine().RunUntilIdle();
    EXPECT_TRUE(got.has_value());
    return got.value_or("");
  };
  const std::vector<proto::ReadSeg> segs = {{10, 20}, {60, 70}, {190, 30}};
  const auto readv = [&] {
    std::optional<std::vector<std::string>> got;
    c.ReadV(open.file, segs, [&](proto::XrdErr err, std::vector<std::string> chunks) {
      EXPECT_EQ(err, proto::XrdErr::kNone);
      got = std::move(chunks);
    });
    cluster.engine().RunUntilIdle();
    EXPECT_TRUE(got.has_value());
    return got.value_or(std::vector<std::string>{});
  };
  const std::vector<std::string> wantV = {payload.substr(10, 20), payload.substr(60, 70),
                                          payload.substr(190)};

  // Each op runs three times from a purged cache: the origin fills it (a
  // first touch lands on disk), the disk tier serves and promotes, DRAM
  // serves.
  const std::vector<std::function<void()>> ops = {
      [&] { EXPECT_EQ(read(40, 60), payload.substr(40, 60)); },  // blocks 0 and 1
      [&] { EXPECT_EQ(read(150, 100), payload.substr(150)); },   // past EOF: short
      [&] { EXPECT_EQ(readv(), wantV); },
  };
  for (std::size_t op = 0; op < ops.size(); ++op) {
    (void)proxy.cache().PurgeAll();
    for (const CacheTier tier : {CacheTier::kNone, CacheTier::kDisk, CacheTier::kDram}) {
      SCOPED_TRACE("op " + std::to_string(op) + " tier " +
                   std::to_string(static_cast<int>(tier)));
      const TieredCacheStats before = proxy.cache().GetTieredStats();
      ops[op]();
      const TieredCacheStats after = proxy.cache().GetTieredStats();
      EXPECT_EQ(after.misses > before.misses, tier == CacheTier::kNone);
      EXPECT_EQ(after.diskHits > before.diskHits, tier == CacheTier::kDisk);
      EXPECT_EQ(after.dramHits > before.dramHits, tier == CacheTier::kDram);
    }
  }
  EXPECT_EQ(read(250, 10), "");  // wholly past EOF
  EXPECT_EQ(proxy.cache().GetTieredStats().pinnedBlocks, 0u);
}

// ------------------------------------------------- bounded lifecycle table

TEST(FileLifecycleTest, EntriesLiveExactlyAsLongAsTheFilesRecords) {
  TieredCacheConfig cfg;
  cfg.dram.blockSize = 32;
  cfg.dram.capacityBytes = 1024;
  cfg.diskCapacityBytes = 4096;
  cfg.asyncTierOps = false;
  util::ManualClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(cfg, &disk, nullptr, clock);

  for (int i = 0; i < 100000; ++i) {
    ASSERT_FALSE(cache.Lookup("/never/" + std::to_string(i), 0).has_value());
  }
  EXPECT_EQ(cache.GetTieredStats().misses, 100000u);
  EXPECT_EQ(cache.GetTieredStats().filesTracked, 0u);

  cache.Insert("/kept", 0, std::string(32, 'k'));
  ASSERT_TRUE(cache.Lookup("/kept", 0).has_value());
  const auto life = cache.FileStats("/kept");
  ASSERT_TRUE(life.has_value());
  EXPECT_EQ(life->lookups, 1u);
  EXPECT_EQ(life->reuses, 1u);
  EXPECT_EQ(cache.GetTieredStats().filesTracked, 1u);
  EXPECT_EQ(cache.Purge("/kept"), 1u);  // the last record, ghost included
  EXPECT_FALSE(cache.FileStats("/kept").has_value());
  EXPECT_EQ(cache.GetTieredStats().filesTracked, 0u);
}

// ------------------------------------------------- scan-resistance gate

// Drives `accesses` Zipf-distributed reads over the hot set; a miss
// re-inserts the block (what the proxy's origin fetch does). Returns the
// hit rate. The rng is seeded per call so warm-up and measurement phases
// see identical access sequences across cache configurations.
double RunHotPhase(TieredBlockCache& cache, std::uint64_t seed, int hotBlocks,
                   int accesses, std::uint32_t blockSize) {
  util::Rng rng(seed);
  util::ZipfSampler zipf(static_cast<std::size_t>(hotBlocks), 0.9);
  int hits = 0;
  for (int i = 0; i < accesses; ++i) {
    const auto idx = static_cast<std::uint64_t>(zipf.Sample(rng));
    if (cache.Lookup("/hot", idx).has_value()) {
      ++hits;
    } else {
      cache.Insert("/hot", idx, std::string(blockSize, 'h'));
    }
  }
  return static_cast<double>(hits) / static_cast<double>(accesses);
}

// One cold sequential pass over `scanBlocks` distinct blocks (2x the DRAM
// tier in the test): the access pattern ghost admission exists to absorb.
void RunScan(TieredBlockCache& cache, int scanBlocks, std::uint32_t blockSize) {
  for (int i = 0; i < scanBlocks; ++i) {
    const auto idx = static_cast<std::uint64_t>(i);
    if (!cache.Lookup("/scan", idx).has_value()) {
      cache.Insert("/scan", idx, std::string(blockSize, 's'));
    }
  }
}

TEST(ScanResistanceTest, SequentialScanBarelyDentsHotSetHitRate) {
  constexpr std::uint32_t kBlock = 1024;
  constexpr int kDramSlots = 64;
  constexpr int kHotBlocks = 32;
  constexpr int kScanBlocks = kDramSlots * 2;  // 2x the DRAM tier
  constexpr int kMeasureAccesses = 256;
  constexpr std::uint64_t kSeed = 20260808;

  TieredCacheConfig tiered;
  tiered.dram.blockSize = kBlock;
  tiered.dram.capacityBytes = static_cast<std::uint64_t>(kDramSlots) * kBlock;
  tiered.dram.highWatermark = 0.95;
  tiered.dram.lowWatermark = 0.8;
  tiered.diskCapacityBytes = 4ull * 1024 * 1024;
  tiered.asyncTierOps = false;

  util::ManualClock clock;
  oss::MemOss disk(clock);
  TieredBlockCache cache(tiered, &disk, nullptr, clock);

  // Warm until the hot set is DRAM-resident (first touch lands on disk,
  // the second proves reuse and promotes).
  for (int pass = 0; pass < 3; ++pass) {
    (void)RunHotPhase(cache, kSeed + pass, kHotBlocks, 512, kBlock);
  }
  const double base = RunHotPhase(cache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  RunScan(cache, kScanBlocks, kBlock);
  const double post = RunHotPhase(cache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);

  // THE gate: within 5 points of the no-scan hit rate (ISSUE acceptance).
  EXPECT_GE(post, base - 0.05)
      << "scan of " << kScanBlocks << " blocks dented the hot set: " << base
      << " -> " << post;
  // The scan itself flowed through the disk tier, not DRAM.
  EXPECT_GT(cache.GetTieredStats().admitsDisk, 0u);

  // Control: the identical workload against strict LRU (disk tier off)
  // violates the bound — this is the regression the tiered design fixes,
  // and it keeps the gate honest (a trivially-passing gate would pass
  // here too).
  TieredCacheConfig lru = tiered;
  lru.diskCapacityBytes = 0;
  TieredBlockCache lruCache(lru, nullptr, nullptr, clock);
  for (int pass = 0; pass < 3; ++pass) {
    (void)RunHotPhase(lruCache, kSeed + pass, kHotBlocks, 512, kBlock);
  }
  const double lruBase = RunHotPhase(lruCache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  RunScan(lruCache, kScanBlocks, kBlock);
  const double lruPost = RunHotPhase(lruCache, kSeed, kHotBlocks, kMeasureAccesses, kBlock);
  EXPECT_LT(lruPost, lruBase - 0.05)
      << "strict LRU unexpectedly survived the scan (" << lruBase << " -> "
      << lruPost << "); the gate is not discriminating";
}

}  // namespace
}  // namespace scalla::pcache
