// Tests for the cmsd location cache: Figure-2 structure (CRC32 +
// Fibonacci hash, window chains), Figure-3 corrections, the sliding-window
// hide/purge lifecycle, deferred re-chaining, and reference authenticators.
#include <gtest/gtest.h>

#include "cms/correction_state.h"
#include "cms/location_cache.h"
#include "util/clock.h"
#include "util/fibonacci.h"
#include "util/rng.h"

namespace scalla::cms {
namespace {

class LocationCacheTest : public ::testing::Test {
 protected:
  LocationCacheTest() : cache_(config_, clock_, corrections_) {}

  static CmsConfig MakeConfig() {
    CmsConfig cfg;
    cfg.lifetime = std::chrono::hours(8);
    cfg.deadline = std::chrono::seconds(5);
    return cfg;
  }

  // Connects n servers (slots 0..n-1) to the correction state.
  void ConnectServers(int n) {
    for (int i = 0; i < n; ++i) corrections_.OnConnect(i);
  }

  LocationCache::FetchResult Create(const std::string& path, ServerSet vm) {
    return cache_.Lookup(path, vm, ServerSet::None(), LocationCache::AddPolicy::kCreate);
  }
  LocationCache::FetchResult Find(const std::string& path, ServerSet vm) {
    return cache_.Lookup(path, vm, ServerSet::None(), LocationCache::AddPolicy::kFindOnly);
  }

  CmsConfig config_ = MakeConfig();
  util::ManualClock clock_;
  CorrectionState corrections_;
  LocationCache cache_;
};

TEST_F(LocationCacheTest, CreateThenHit) {
  ConnectServers(4);
  const ServerSet vm = ServerSet::FirstN(4);
  const auto created = Create("/store/f1", vm);
  EXPECT_TRUE(created.found);
  EXPECT_TRUE(created.created);
  EXPECT_EQ(created.info.query, vm);  // everything eligible must be queried
  EXPECT_TRUE(created.info.have.empty());
  EXPECT_TRUE(created.info.pending.empty());
  EXPECT_TRUE(created.deadlineActive);

  const auto hit = Find("/store/f1", vm);
  EXPECT_TRUE(hit.found);
  EXPECT_FALSE(hit.created);
  EXPECT_EQ(cache_.GetStats().hits, 1u);
}

TEST_F(LocationCacheTest, FindOnlyMissesUnknown) {
  const auto miss = Find("/store/absent", ServerSet::FirstN(2));
  EXPECT_FALSE(miss.found);
  EXPECT_FALSE(static_cast<bool>(miss.ref));
}

TEST_F(LocationCacheTest, AddLocationSetsHaveAndClearsQuery) {
  ConnectServers(4);
  const ServerSet vm = ServerSet::FirstN(4);
  Create("/store/f1", vm);
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");

  const auto up = cache_.AddLocation("/store/f1", hash, 2, /*pending=*/false, true);
  ASSERT_TRUE(up.found);
  EXPECT_TRUE(up.info.have.test(2));
  EXPECT_FALSE(up.info.query.test(2));

  const auto pending = cache_.AddLocation("/store/f1", hash, 3, /*pending=*/true, true);
  EXPECT_TRUE(pending.info.pending.test(3));
  EXPECT_TRUE(pending.info.have.test(2));
}

TEST_F(LocationCacheTest, AddLocationForUnknownPathIgnored) {
  const auto up = cache_.AddLocation("/nope", LocationCache::HashOf("/nope"), 1, false, true);
  EXPECT_FALSE(up.found);
}

TEST_F(LocationCacheTest, AddLocationWithCreateForCachesAnUnknownPath) {
  ConnectServers(4);
  const ServerSet vm = ServerSet::FirstN(4);
  const std::uint32_t hash = LocationCache::HashOf("/store/new");
  const auto up = cache_.AddLocation("/store/new", hash, 2, /*pending=*/false, true, vm);
  ASSERT_TRUE(up.found);
  EXPECT_EQ(up.info.have, ServerSet::Single(2));
  EXPECT_EQ(up.info.query, vm.Without(ServerSet::Single(2)));
  EXPECT_EQ(cache_.GetStats().creates, 1u);

  // The entry is a plain hit now, with no query in flight.
  const auto hit = Find("/store/new", vm);
  ASSERT_TRUE(hit.found);
  EXPECT_TRUE(hit.info.have.test(2));
  EXPECT_FALSE(hit.deadlineActive);

  // A name filed under someone else's hash would be unreachable: dropped.
  const auto wrong = cache_.AddLocation("/store/other", hash, 1, false, true, vm);
  EXPECT_FALSE(wrong.found);
  EXPECT_FALSE(Find("/store/other", vm).found);
  EXPECT_EQ(cache_.GetStats().creates, 1u);
}

TEST_F(LocationCacheTest, PendingPromotesToHave) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);
  Create("/store/f1", vm);
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");
  cache_.AddLocation("/store/f1", hash, 0, /*pending=*/true, true);
  const auto up = cache_.AddLocation("/store/f1", hash, 0, /*pending=*/false, true);
  EXPECT_TRUE(up.info.have.test(0));
  EXPECT_FALSE(up.info.pending.test(0));
}

TEST_F(LocationCacheTest, BeginQueryClearsQueriedAndArmsDeadline) {
  ConnectServers(4);
  const ServerSet vm = ServerSet::FirstN(4);
  const auto r = Create("/store/f1", vm);
  const TimePoint deadline = clock_.Now() + config_.deadline;
  EXPECT_TRUE(cache_.BeginQuery(r.ref, ServerSet::FirstN(2), deadline));

  const auto hit = Find("/store/f1", vm);
  EXPECT_EQ(hit.info.query, vm.Without(ServerSet::FirstN(2)));
  EXPECT_TRUE(hit.deadlineActive);

  clock_.Advance(config_.deadline + std::chrono::milliseconds(1));
  const auto later = Find("/store/f1", vm);
  EXPECT_FALSE(later.deadlineActive);
}

// ------------------------------------------------------- Figure 3 logic

TEST_F(LocationCacheTest, NewServerConnectionCorrectsCachedObject) {
  ConnectServers(3);
  ServerSet vm = ServerSet::FirstN(3);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 1, false, true);

  // Server 3 connects AFTER the object was cached; it exports the path.
  corrections_.OnConnect(3);
  vm.set(3);

  const auto hit = Find("/store/f1", vm);
  // Figure 3: V_q gains the newcomer; V_h keeps server 1 (not in V_q).
  EXPECT_TRUE(hit.info.query.test(3));
  EXPECT_TRUE(hit.info.have.test(1));
  EXPECT_FALSE(hit.info.query.test(1));
  EXPECT_EQ(cache_.GetStats().corrections, 1u);

  // A second fetch with unchanged N_c applies no further correction.
  Find("/store/f1", vm);
  EXPECT_EQ(cache_.GetStats().corrections, 1u);
}

TEST_F(LocationCacheTest, CorrectionRemovesNewcomerFromHave) {
  // A server that reconnects as NEW (e.g. dropped then returned) may have
  // stale V_h claims; the correction moves it have -> query.
  ConnectServers(3);
  ServerSet vm = ServerSet::FirstN(3);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");
  cache_.AddLocation("/store/f1", hash, 1, false, true);
  cache_.AddLocation("/store/f1", hash, 2, false, true);

  corrections_.OnConnect(2);  // server 2 re-registers (new identity)

  const auto hit = Find("/store/f1", vm);
  EXPECT_FALSE(hit.info.have.test(2));
  EXPECT_TRUE(hit.info.query.test(2));
  EXPECT_TRUE(hit.info.have.test(1));
}

TEST_F(LocationCacheTest, VmMasksDroppedServer) {
  ConnectServers(3);
  ServerSet vm = ServerSet::FirstN(3);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 2, false, true);

  // Server 2 is dropped: removed from V_m, and its counter cleared. The
  // next connect must still be seen, so the epoch moves.
  corrections_.OnDrop(2);
  vm.reset(2);
  corrections_.OnConnect(0);  // unrelated churn bumps N_c

  const auto hit = Find("/store/f1", vm);
  EXPECT_FALSE(hit.info.have.test(2));
  EXPECT_FALSE(hit.info.query.test(2));
  EXPECT_FALSE(hit.info.pending.test(2));
}

TEST_F(LocationCacheTest, OfflineServersShiftToQuery) {
  ConnectServers(3);
  const ServerSet vm = ServerSet::FirstN(3);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 1, false, true);

  ServerSet offline;
  offline.set(1);
  const auto hit =
      cache_.Lookup("/store/f1", vm, offline, LocationCache::AddPolicy::kFindOnly);
  EXPECT_FALSE(hit.info.have.test(1));
  EXPECT_TRUE(hit.info.query.test(1));
}

TEST_F(LocationCacheTest, WindowMemoReusesCorrection) {
  ConnectServers(2);
  ServerSet vm = ServerSet::FirstN(2);
  // Two objects cached in the same window with the same C_n.
  Create("/store/a", vm);
  Create("/store/b", vm);
  corrections_.OnConnect(2);
  vm.set(2);

  Find("/store/a", vm);
  Find("/store/b", vm);
  const auto stats = cache_.GetStats();
  EXPECT_EQ(stats.corrections, 2u);
  EXPECT_EQ(stats.correctionMemoHits, 1u);  // second fetch reused V_wc
}

TEST_F(LocationCacheTest, WindowMemoInvalidatedByNewEpoch) {
  ConnectServers(2);
  ServerSet vm = ServerSet::FirstN(2);
  Create("/store/a", vm);
  Create("/store/b", vm);
  corrections_.OnConnect(2);
  vm.set(2);
  Find("/store/a", vm);  // memo created for (cn, nc)

  corrections_.OnConnect(3);  // epoch moves again
  vm.set(3);
  const auto hit = Find("/store/b", vm);
  // The stale memo (missing server 3) must NOT be used.
  EXPECT_TRUE(hit.info.query.test(3));
}

// ----------------------------------------------- windows, hide and purge

TEST_F(LocationCacheTest, EntryExpiresAfterFullWindowCycle) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  Create("/store/f1", vm);

  // 63 ticks: still visible.
  for (int i = 0; i < 63; ++i) {
    auto purge = cache_.OnWindowTick();
    if (purge) purge();
  }
  EXPECT_TRUE(Find("/store/f1", vm).found);

  // The 64th tick hides it.
  auto purge = cache_.OnWindowTick();
  EXPECT_FALSE(Find("/store/f1", vm).found);
  ASSERT_TRUE(static_cast<bool>(purge));
  purge();
  const auto stats = cache_.GetStats();
  EXPECT_EQ(stats.recycled, 1u);
  EXPECT_EQ(stats.liveObjects, 0u);
  EXPECT_EQ(stats.hiddenObjects, 0u);
}

TEST_F(LocationCacheTest, HiddenReferenceInvalidatedBeforePurge) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const auto r = Create("/store/f1", vm);
  for (int i = 0; i < 64; ++i) {
    auto purge = cache_.OnWindowTick();
    if (i < 63 && purge) purge();
    // On the last tick, do NOT run the purge: object hidden, not recycled.
  }
  // The reference is already invalid (hide bumps the authenticator).
  EXPECT_FALSE(cache_.BeginQuery(r.ref, vm, clock_.Now()));
  LocInfo info;
  EXPECT_FALSE(cache_.ReadInfo(r.ref, vm, ServerSet::None(), &info));
}

TEST_F(LocationCacheTest, RecycledStorageIsReused) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  Create("/store/f1", vm);
  for (int i = 0; i < 64; ++i) {
    auto purge = cache_.OnWindowTick();
    if (purge) purge();
  }
  const auto before = cache_.GetStats();
  Create("/store/f2", vm);
  const auto after = cache_.GetStats();
  // No new slab was needed: the freed object was recycled.
  EXPECT_EQ(before.allocatedObjects, after.allocatedObjects);
  EXPECT_EQ(after.freeObjects + 1, before.freeObjects);
}

TEST_F(LocationCacheTest, ObjectsCreatedInDifferentWindowsExpireSeparately) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  Create("/store/old", vm);
  // Advance 10 windows, then create another object.
  for (int i = 0; i < 10; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  Create("/store/young", vm);
  // 54 more ticks: /store/old expires exactly at its 64th window.
  for (int i = 0; i < 54; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_FALSE(Find("/store/old", vm).found);
  EXPECT_TRUE(Find("/store/young", vm).found);
  // 10 more: /store/young goes too.
  for (int i = 0; i < 10; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_FALSE(Find("/store/young", vm).found);
}

TEST_F(LocationCacheTest, RefreshExtendsLifetimeViaDeferredRechain) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const auto r = Create("/store/f1", vm);

  // Advance 32 windows, then refresh: T_a moves to the current window but
  // the object stays on its original chain until that chain is purged.
  for (int i = 0; i < 32; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_TRUE(cache_.Refresh(r.ref, vm, clock_.Now() + config_.deadline));

  // 32 more ticks reach the original expiry window: the object must
  // survive (it was refreshed) and get re-chained by the purge pass.
  for (int i = 0; i < 32; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_TRUE(Find("/store/f1", vm).found);
  EXPECT_GE(cache_.GetStats().rechained, 1u);

  // Another 32 ticks: now the refreshed lifetime is exhausted.
  for (int i = 0; i < 32; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_FALSE(Find("/store/f1", vm).found);
}

TEST_F(LocationCacheTest, RefreshResetsVectors) {
  ConnectServers(3);
  const ServerSet vm = ServerSet::FirstN(3);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 1, false, true);

  EXPECT_TRUE(cache_.Refresh(r.ref, vm, clock_.Now() + config_.deadline));
  const auto hit = Find("/store/f1", vm);
  EXPECT_TRUE(hit.info.have.empty());
  EXPECT_EQ(hit.info.query, vm);  // all relevant servers get re-asked
}

TEST_F(LocationCacheTest, StaleRefreshRejected) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const auto r = Create("/store/f1", vm);
  for (int i = 0; i < 64; ++i) {
    auto p = cache_.OnWindowTick();
    if (p) p();
  }
  EXPECT_FALSE(cache_.Refresh(r.ref, vm, clock_.Now()));
}

// --------------------------------------------------- growth and hashing

TEST_F(LocationCacheTest, TableGrowsThroughFibonacciSizes) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const std::size_t initial = cache_.GetStats().buckets;
  EXPECT_EQ(initial, 89u);
  for (int i = 0; i < 5000; ++i) {
    Create(util::MakeFilePath(i / 100, i % 100), vm);
  }
  const auto stats = cache_.GetStats();
  EXPECT_GT(stats.rehashes, 0u);
  EXPECT_GT(stats.buckets, 5000u);  // load factor 0.8 honoured
  // Bucket count is always Fibonacci.
  EXPECT_TRUE(util::IsFibonacci(stats.buckets));
  // Every object still findable after rehashes.
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(Find(util::MakeFilePath(i / 100, i % 100), vm).found) << i;
  }
}

TEST_F(LocationCacheTest, ProbeCountStaysNearOne) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  for (int i = 0; i < 20000; ++i) Create(util::MakeFilePath(i / 100, i % 100), vm);
  auto s0 = cache_.GetStats();
  const std::size_t probesBefore = s0.probes;
  for (int i = 0; i < 20000; ++i) Find(util::MakeFilePath(i / 100, i % 100), vm);
  const auto s1 = cache_.GetStats();
  const double meanProbes =
      static_cast<double>(s1.probes - probesBefore) / 20000.0;
  EXPECT_LT(meanProbes, 1.6);  // "look-up time is constant" in practice
}

TEST_F(LocationCacheTest, RemoveLocationClearsBits) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");
  cache_.AddLocation("/store/f1", hash, 0, false, true);
  cache_.AddLocation("/store/f1", hash, 1, false, true);
  cache_.RemoveLocation("/store/f1", 0);
  const auto hit = Find("/store/f1", vm);
  EXPECT_FALSE(hit.info.have.test(0));
  EXPECT_TRUE(hit.info.have.test(1));
}

TEST_F(LocationCacheTest, RespSlotRoundTripAndKeptOnUpdate) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const auto r = Create("/store/f1", vm);
  EXPECT_FALSE(cache_.GetRespSlot(r.ref, AccessMode::kRead).IsSet());
  EXPECT_TRUE(cache_.SetRespSlot(r.ref, AccessMode::kRead, RespSlotRef{7, 3}));
  EXPECT_TRUE(cache_.SetRespSlot(r.ref, AccessMode::kWrite, RespSlotRef{9, 5}));
  EXPECT_EQ(cache_.GetRespSlot(r.ref, AccessMode::kRead).slot, 7);
  EXPECT_EQ(cache_.GetRespSlot(r.ref, AccessMode::kWrite).slot, 9);

  // A positive update hands the references back but keeps them stored:
  // the release may be partial (waiters avoiding the responder remain
  // parked), so the next responder must still find the anchor. Fully
  // released anchors bump their epoch, making the kept reference a
  // harmless stale no-op.
  const auto up = cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 0,
                                     false, /*allowWrite=*/true);
  EXPECT_EQ(up.releaseRead.slot, 7);
  EXPECT_EQ(up.releaseRead.epoch, 3u);
  EXPECT_EQ(up.releaseWrite.slot, 9);
  EXPECT_EQ(cache_.GetRespSlot(r.ref, AccessMode::kRead).slot, 7);
  EXPECT_EQ(cache_.GetRespSlot(r.ref, AccessMode::kWrite).slot, 9);
}

TEST_F(LocationCacheTest, ReadOnlyResponderKeepsWriteWaiters) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  const auto r = Create("/store/f1", vm);
  cache_.SetRespSlot(r.ref, AccessMode::kWrite, RespSlotRef{4, 1});
  const auto up = cache_.AddLocation("/store/f1", LocationCache::HashOf("/store/f1"), 0,
                                     false, /*allowWrite=*/false);
  EXPECT_FALSE(up.releaseWrite.IsSet());
  EXPECT_TRUE(cache_.GetRespSlot(r.ref, AccessMode::kWrite).IsSet());
}

// Regression (hidden-entry fix #1): an empty path used to be able to match
// a *hidden* entry — hiding zeroes the stored key length, and FindLocked
// compared keyLen == path.size(), so "" plus a hash collision resurrected
// an entry that was awaiting purge. Empty keys are now rejected at the API
// boundary and the find path skips zero-length records outright.
TEST_F(LocationCacheTest, EmptyPathNeverCachedOrMatched) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);

  const auto create =
      cache_.Lookup("", vm, ServerSet::None(), LocationCache::AddPolicy::kCreate);
  EXPECT_FALSE(create.found);
  EXPECT_FALSE(create.created);
  EXPECT_FALSE(static_cast<bool>(create.ref));
  EXPECT_EQ(cache_.GetStats().liveObjects, 0u);

  const auto up = cache_.AddLocation("", LocationCache::HashOf(""), 0, false, true);
  EXPECT_FALSE(up.found);
  cache_.RemoveLocation("", 0);  // must be a no-op, not a crash

  // Hide an entry (expire it without purging) and probe with "" again:
  // the hidden record must stay invisible even though its keyLen is 0.
  Create("/store/f1", vm);
  for (int i = 0; i < kMaxServersPerSet; ++i) (void)cache_.OnWindowTick();
  EXPECT_EQ(cache_.GetStats().hiddenObjects, 1u);
  const auto probe =
      cache_.Lookup("", vm, ServerSet::None(), LocationCache::AddPolicy::kFindOnly);
  EXPECT_FALSE(probe.found);
}

// Regression (hidden-entry fix #2): after the last holder reported the
// file gone, RemoveLocation cleared V_h/V_p but left the entry visible
// with every vector empty — subsequent look-ups answered "hit, nobody has
// it, nothing to ask" until the window expired, even though the file may
// have reappeared elsewhere. The entry is now hidden so the next look-up
// re-creates and re-queries.
TEST_F(LocationCacheTest, RemoveLastHolderHidesEntry) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);
  const auto r = Create("/store/f1", vm);
  cache_.BeginQuery(r.ref, vm, clock_.Now() + config_.deadline);  // V_q -> empty
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");
  cache_.AddLocation("/store/f1", hash, 0, false, true);

  cache_.RemoveLocation("/store/f1", 0);  // last claim, nothing left to query

  EXPECT_FALSE(Find("/store/f1", vm).found);
  EXPECT_EQ(cache_.GetStats().hiddenObjects, 1u);
  LocInfo info;
  EXPECT_FALSE(cache_.ReadInfo(r.ref, vm, ServerSet::None(), &info));  // ref stale

  const auto again = Create("/store/f1", vm);
  EXPECT_TRUE(again.created);
  EXPECT_EQ(again.info.query, vm);  // full re-query, not an all-empty hit
}

// ... but removing one of several claims keeps the entry visible.
TEST_F(LocationCacheTest, RemoveWithRemainingQuerySetKeepsEntry) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);
  Create("/store/f1", vm);  // V_q = {0,1}, never queried
  const std::uint32_t hash = LocationCache::HashOf("/store/f1");
  cache_.AddLocation("/store/f1", hash, 0, false, true);
  cache_.RemoveLocation("/store/f1", 0);
  // Server 1 is still in V_q: the entry must survive to track that query.
  const auto hit = Find("/store/f1", vm);
  EXPECT_TRUE(hit.found);
  EXPECT_TRUE(hit.info.query.test(1));
}

// Regression (hidden-entry fix #3): MaybeGrowLocked used to count hidden
// objects toward the 80% load factor, so a hide-pass burst (a big window
// expiring) triggered a premature Fibonacci grow + full rehash even
// though the hidden records were about to be recycled.
TEST_F(LocationCacheTest, HiddenEntriesDoNotTriggerGrowth) {
  ConnectServers(1);
  const ServerSet vm = ServerSet::FirstN(1);
  ASSERT_EQ(cache_.GetStats().buckets, 89u);  // grow threshold: 72 live

  for (int i = 0; i < 60; ++i) Create("/h/" + std::to_string(i), vm);
  // Expire them: hide passes run, but the purge jobs are deliberately
  // dropped so all 60 stay chained as hidden records.
  for (int i = 0; i < kMaxServersPerSet; ++i) (void)cache_.OnWindowTick();
  ASSERT_EQ(cache_.GetStats().hiddenObjects, 60u);
  ASSERT_EQ(cache_.GetStats().liveObjects, 0u);

  // 60 live + 60 hidden = 120 chained records; the pre-fix load counter
  // would rehash here. Live load is only 60/89, so the table must hold.
  for (int i = 0; i < 60; ++i) Create("/l/" + std::to_string(i), vm);
  EXPECT_EQ(cache_.GetStats().rehashes, 0u);
  EXPECT_EQ(cache_.GetStats().buckets, 89u);

  // Sanity: genuine live load still grows the table.
  for (int i = 60; i < 75; ++i) Create("/l/" + std::to_string(i), vm);
  EXPECT_EQ(cache_.GetStats().rehashes, 1u);
  EXPECT_EQ(cache_.GetStats().buckets, 144u);
}

// Regression: storing a key long enough to spill into extension slots can
// grow — and relocate — the arena between the record's allocation and the
// extension-slot writes. The insert path used to hold Record*/chain-tail
// pointers across that growth, writing the key chain, vectors, and hash
// links into the freed slab (use-after-free); everything must instead be
// re-derived from slot indices after each allocation. Each entry here
// takes exactly 3 slots (1 record + 2 extensions); 3 does not divide the
// power-of-two slab-doubling boundaries (1024, 2048, ... slots), so some
// boundary is guaranteed to land between the record's allocation and an
// extension slot's.
TEST_F(LocationCacheTest, LongKeysSurviveArenaGrowthMidInsert) {
  ConnectServers(2);
  const ServerSet vm = ServerSet::FirstN(2);
  const auto longPath = [](int i) {
    return "/deep/" + std::string(230, static_cast<char>('a' + i % 26)) + "/" +
           std::to_string(i);
  };
  constexpr int kPaths = 4000;
  for (int i = 0; i < kPaths; ++i) {
    ASSERT_TRUE(Create(longPath(i), vm).created) << i;
  }
  const auto stats = cache_.GetStats();
  EXPECT_EQ(stats.liveObjects, static_cast<std::size_t>(kPaths));
  EXPECT_GT(stats.extensionSlots, static_cast<std::size_t>(kPaths));

  // Every entry must still be reachable through the hash walk with its
  // full key intact, and a response for the path must land on it.
  for (int i = 0; i < kPaths; ++i) {
    const std::string path = longPath(i);
    const auto hit = Find(path, vm);
    ASSERT_TRUE(hit.found) << i;
    ASSERT_EQ(hit.info.query, vm) << i;
    const auto upd = cache_.AddLocation(path, LocationCache::HashOf(path), 0,
                                        /*pending=*/false, /*allowWrite=*/true);
    ASSERT_TRUE(upd.found) << i;
  }
  for (int i = 0; i < kPaths; ++i) {
    const auto hit = Find(longPath(i), vm);
    ASSERT_TRUE(hit.found) << i;
    EXPECT_TRUE(hit.info.have.test(0)) << i;
    EXPECT_FALSE(hit.info.query.test(0)) << i;
  }
}

// Property sweep: the window lifecycle holds for a range of object counts
// and refresh fractions.
class WindowLifecycleSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WindowLifecycleSweep, AllObjectsEventuallyRecycled) {
  const int objects = std::get<0>(GetParam());
  const int refreshEvery = std::get<1>(GetParam());

  CmsConfig config;
  util::ManualClock clock;
  CorrectionState corrections;
  corrections.OnConnect(0);
  LocationCache cache(config, clock, corrections);
  const ServerSet vm = ServerSet::FirstN(1);

  std::vector<LocRef> refs;
  for (int i = 0; i < objects; ++i) {
    refs.push_back(
        cache.Lookup("/f/" + std::to_string(i), vm, ServerSet::None(),
                     LocationCache::AddPolicy::kCreate)
            .ref);
  }
  // Tick through 2 windows, refreshing a subset each window.
  for (int w = 0; w < 2; ++w) {
    for (int i = w; i < objects; i += refreshEvery) cache.Refresh(refs[i], vm, clock.Now());
    auto p = cache.OnWindowTick();
    if (p) p();
  }
  // Run the remaining 2 full cycles: everything must drain.
  for (int t = 0; t < 2 * 64; ++t) {
    auto p = cache.OnWindowTick();
    if (p) p();
  }
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.liveObjects, 0u);
  EXPECT_EQ(stats.hiddenObjects, 0u);
  EXPECT_EQ(stats.recycled, static_cast<std::size_t>(objects));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowLifecycleSweep,
                         ::testing::Combine(::testing::Values(1, 10, 500, 3000),
                                            ::testing::Values(1, 3, 7)));

}  // namespace
}  // namespace scalla::cms
