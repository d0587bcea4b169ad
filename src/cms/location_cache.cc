#include "cms/location_cache.h"

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>

#include "util/crc32.h"
#include "util/fibonacci.h"

namespace scalla::cms {
namespace {

// Objects recycled per lock acquisition by the background purge job. Small
// batches keep the job's interference with foreground look-ups minimal
// (the paper's "minimal interference" property, benchmarked in E04).
constexpr std::size_t kPurgeBatch = 128;

// First arena growth; later growths double, bounded by cacheBytes.
constexpr std::uint32_t kInitialSlots = 1024;

}  // namespace

/// One cached file-location record (Figure 2) in exactly one arena slot.
/// Fields mirror the paper: the three server-set vectors, the C_n
/// snapshot, T_a, the processing deadline, and the R_r/R_w fast-response
/// references. Chain links (hash bucket, eviction window, free list, key
/// extension) are 32-bit slot indices. Key bytes live inline; longer names
/// continue in ExtSlot-overlaid slots chained from keyExt.
struct LocationCache::Record {
  static constexpr std::size_t kInlineKeyBytes =
      kRecordBytes - (6 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                      sizeof(TimePoint) + 3 * sizeof(ServerSet) +
                      2 * sizeof(RespSlotRef) + 1);

  // auth MUST stay at offset 0 in every overlay of a slot: a slot that
  // cycles through extension-slot duty and back to record duty must keep
  // its authenticator monotonic, or a stale LocRef could spuriously
  // re-validate against whatever bytes the detour left behind.
  std::uint32_t auth;       // authenticator; bumped when hidden/recycled
  std::uint32_t hashNext;   // bucket chain; free-list link while recycled
  std::uint32_t windowNext; // eviction-window chain
  std::uint32_t keyExt;     // first key-extension slot, or kNullCacheIndex
  std::uint32_t hash;
  std::uint32_t keyLen;     // full key length; 0 => hidden (unfindable)
  std::uint64_t cn;         // C_n: corrections epoch at last fix-up
  TimePoint deadline;       // processing deadline (section III-C2)
  ServerSet vh, vp, vq;
  RespSlotRef rr, rw;       // fast-response anchors for read / write waiters
  std::uint8_t addWindow;   // T_a (window index, T_w mod 64)
  char key[kInlineKeyBytes];
};

/// Overlay for slots carrying overflow key bytes of a long file name.
/// The leading auth field aliases Record::auth and is never written, so a
/// slot's authenticator survives extension-slot duty (see Record::auth).
struct LocationCache::ExtSlot {
  static constexpr std::size_t kBytes = kRecordBytes - 2 * sizeof(std::uint32_t);
  std::uint32_t auth;  // aliases Record::auth; preserved, never touched
  std::uint32_t next;  // next extension slot, or kNullCacheIndex
  char bytes[kBytes];
};

LocationCache::LocationCache(const CmsConfig& config, util::Clock& clock,
                             CorrectionState& corrections)
    : config_(config), clock_(clock), corrections_(corrections) {
  static_assert(sizeof(Record) == kRecordBytes,
                "a location record must fill exactly one arena slot");
  static_assert(sizeof(ExtSlot) == kRecordBytes,
                "a key-extension overlay must fill exactly one arena slot");
  static_assert(std::is_trivially_copyable_v<Record>,
                "arena growth memcpy-moves records");
  static_assert(offsetof(Record, auth) == 0 && offsetof(ExtSlot, auth) == 0,
                "every slot overlay must alias the authenticator at offset 0 "
                "so it stays monotonic across record/extension reuse");
  static_assert(offsetof(Record, hashNext) == offsetof(ExtSlot, next),
                "free-list threading writes Record::hashNext regardless of "
                "which overlay last used the slot");
  buckets_.assign(util::FibonacciAtLeast(config_.initialBuckets), kNullCacheIndex);
}

LocationCache::~LocationCache() = default;

std::uint32_t LocationCache::HashOf(std::string_view path) { return util::Crc32(path); }

LocationCache::Record* LocationCache::At(std::uint32_t index) const {
  return reinterpret_cast<Record*>(arena_.get() +
                                   std::size_t{index} * kRecordBytes);
}

LocationCache::ExtSlot* LocationCache::ExtAt(std::uint32_t index) const {
  return reinterpret_cast<ExtSlot*>(arena_.get() +
                                    std::size_t{index} * kRecordBytes);
}

LocInfo LocationCache::InfoOf(const Record* rec) const {
  return LocInfo{rec->vh, rec->vp, rec->vq};
}

bool LocationCache::ValidLocked(const LocRef& ref) const {
  // Indices at or past the bump cursor were never handed out, and their
  // slots are uninitialised — don't even read their authenticator.
  return ref.index < bumpNext_ && At(ref.index)->auth == ref.auth;
}

bool LocationCache::KeyEqualsLocked(const Record* rec, std::string_view path) const {
  const std::size_t inlineLen = std::min(path.size(), Record::kInlineKeyBytes);
  if (std::memcmp(rec->key, path.data(), inlineLen) != 0) return false;
  std::size_t done = inlineLen;
  std::uint32_t ext = rec->keyExt;
  while (done < path.size()) {
    const ExtSlot* slot = ExtAt(ext);
    const std::size_t chunk = std::min(path.size() - done, ExtSlot::kBytes);
    if (std::memcmp(slot->bytes, path.data() + done, chunk) != 0) return false;
    done += chunk;
    ext = slot->next;
  }
  return true;
}

std::uint32_t LocationCache::FindLocked(std::string_view path,
                                        std::uint32_t hash) const {
  std::uint32_t index = buckets_[hash % buckets_.size()];
  while (index != kNullCacheIndex) {
    ++stats_.probes;
    const Record* rec = At(index);
    // keyLen == 0 marks a hidden record awaiting purge: it must never
    // match, not even a zero-length probe (hidden-entry resurrection).
    if (rec->keyLen != 0 && rec->hash == hash && rec->keyLen == path.size() &&
        KeyEqualsLocked(rec, path)) {
      return index;
    }
    index = rec->hashNext;
  }
  return kNullCacheIndex;
}

bool LocationCache::GrowArenaLocked() {
  std::size_t want = slotCapacity_ == 0 ? kInitialSlots
                                        : std::size_t{slotCapacity_} * 2;
  if (config_.cacheBytes > 0) {
    const std::size_t bucketBytes = buckets_.capacity() * sizeof(std::uint32_t);
    const std::size_t slotBudget =
        config_.cacheBytes > bucketBytes
            ? (config_.cacheBytes - bucketBytes) / kRecordBytes
            : 0;
    want = std::min(want, slotBudget);
    if (want <= slotCapacity_) return false;  // budget reached: no growth
  }
  want = std::min<std::size_t>(want, kNullCacheIndex);  // index links are 32-bit
  if (want <= slotCapacity_) return false;

  // for_overwrite: value-initialising the slab would touch (and make
  // resident) every page of the doubled tail we promise never to touch.
  auto grown = std::make_unique_for_overwrite<std::byte[]>(want * kRecordBytes);
  if (slotCapacity_ > 0) {
    std::memcpy(grown.get(), arena_.get(), std::size_t{slotCapacity_} * kRecordBytes);
  }
  // The fresh tail is deliberately NOT initialised here: slots past the
  // bump cursor are handed out (and first touched) one by one in
  // AllocateSlotLocked, so doubling overshoot costs virtual address
  // space only — the pages never become resident until used.
  arena_ = std::move(grown);
  slotCapacity_ = static_cast<std::uint32_t>(want);
  return true;
}

std::size_t LocationCache::EmergencyEvictLocked() {
  // Budget pressure: no free slot and no headroom to grow. Force-expire
  // the non-empty window closest to its natural expiry — hide its due
  // entries exactly like a tick would (hiding is O(1) per entry). This is
  // the arena analogue of djbdns evicting at the tail. Recycling, however,
  // unlinks from the hash table and is the expensive part, and this runs
  // under mu_ inside a foreground look-up: recycle inline only up to
  // kPurgeBatch slots — plenty for the current allocation — and leave the
  // remainder chained, hidden and unfindable, for the window's natural
  // purge job. A hot window can hold a large fraction of all entries; an
  // unbounded inline purge would stall every concurrent look-up.
  std::size_t freed = 0;
  for (int step = 1; step <= kMaxServersPerSet && freed == 0; ++step) {
    const int w = static_cast<int>((tw_ + step) % kMaxServersPerSet);
    Window& win = windows_[w];
    if (win.head == kNullCacheIndex) continue;
    std::size_t evicted = 0;
    for (std::uint32_t i = win.head; i != kNullCacheIndex; i = At(i)->windowNext) {
      Record* rec = At(i);
      if (rec->keyLen != 0 && rec->addWindow == w) {
        HideLocked(rec);
        ++evicted;
      }
    }
    stats_.budgetEvictions += evicted;
    win.memoCn = ~std::uint64_t{0};
    win.memoNc = ~std::uint64_t{0};
    std::uint32_t list = win.head;
    win.head = kNullCacheIndex;
    win.size = 0;
    while (list != kNullCacheIndex) {
      const std::uint32_t index = list;
      list = At(index)->windowNext;
      if (freed < kPurgeBatch) {
        freed += RecycleOrRechainLocked(index, w);
      } else {
        // Inline cap reached: keep the entry chained here. Hidden entries
        // stay invisible to look-ups; visible (refreshed) ones get their
        // deferred re-chain when this window's tick comes around.
        At(index)->windowNext = win.head;
        win.head = index;
        ++win.size;
      }
    }
  }
  return freed;
}

std::uint32_t LocationCache::AllocateSlotLocked() {
  // Recycled slots first (they are warm and already initialised), then
  // the bump region, growing or force-evicting when both run dry.
  if (freeHead_ == kNullCacheIndex && bumpNext_ >= slotCapacity_) {
    if (!GrowArenaLocked() && EmergencyEvictLocked() == 0) return kNullCacheIndex;
  }
  if (freeHead_ != kNullCacheIndex) {
    const std::uint32_t index = freeHead_;
    freeHead_ = At(index)->hashNext;
    --freeCount_;
    return index;
  }
  if (bumpNext_ >= slotCapacity_) return kNullCacheIndex;
  // First use of a virgin slot: this is the only place its authenticator
  // is seeded; from here on it only ever increments (hide/recycle).
  const std::uint32_t index = bumpNext_++;
  At(index)->auth = 1;
  return index;
}

void LocationCache::FreeSlotLocked(std::uint32_t index) {
  At(index)->hashNext = freeHead_;
  freeHead_ = index;
  ++freeCount_;
}

bool LocationCache::StoreKeyLocked(std::uint32_t recIndex, std::string_view path) {
  // Every AllocateSlotLocked call below may grow the arena and move the
  // slab, so no Record*/ExtSlot*/uint32_t* into the arena may be held
  // across it: the record and the chain tail are tracked as slot indices
  // and re-resolved through At()/ExtAt() after each allocation.
  {
    Record* rec = At(recIndex);
    const std::size_t inlineLen = std::min(path.size(), Record::kInlineKeyBytes);
    std::memcpy(rec->key, path.data(), inlineLen);
    rec->keyExt = kNullCacheIndex;
  }
  std::size_t done = std::min(path.size(), Record::kInlineKeyBytes);
  std::uint32_t tail = kNullCacheIndex;  // last extension slot written so far
  while (done < path.size()) {
    const std::uint32_t ext = AllocateSlotLocked();  // may move the slab
    if (ext == kNullCacheIndex) {
      FreeKeyChainLocked(At(recIndex));  // release the partial chain
      return false;
    }
    ExtSlot* slot = ExtAt(ext);
    const std::size_t chunk = std::min(path.size() - done, ExtSlot::kBytes);
    std::memcpy(slot->bytes, path.data() + done, chunk);
    slot->next = kNullCacheIndex;
    if (tail == kNullCacheIndex) {
      At(recIndex)->keyExt = ext;
    } else {
      ExtAt(tail)->next = ext;
    }
    tail = ext;
    done += chunk;
    ++stats_.extensionSlots;
  }
  At(recIndex)->keyLen = static_cast<std::uint32_t>(path.size());
  return true;
}

void LocationCache::FreeKeyChainLocked(Record* rec) {
  std::uint32_t ext = rec->keyExt;
  while (ext != kNullCacheIndex) {
    const std::uint32_t next = ExtAt(ext)->next;
    FreeSlotLocked(ext);
    --stats_.extensionSlots;
    ext = next;
  }
  rec->keyExt = kNullCacheIndex;
}

bool LocationCache::InsertLocked(std::uint32_t index, std::string_view path,
                                 std::uint32_t hash, ServerSet vm) {
  At(index)->hash = hash;
  if (!StoreKeyLocked(index, path)) return false;  // key chain hit the budget
  // Re-resolve: storing a long key can allocate extension slots, which can
  // grow the arena and move the slab out from under any earlier Record*.
  Record* rec = At(index);
  rec->addWindow = static_cast<std::uint8_t>(tw_ % kMaxServersPerSet);
  rec->cn = corrections_.Epoch();
  rec->deadline = clock_.Now() + config_.deadline;
  rec->vh = ServerSet::None();
  rec->vp = ServerSet::None();
  rec->vq = vm;  // everything eligible must be queried
  rec->rr = RespSlotRef{};
  rec->rw = RespSlotRef{};

  std::uint32_t& bucket = buckets_[hash % buckets_.size()];
  rec->hashNext = bucket;
  bucket = index;

  Window& win = windows_[rec->addWindow];
  rec->windowNext = win.head;
  win.head = index;
  ++win.size;

  ++stats_.liveObjects;
  ++stats_.creates;
  MaybeGrowLocked();
  return true;
}

void LocationCache::MaybeGrowLocked() {
  // Live entries only: hidden records are already invisible to look-ups
  // and about to be recycled, so a hide-pass burst must not trigger a
  // premature grow + full rehash.
  if (static_cast<double>(stats_.liveObjects) <
      config_.growthLoadFactor * static_cast<double>(buckets_.size())) {
    return;
  }
  const std::size_t newSize = util::NextFibonacci(buckets_.size());
  if (newSize == buckets_.size()) return;
  std::vector<std::uint32_t> fresh(newSize, kNullCacheIndex);
  if (config_.cacheBytes > 0) {
    // The budget is hard: when a bigger table plus the arena would exceed
    // it, keep the current table and let chains lengthen instead. Charge
    // the fresh vector's *capacity* — the same basis GrowArenaLocked and
    // GetStats use — so the two sides of the budget can never disagree
    // when capacity exceeds size.
    const std::size_t arenaBytes = std::size_t{slotCapacity_} * kRecordBytes;
    if (arenaBytes + fresh.capacity() * sizeof(std::uint32_t) > config_.cacheBytes) {
      return;
    }
  }
  for (std::uint32_t head : buckets_) {
    while (head != kNullCacheIndex) {
      Record* rec = At(head);
      const std::uint32_t next = rec->hashNext;
      std::uint32_t& dst = fresh[rec->hash % newSize];
      rec->hashNext = dst;
      dst = head;
      head = next;
    }
  }
  buckets_.swap(fresh);
  ++stats_.rehashes;
}

void LocationCache::ApplyCorrectionsLocked(Record* rec, ServerSet vm,
                                           ServerSet offline) {
  // Figure 3: fold in servers that connected after this object's snapshot.
  if (rec->cn != corrections_.Epoch()) {
    ++stats_.corrections;
    Window& win = windows_[rec->addWindow];
    ServerSet vc;
    if (config_.correctionMemo && win.memoCn == rec->cn &&
        win.memoNc == corrections_.Epoch()) {
      vc = win.memoVc;  // the window's V_wc applies (section III-A4)
      ++stats_.correctionMemoHits;
    } else {
      vc = corrections_.CorrectionSince(rec->cn);
      win.memoCn = rec->cn;
      win.memoNc = corrections_.Epoch();
      win.memoVc = vc;
    }
    rec->vq = (rec->vq | vc) & vm;
    rec->vh = rec->vh.Without(rec->vq) & vm;
    rec->vp = rec->vp.Without(rec->vq) & vm;
    rec->cn = corrections_.Epoch();
  }

  // Servers between disconnect and drop: shift their claims into V_q so
  // they are re-queried on a later look-up (section III-A4 case 1).
  const ServerSet off = offline & (rec->vh | rec->vp) & vm;
  if (!off.empty()) {
    rec->vq |= off;
    rec->vh = rec->vh.Without(off);
    rec->vp = rec->vp.Without(off);
  }
}

LocationCache::FetchResult LocationCache::Lookup(std::string_view path, ServerSet vm,
                                                 ServerSet offline, AddPolicy policy) {
  FetchResult result;
  const std::uint32_t hash = HashOf(path);
  std::lock_guard lock(mu_);
  ++stats_.lookups;
  if (path.empty()) return result;  // zero-length keys are the hidden marker

  std::uint32_t index = FindLocked(path, hash);
  if (index == kNullCacheIndex) {
    if (policy == AddPolicy::kFindOnly) return result;
    index = CreateLocked(path, hash, vm);
    if (index == kNullCacheIndex) return result;
    result.created = true;
  } else {
    ++stats_.hits;
    ApplyCorrectionsLocked(At(index), vm, offline);
  }

  const Record* rec = At(index);
  result.found = true;
  result.ref = LocRef{index, rec->auth};
  result.info = InfoOf(rec);
  const TimePoint now = clock_.Now();
  result.deadlineActive = rec->deadline > now;
  result.deadlineRemaining = result.deadlineActive ? rec->deadline - now : Duration::zero();
  return result;
}

std::uint32_t LocationCache::CreateLocked(std::string_view path, std::uint32_t hash,
                                          ServerSet vm) {
  const std::uint32_t index = AllocateSlotLocked();
  if (index == kNullCacheIndex || !InsertLocked(index, path, hash, vm)) {
    if (index != kNullCacheIndex) FreeSlotLocked(index);
    ++stats_.createFailures;  // byte budget exhausted, nothing evictable
    return kNullCacheIndex;
  }
  return index;
}

bool LocationCache::BeginQuery(const LocRef& ref, ServerSet queried, TimePoint deadline) {
  std::lock_guard lock(mu_);
  if (!ValidLocked(ref)) return false;
  Record* rec = At(ref.index);
  rec->vq = rec->vq.Without(queried);
  rec->deadline = deadline;
  return true;
}

LocationCache::UpdateResult LocationCache::AddLocation(std::string_view path,
                                                       std::uint32_t hash,
                                                       ServerSlot server, bool pending,
                                                       bool allowWrite,
                                                       ServerSet createFor) {
  UpdateResult result;
  if (path.empty()) return result;
  std::lock_guard lock(mu_);
  std::uint32_t index = FindLocked(path, hash);
  if (index == kNullCacheIndex) {
    // Expired meanwhile (waiters retry), or never asked about. A new-file
    // notice creates the entry, keyed by the name's own hash only: an
    // entry filed under a wrong one could never be found.
    if (createFor.empty() || hash != HashOf(path)) return result;
    index = CreateLocked(path, hash, createFor);
    if (index == kNullCacheIndex) return result;
    At(index)->deadline = TimePoint{};  // nothing was flooded for it
  }

  Record* rec = At(index);
  result.found = true;
  rec->vq.reset(server);
  if (pending) {
    rec->vp.set(server);
  } else {
    rec->vh.set(server);
    rec->vp.reset(server);
  }

  // Hand back the fast-response references so the caller can release
  // waiting clients; a file that is present is readable, so the read
  // queue always releases, the write queue only when the responding
  // server allows writes. The references stay stored: a release may be
  // partial (waiters avoiding the responder remain parked) and the next
  // responder must still find the anchor. Once the queue frees an anchor
  // it bumps the epoch, so a stored reference that was fully released is
  // simply ignored downstream (loose coupling).
  if (rec->rr.IsSet()) result.releaseRead = rec->rr;
  if (allowWrite && rec->rw.IsSet()) result.releaseWrite = rec->rw;
  result.info = InfoOf(rec);
  return result;
}

void LocationCache::HideLocked(Record* rec) {
  rec->keyLen = 0;
  ++rec->auth;  // outstanding references become invalid now
  --stats_.liveObjects;
  ++stats_.hiddenObjects;
}

void LocationCache::RemoveLocation(std::string_view path, ServerSlot server) {
  if (path.empty()) return;
  const std::uint32_t hash = HashOf(path);
  std::lock_guard lock(mu_);
  const std::uint32_t index = FindLocked(path, hash);
  if (index == kNullCacheIndex) return;
  Record* rec = At(index);
  rec->vh.reset(server);
  rec->vp.reset(server);
  if (rec->vh.empty() && rec->vp.empty() && rec->vq.empty()) {
    // The last holder reported the file gone and nothing is left to
    // query: a visible record would keep answering as a hit with
    // all-empty vectors until its window expired. Hide it so the next
    // look-up re-creates and re-queries; its window's purge job recycles
    // the storage.
    HideLocked(rec);
  }
}

bool LocationCache::Refresh(const LocRef& ref, ServerSet vm, TimePoint deadline) {
  std::lock_guard lock(mu_);
  if (!ValidLocked(ref)) return false;
  Record* rec = At(ref.index);
  // Logically a new un-cached request: requery everything eligible. T_a
  // moves to the current window but the object is NOT re-chained — the
  // purge job of its current chain performs the deferred re-chain
  // (section III-C1).
  rec->vh = ServerSet::None();
  rec->vp = ServerSet::None();
  rec->vq = vm;
  rec->cn = corrections_.Epoch();
  rec->deadline = deadline;
  rec->addWindow = static_cast<std::uint8_t>(tw_ % kMaxServersPerSet);
  return true;
}

RespSlotRef LocationCache::GetRespSlot(const LocRef& ref, AccessMode mode) const {
  std::lock_guard lock(mu_);
  if (!ValidLocked(ref)) return RespSlotRef{};
  const Record* rec = At(ref.index);
  return mode == AccessMode::kRead ? rec->rr : rec->rw;
}

bool LocationCache::SetRespSlot(const LocRef& ref, AccessMode mode, RespSlotRef slot) {
  std::lock_guard lock(mu_);
  if (!ValidLocked(ref)) return false;
  Record* rec = At(ref.index);
  (mode == AccessMode::kRead ? rec->rr : rec->rw) = slot;
  return true;
}

bool LocationCache::ReadInfo(const LocRef& ref, ServerSet vm, ServerSet offline,
                             LocInfo* out) {
  std::lock_guard lock(mu_);
  if (!ValidLocked(ref)) return false;
  ApplyCorrectionsLocked(At(ref.index), vm, offline);
  *out = InfoOf(At(ref.index));
  return true;
}

std::function<void()> LocationCache::OnWindowTick() {
  std::lock_guard lock(mu_);
  ++tw_;
  ++stats_.windowTicks;
  const int w = static_cast<int>(tw_ % kMaxServersPerSet);
  Window& win = windows_[w];

  // Hide pass: trivial per entry — zero the key length so the hash walk
  // can no longer match it. Refreshed objects (T_a != w) are skipped; the
  // purge job will re-chain them (footnote 6 / section III-C1).
  for (std::uint32_t i = win.head; i != kNullCacheIndex; i = At(i)->windowNext) {
    Record* rec = At(i);
    if (rec->keyLen != 0 && rec->addWindow == w) HideLocked(rec);
  }
  // The window restarts: its correction memo no longer applies.
  win.memoCn = ~std::uint64_t{0};
  win.memoNc = ~std::uint64_t{0};

  if (win.head == kNullCacheIndex) return {};
  return [this, w] { PurgeWindow(w, kPurgeBatch); };
}

std::size_t LocationCache::RecycleOrRechainLocked(std::uint32_t index, int window) {
  Record* rec = At(index);
  if (rec->keyLen == 0) {
    // Hidden: physically remove. The slot is recycled, never deallocated.
    UnlinkFromHashLocked(index);
    ++rec->auth;
    FreeKeyChainLocked(rec);
    rec->rr = RespSlotRef{};
    rec->rw = RespSlotRef{};
    FreeSlotLocked(index);
    --stats_.hiddenObjects;
    ++stats_.recycled;
    return 1;
  }
  // Visible: deferred re-chain to the window of its current T_a (which
  // may be this same window for objects added after the tick, or a later
  // one for refreshed objects).
  Window& dst = windows_[rec->addWindow];
  rec->windowNext = dst.head;
  dst.head = index;
  ++dst.size;
  if (rec->addWindow != window) ++stats_.rechained;
  return 0;
}

std::size_t LocationCache::PurgeWindow(int window, std::size_t maxBatch) {
  // Detach the whole chain, then recycle/re-chain in small batches so
  // foreground look-ups interleave freely. The chain cursor is an index,
  // so arena growth between batches cannot invalidate it.
  std::uint32_t list;
  {
    std::lock_guard lock(mu_);
    list = windows_[window].head;
    windows_[window].head = kNullCacheIndex;
    windows_[window].size = 0;
  }
  std::size_t freed = 0;
  while (list != kNullCacheIndex) {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < maxBatch && list != kNullCacheIndex; ++i) {
      const std::uint32_t index = list;
      list = At(index)->windowNext;
      freed += RecycleOrRechainLocked(index, window);
    }
  }
  return freed;
}

void LocationCache::UnlinkFromHashLocked(std::uint32_t index) {
  std::uint32_t* link = &buckets_[At(index)->hash % buckets_.size()];
  while (*link != kNullCacheIndex) {
    if (*link == index) {
      *link = At(index)->hashNext;
      At(index)->hashNext = kNullCacheIndex;
      return;
    }
    link = &At(*link)->hashNext;
  }
}

LocationCache::Stats LocationCache::GetStats() const {
  std::lock_guard lock(mu_);
  Stats s = stats_;
  s.buckets = buckets_.size();
  s.allocatedObjects = slotCapacity_;
  s.freeObjects = freeCount_ + (slotCapacity_ - bumpNext_);
  s.arenaBytes = std::size_t{slotCapacity_} * kRecordBytes;
  s.bucketBytes = buckets_.capacity() * sizeof(std::uint32_t);
  s.approxBytes = s.arenaBytes + s.bucketBytes;
  s.budgetBytes = config_.cacheBytes;
  return s;
}

int LocationCache::CurrentWindow() const {
  std::lock_guard lock(mu_);
  return static_cast<int>(tw_ % kMaxServersPerSet);
}

}  // namespace scalla::cms
