#include "xrd/redirector.h"

#include <utility>
#include <vector>

namespace scalla::xrd {

using cms::AccessMode;
using cms::LocateResult;
using cms::LocateStatus;

Redirector::Redirector(net::NodeAddr self, const cms::CmsConfig& cms,
                       cms::SelectCriterion selection, Duration statsTimeout,
                       sched::Executor& executor, net::Fabric& fabric,
                       obs::MetricsRegistry& metrics, ChildKind kind)
    : self_(self),
      ping_(cms.ping),
      statsTimeout_(statsTimeout),
      executor_(executor),
      fabric_(fabric),
      kind_(std::move(kind)),
      membership_(cms, executor.clock()),
      cache_(cms, executor.clock(), membership_.corrections()),
      respq_(cms, executor.clock()),
      selection_(selection),
      resolver_(cms, executor.clock(), membership_, cache_, respq_, selection_,
                [this](ServerSet targets, const std::string& path, std::uint32_t hash,
                       AccessMode mode) { SendQueryDown(targets, path, hash, mode); }),
      maintenance_(cms, executor, cache_, respq_, membership_),
      redirects_(metrics.GetCounter(kind_.metricPrefix + ".redirects_issued")),
      waits_(metrics.GetCounter(kind_.metricPrefix + ".waits_issued")),
      pingsSent_(metrics.GetCounter(kind_.metricPrefix + ".pings_sent")),
      pongsReceived_(metrics.GetCounter(kind_.metricPrefix + ".pongs_received")),
      statsQueries_(metrics.GetCounter(kind_.metricPrefix + ".stats_queries")) {}

Redirector::~Redirector() { Stop(); }

void Redirector::Start(bool hasChildren) {
  cms::MaintenanceDriver::Options opts;
  opts.windowTick = true;
  opts.dropScan = hasChildren;
  maintenance_.Start(opts, [this](ServerSlot slot) {
    const net::NodeAddr addr = slotAddr_[slot];
    if (addr != 0) {
      addrSlot_.erase(addr);
      slotAddr_[slot] = 0;
    }
  });
  if (hasChildren && ping_ > Duration::zero()) {
    pingTimer_ = executor_.RunEvery(ping_, [this] { HeartbeatTick(); });
  }
}

void Redirector::Stop() {
  maintenance_.Stop();
  if (pingTimer_ != sched::kInvalidTimer) {
    executor_.Cancel(pingTimer_);
    pingTimer_ = sched::kInvalidTimer;
  }
  // Pending folds die with the node; requesters hit their own timeouts
  // just as they would on a crash.
  for (auto& [_, agg] : statsAggs_) {
    if (agg.timer != sched::kInvalidTimer) executor_.Cancel(agg.timer);
  }
  statsAggs_.clear();
}

std::optional<ServerSlot> Redirector::SlotOfAddr(net::NodeAddr addr) const {
  const auto it = addrSlot_.find(addr);
  if (it == addrSlot_.end()) return std::nullopt;
  return it->second;
}

void Redirector::Admit(ServerSlot slot, net::NodeAddr addr, std::uint32_t loadBias) {
  // A re-login from a known address may land on a different slot (changed
  // exports drop the old identity), and a known member may come back from
  // a new address: clear both stale directions.
  if (const auto old = SlotOfAddr(addr); old.has_value() && *old != slot) {
    slotAddr_[*old] = 0;
  }
  if (slotAddr_[slot] != 0 && slotAddr_[slot] != addr) addrSlot_.erase(slotAddr_[slot]);
  slotAddr_[slot] = addr;
  addrSlot_[addr] = slot;
  loadBias_[slot] = loadBias;
}

void Redirector::OnPeerDown(net::NodeAddr peer) {
  const auto slot = SlotOfAddr(peer);
  if (slot.has_value()) membership_.Disconnect(*slot);
}

void Redirector::OnPong(net::NodeAddr from, const proto::CmsPong& m) {
  const auto slot = SlotOfAddr(from);
  if (!slot.has_value()) return;
  pongsReceived_.Inc();
  membership_.OnPong(*slot);
  // Piggybacked load keeps selection metrics fresh between load reports
  // (and drives suspend/resume just like a report would).
  const auto info = membership_.InfoOf(*slot);
  if (info.has_value() && info->online) {
    membership_.ReportLoad(*slot, loadBias_[*slot] + m.load, m.freeSpace);
  }
}

bool Redirector::OnGone(net::NodeAddr from, const std::string& path) {
  const auto slot = SlotOfAddr(from);
  if (slot.has_value()) resolver_.OnGone(path, *slot);
  return slot.has_value();
}

bool Redirector::SetDraining(const std::string& name, bool draining) {
  const auto slot = membership_.SlotOf(name);
  if (slot.has_value()) membership_.SetDraining(*slot, draining);
  return slot.has_value();
}

void Redirector::SendQueryDown(ServerSet targets, const std::string& path,
                               std::uint32_t hash, AccessMode mode) {
  const proto::Message query =
      kind_.queryFrame(path, hash, mode == AccessMode::kRead ? 0 : 1);
  for (ServerSlot s = targets.first(); s >= 0; s = targets.next(s)) {
    const net::NodeAddr addr = slotAddr_[s];
    if (addr != 0) fabric_.Send(self_, addr, query);
  }
}

void Redirector::HeartbeatTick() {
  const auto hb = membership_.HeartbeatTick();
  proto::CmsPing ping;
  ping.seq = ++pingSeq_;
  for (const ServerSlot s : hb.ping) {
    const net::NodeAddr addr = slotAddr_[s];
    if (addr == 0) continue;
    pingsSent_.Inc();
    fabric_.Send(self_, addr, ping);
  }
  // Offline members still in the drop window get a reconnect invitation:
  // a wedged child that recovers logs back in and resumes its slot.
  proto::CmsPing invite;
  invite.seq = ping.seq;
  invite.reconnect = true;
  for (const ServerSlot s : hb.reconnect) {
    const net::NodeAddr addr = slotAddr_[s];
    if (addr == 0) continue;
    pingsSent_.Inc();
    fabric_.Send(self_, addr, invite);
  }
  // DeclareDead already ran inside HeartbeatTick: one correction-counter
  // bump sheds the child's V_h/V_p bits lazily, in O(1).
  for (const auto& [slot, name] : hb.died) kind_.onDeath(slot, name);
}

// ---------------------------------------------------------------------
// StatsQuery fan-out and fold

void Redirector::OnStatsQuery(net::NodeAddr from, const proto::StatsQuery& m,
                              const std::function<obs::MetricsSnapshot()>& local) {
  statsQueries_.Inc();
  const ServerSet online = membership_.OnlineSet();
  std::vector<net::NodeAddr> targets;
  for (ServerSlot s = online.first(); s >= 0; s = online.next(s)) {
    if (slotAddr_[s] != 0) targets.push_back(slotAddr_[s]);
  }
  if (targets.empty()) {
    proto::StatsReply reply;
    reply.reqId = m.reqId;
    reply.nodeCount = 1;
    reply.snapshot = local();
    fabric_.Send(self_, from, std::move(reply));
    return;
  }
  // Fan the query down under a fresh reqId (this node's own downward id
  // space) and answer when the last child reports or the timeout fires.
  const std::uint64_t aggId = nextStatsAggId_++;
  StatsAggregation& agg = statsAggs_[aggId];
  agg.requester = from;
  agg.requesterReqId = m.reqId;
  agg.acc = local();
  agg.nodeCount = 1;
  agg.outstanding = static_cast<int>(targets.size());
  agg.timer = executor_.RunAfter(statsTimeout_, [this, aggId] { FinishStatsAggregation(aggId); });
  for (const net::NodeAddr target : targets) {
    fabric_.Send(self_, target, proto::StatsQuery{aggId});
  }
}

void Redirector::OnStatsReply(net::NodeAddr from, const proto::StatsReply& m) {
  if (!SlotOfAddr(from).has_value()) return;  // not a child we know
  const auto it = statsAggs_.find(m.reqId);
  if (it == statsAggs_.end()) return;  // late reply after timeout
  StatsAggregation& agg = it->second;
  agg.acc.Merge(m.snapshot);
  agg.nodeCount += m.nodeCount;
  if (--agg.outstanding <= 0) FinishStatsAggregation(m.reqId);
}

void Redirector::FinishStatsAggregation(std::uint64_t aggId) {
  const auto it = statsAggs_.find(aggId);
  if (it == statsAggs_.end()) return;
  StatsAggregation& agg = it->second;
  if (agg.timer != sched::kInvalidTimer) executor_.Cancel(agg.timer);
  proto::StatsReply reply;
  reply.reqId = agg.requesterReqId;
  reply.nodeCount = agg.nodeCount;
  reply.snapshot = std::move(agg.acc);
  const net::NodeAddr requester = agg.requester;
  statsAggs_.erase(it);
  fabric_.Send(self_, requester, std::move(reply));
}

// ---------------------------------------------------------------------
// locate and reply

void Redirector::Open(net::NodeAddr from, const proto::XrdOpen& m) {
  cms::LocateOptions opts;
  opts.mode = ModeOf(m.mode);
  opts.refresh = m.refresh;
  if (m.avoidNode != 0) {
    // Only a child's address means anything here; a failing node deeper
    // down is that child's problem.
    const auto avoidSlot = SlotOfAddr(m.avoidNode);
    if (avoidSlot.has_value()) opts.avoid = *avoidSlot;
  }
  resolver_.Locate(
      m.path, opts,
      [this, from, reqId = m.reqId, path = m.path, create = m.create,
       avoid = opts.avoid](const LocateResult& r) {
        proto::XrdOpenResp resp;  // status kError unless set below
        resp.reqId = reqId;
        ServerSlot target = -1;
        switch (r.status) {
          case LocateStatus::kRedirect:
            target = r.server;
            break;
          case LocateStatus::kWait:
            resp.status = proto::XrdStatus::kWait;
            resp.waitNs = r.wait.count();
            waits_.Inc();
            break;
          case LocateStatus::kRetry:
            resp.err = proto::XrdErr::kStale;
            break;
          case LocateStatus::kNotFound: {
            if (!create) {
              resp.err = proto::XrdErr::kNotFound;
              if (kind_.notFound != nullptr) kind_.notFound->Inc();
              break;
            }
            // Creation: the full delay has confirmed non-existence; place
            // the new file on an eligible, selectable (online and neither
            // suspended nor draining), writable child, avoiding one that
            // already refused this client (e.g. out of space) unless it is
            // the only choice.
            const ServerSet candidates =
                membership_.EligibleFor(path) & membership_.SelectableSet();
            ServerSet writable, avoidSet;
            for (ServerSlot s = candidates.first(); s >= 0; s = candidates.next(s)) {
              const auto info = membership_.InfoOf(s);
              if (info && info->allowWrite) writable.set(s);
            }
            if (avoid >= 0) avoidSet.set(avoid);
            target = selection_.Choose(writable, avoidSet, membership_);
            if (target < 0) resp.err = proto::XrdErr::kNoSpace;
            break;
          }
        }
        if (target >= 0) {
          resp.status = proto::XrdStatus::kRedirect;
          resp.redirectNode = AddrOfSlot(target);
          redirects_.Inc();
        }
        fabric_.Send(self_, from, std::move(resp));
      });
}

void Redirector::Prepare(net::NodeAddr from, const proto::XrdPrepare& m) {
  // Parallel prepare (section III-B2): each look-up may suffer the full
  // delay internally, but the client sees at most one because they run
  // concurrently.
  cms::LocateOptions opts;
  opts.mode = ModeOf(m.mode);
  for (const auto& path : m.paths) {
    resolver_.Locate(path, opts, [](const LocateResult&) { /* warming only */ });
  }
  proto::XrdPrepareResp resp;
  resp.reqId = m.reqId;
  fabric_.Send(self_, from, std::move(resp));
}

// ---------------------------------------------------------------------
// stats export

void Redirector::ExportStats(obs::MetricsSnapshot& snap) const {
  const auto gauge = [&snap](const char* name, std::size_t value) {
    snap.AddGauge(name, static_cast<std::int64_t>(value));
  };
  const auto cache = cache_.GetStats();
  snap.AddCounter("cache.lookups", cache.lookups);
  snap.AddCounter("cache.hits", cache.hits);
  snap.AddCounter("cache.misses", cache.lookups - cache.hits);
  snap.AddCounter("cache.creates", cache.creates);
  snap.AddCounter("cache.corrections", cache.corrections);
  snap.AddCounter("cache.correction_memo_hits", cache.correctionMemoHits);
  snap.AddCounter("cache.rehashes", cache.rehashes);
  snap.AddCounter("cache.window_ticks", cache.windowTicks);
  snap.AddCounter("cache.recycled", cache.recycled);
  gauge("cache.live_objects", cache.liveObjects);
  gauge("cache.approx_bytes", cache.approxBytes);
  // Arena occupancy (index-linked layout): slots in use vs allocated, the
  // per-entry footprint, and budget-pressure evictions.
  gauge("cache.arena_bytes", cache.arenaBytes);
  gauge("cache.bytes_per_entry",
        cache.liveObjects == 0 ? 0 : cache.approxBytes / cache.liveObjects);
  gauge("cache.arena_occupancy_pct",
        cache.allocatedObjects == 0 ? 0
                                    : 100 * (cache.allocatedObjects - cache.freeObjects) /
                                          cache.allocatedObjects);
  snap.AddCounter("cache.budget_evictions", cache.budgetEvictions);
  snap.AddCounter("cache.create_failures", cache.createFailures);
  const auto resolver = resolver_.GetStats();
  snap.AddCounter("resolver.locates", resolver.locates);
  snap.AddCounter("resolver.redirects", resolver.redirects);
  snap.AddCounter("resolver.fast_redirects", resolver.fastRedirects);
  snap.AddCounter("resolver.not_found", resolver.notFound);
  snap.AddCounter("resolver.full_delays", resolver.fullDelays);
  snap.AddCounter("resolver.queries_sent", resolver.queriesSent);
  snap.AddCounter("resolver.query_messages", resolver.queryMessages);
  snap.AddCounter("resolver.deferrals", resolver.deferrals);
  const auto respq = respq_.GetStats();
  snap.AddCounter("respq.adds", respq.adds);
  snap.AddCounter("respq.joins", respq.joins);
  snap.AddCounter("respq.releases", respq.releases);
  snap.AddCounter("respq.expirations", respq.expirations);
  snap.AddCounter("respq.rejected_full", respq.rejectedFull);
  gauge("respq.anchors_in_use", respq.anchorsInUse);
  const auto maint = maintenance_.GetStats();
  snap.AddCounter("maintenance.window_ticks", maint.windowTicks);
  snap.AddCounter("maintenance.sweeps", maint.sweeps);
  snap.AddCounter("maintenance.drop_scans", maint.dropScans);
  snap.AddCounter("maintenance.members_dropped", maint.membersDropped);
  const auto live = membership_.GetLivenessStats();
  snap.AddCounter("membership.deaths", live.deaths);
  snap.AddCounter("membership.rejoins", live.rejoins);
  snap.AddCounter("membership.suspends", live.suspends);
  snap.AddCounter("membership.resumes", live.resumes);
  snap.AddCounter("membership.drains", live.drains);
  gauge("membership.suspended", membership_.SuspendedSet().count());
  gauge("membership.draining", membership_.DrainingSet().count());
  gauge("membership.path_arena_bytes", membership_.PathArenaBytes());
}

}  // namespace scalla::xrd
