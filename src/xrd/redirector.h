// The redirector core that every cluster head runs, at every level.
//
// The paper's tree composes because each level runs the same cmsd logic: a
// manager fronts up to 64 servers, a supervisor is a manager to its subtree
// and a server to its parent, and the federation meta-manager fronts up to
// 64 *clusters* the same way ("cmsd clustering cmsds"). Redirector is that
// one piece of logic:
//   - the membership, location cache, fast response queue, selection and
//     resolver, and the maintenance timers that keep them small;
//   - the slot <-> fabric-address maps of its children, filled by Admit();
//   - the heartbeat (ping / reconnect invite / death) and pong handling;
//   - Have/Gone bookkeeping by sender address, and drain by name;
//   - the StatsQuery fan-out and fold;
//   - the locate-and-reply paths for client requests: open (with create),
//     stat / unlink / checksum, and the parallel prepare warm loop;
//   - the export of the cms component stats into a MetricsSnapshot.
//
// Its owner holds it as a plain member and routes those frames to it:
// xrd::ScallaNode for managers and supervisors (children are servers) and
// fed::MetaManager for the federation tier (children are cluster heads).
// The owner keeps its own edges — logins or subscriptions, the leaf role,
// upward notices. What differs between child kinds is passed in as data
// (ChildKind), never as a branch on the owner's role.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "cms/location_cache.h"
#include "cms/maintenance.h"
#include "cms/membership.h"
#include "cms/resolver.h"
#include "cms/response_queue.h"
#include "cms/selection.h"
#include "cms/types.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "sched/executor.h"

namespace scalla::xrd {

/// Wire access mode (0 = read) as the cms enum.
inline cms::AccessMode ModeOf(std::uint8_t raw) {
  return raw == 0 ? cms::AccessMode::kRead : cms::AccessMode::kWrite;
}

/// What differs between the children a Redirector fronts.
struct ChildKind {
  /// Prefix of the redirector's counters: "node" (servers) or "fed"
  /// (clusters), e.g. node.redirects_issued / fed.redirects_issued.
  std::string metricPrefix;
  /// Builds the flood frame: QueryFrame<proto::CmsQuery> for servers,
  /// QueryFrame<proto::FedQuery> for clusters.
  proto::Message (*queryFrame)(const std::string& path, std::uint32_t hash,
                               std::uint8_t mode) = nullptr;
  /// Called once per child the heartbeat declares dead (after the
  /// membership has already shed it).
  std::function<void(ServerSlot slot, const std::string& name)> onDeath;
  /// Counts client opens answered "not found" (nullptr: not counted).
  obs::Counter* notFound = nullptr;
};

class Redirector {
 public:
  template <typename Query>
  static proto::Message QueryFrame(const std::string& path, std::uint32_t hash,
                                   std::uint8_t mode) {
    Query q;
    q.path = path;
    q.hash = hash;
    q.mode = mode;
    return q;
  }

  /// `self` is the owner's fabric address (every frame is sent from it);
  /// counters register in the owner's `metrics`.
  Redirector(net::NodeAddr self, const cms::CmsConfig& cms, cms::SelectCriterion selection,
             Duration statsTimeout, sched::Executor& executor, net::Fabric& fabric,
             obs::MetricsRegistry& metrics, ChildKind kind);
  ~Redirector();

  Redirector(const Redirector&) = delete;
  Redirector& operator=(const Redirector&) = delete;

  /// Starts the cache window tick; with `hasChildren`, also the expired-
  /// member drop scan and the heartbeat.
  void Start(bool hasChildren);
  /// Cancels every timer and drops in-flight stats folds.
  void Stop();

  cms::Membership& membership() { return membership_; }
  const cms::Membership& membership() const { return membership_; }
  cms::LocationCache& cache() { return cache_; }
  const cms::LocationCache& cache() const { return cache_; }
  cms::Resolver& resolver() { return resolver_; }
  const cms::Resolver& resolver() const { return resolver_; }
  cms::FastResponseQueue& respq() { return respq_; }
  const cms::FastResponseQueue& respq() const { return respq_; }
  cms::MaintenanceDriver& maintenance() { return maintenance_; }
  obs::Counter& redirectsIssued() { return redirects_; }
  obs::Counter& waitsIssued() { return waits_; }

  net::NodeAddr AddrOfSlot(ServerSlot slot) const {
    return slot >= 0 && slot < kMaxServersPerSet ? slotAddr_[slot] : 0;
  }
  std::optional<ServerSlot> SlotOfAddr(net::NodeAddr addr) const;

  /// Binds child `slot` to `addr` after a login or subscribe. Unbinds the
  /// address's previous slot and the slot's previous address, so a child
  /// that comes back from a new address leaves no stale mapping. `loadBias`
  /// is added to every load the child reports in a pong.
  void Admit(ServerSlot slot, net::NodeAddr addr, std::uint32_t loadBias = 0);
  /// A child's link went down: its slot goes offline until it returns.
  void OnPeerDown(net::NodeAddr peer);
  void OnPong(net::NodeAddr from, const proto::CmsPong& m);
  /// Have/Gone from a child (CmsHave or FedHave); false when `from` is not
  /// a child, in which case nothing was recorded.
  template <typename Have>
  bool OnHave(net::NodeAddr from, const Have& m) {
    const auto slot = SlotOfAddr(from);
    if (slot.has_value()) resolver_.OnHave(m.path, m.hash, *slot, m.pending, m.allowWrite);
    return slot.has_value();
  }
  bool OnGone(net::NodeAddr from, const std::string& path);
  /// Drains (or restores) the child named `name`; false when unknown.
  bool SetDraining(const std::string& name, bool draining);

  /// Answers a StatsQuery: fans it to every online child and replies with
  /// `local()` folded with their replies, at the last reply or at the
  /// stats timeout, whichever comes first. No children: `local()` alone.
  void OnStatsQuery(net::NodeAddr from, const proto::StatsQuery& m,
                    const std::function<obs::MetricsSnapshot()>& local);
  void OnStatsReply(net::NodeAddr from, const proto::StatsReply& m);

  /// Client open: redirect to a holder, wait, or fail; a create after the
  /// full delay goes to a writable child, avoiding the one that refused.
  void Open(net::NodeAddr from, const proto::XrdOpen& m);
  /// Stat / unlink / checksum at a head (a read-mode meta-data operation):
  /// redirect, wait or error only.
  template <typename Resp, typename Req>
  void Redirect(net::NodeAddr from, const Req& m) {
    resolver_.Locate(m.path, cms::LocateOptions{}, [this, from, reqId = m.reqId](
                                                       const cms::LocateResult& r) {
      Resp out;
      out.reqId = reqId;
      switch (r.status) {
        case cms::LocateStatus::kRedirect:
          out.status = proto::XrdStatus::kRedirect;
          out.redirectNode = AddrOfSlot(r.server);
          redirects_.Inc();
          break;
        case cms::LocateStatus::kWait:
          out.status = proto::XrdStatus::kWait;
          out.waitNs = r.wait.count();
          break;
        default:
          out.status = proto::XrdStatus::kError;
          out.err = r.status == cms::LocateStatus::kRetry ? proto::XrdErr::kStale
                                                          : proto::XrdErr::kNotFound;
      }
      fabric_.Send(self_, from, std::move(out));
    });
  }
  /// Parallel prepare: one background look-up per path, then the reply.
  void Prepare(net::NodeAddr from, const proto::XrdPrepare& m);

  /// Adds the cache / resolver / respq / maintenance / membership stats
  /// under their canonical dotted names.
  void ExportStats(obs::MetricsSnapshot& snap) const;

 private:
  void SendQueryDown(ServerSet targets, const std::string& path, std::uint32_t hash,
                     cms::AccessMode mode);
  void HeartbeatTick();
  void FinishStatsAggregation(std::uint64_t aggId);

  const net::NodeAddr self_;
  const Duration ping_;
  const Duration statsTimeout_;
  sched::Executor& executor_;
  net::Fabric& fabric_;
  const ChildKind kind_;

  cms::Membership membership_;
  cms::LocationCache cache_;
  cms::FastResponseQueue respq_;
  cms::SelectionPolicy selection_;
  cms::Resolver resolver_;
  cms::MaintenanceDriver maintenance_;

  obs::Counter& redirects_;
  obs::Counter& waits_;
  obs::Counter& pingsSent_;
  obs::Counter& pongsReceived_;
  obs::Counter& statsQueries_;

  std::array<net::NodeAddr, kMaxServersPerSet> slotAddr_{};
  std::array<std::uint32_t, kMaxServersPerSet> loadBias_{};
  std::unordered_map<net::NodeAddr, ServerSlot> addrSlot_;

  sched::TimerId pingTimer_ = sched::kInvalidTimer;
  std::uint64_t pingSeq_ = 0;

  // One in-flight fold per received StatsQuery, keyed by the reqId used on
  // the downward queries (replies echo it).
  struct StatsAggregation {
    net::NodeAddr requester = 0;
    std::uint64_t requesterReqId = 0;
    obs::MetricsSnapshot acc;
    std::uint32_t nodeCount = 0;
    int outstanding = 0;
    sched::TimerId timer = sched::kInvalidTimer;
  };
  std::unordered_map<std::uint64_t, StatsAggregation> statsAggs_;
  std::uint64_t nextStatsAggId_ = 1;
};

}  // namespace scalla::xrd
