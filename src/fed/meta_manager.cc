#include "fed/meta_manager.h"

#include <utility>

#include "util/logger.h"

namespace scalla::fed {

using cms::LocateResult;
using cms::LocateStatus;

MetaManager::FedMetrics::FedMetrics(obs::MetricsRegistry& r)
    : subscribes(r.GetCounter("fed.subscribes")),
      locates(r.GetCounter("fed.locates")),
      notFound(r.GetCounter("fed.not_found")),
      clusterDeaths(r.GetCounter("fed.cluster_deaths")) {}

MetaManager::MetaManager(MetaConfig config, sched::Executor& executor,
                         net::Fabric& fabric)
    : config_(std::move(config)),
      fabric_(fabric),
      fm_(metrics_),
      redirector_(config_.addr, config_.cms, config_.selection, config_.statsTimeout,
                  executor, fabric, metrics_,
                  xrd::ChildKind{"fed", &xrd::Redirector::QueryFrame<proto::FedQuery>,
                                 [this](ServerSlot slot, const std::string& name) {
                                   SCALLA_WARN("fed",
                                               "%s: declaring cluster '%s' (id %d) dead "
                                               "after %d missed pings",
                                               config_.name.c_str(), name.c_str(), slot,
                                               config_.cms.missLimit);
                                   fm_.clusterDeaths.Inc();
                                 },
                                 &fm_.notFound}) {}

MetaManager::~MetaManager() { Stop(); }

void MetaManager::Start() {
  if (started_) return;
  started_ = true;
  if (config_.startTimers) redirector_.Start(/*hasChildren=*/true);
}

void MetaManager::Stop() {
  redirector_.Stop();
  started_ = false;
}

obs::MetricsSnapshot MetaManager::SnapshotMetrics() const {
  obs::MetricsSnapshot snap = metrics_.Snapshot();
  redirector_.ExportStats(snap);
  const cms::Membership& membership = redirector_.membership();
  snap.AddGauge("fed.clusters", static_cast<std::int64_t>(membership.MemberCount()));
  snap.AddGauge("fed.clusters_online",
                static_cast<std::int64_t>(membership.OnlineSet().count()));
  return snap;
}

void MetaManager::OnPeerDown(net::NodeAddr peer) { redirector_.OnPeerDown(peer); }

void MetaManager::OnMessage(net::NodeAddr from, proto::Message message) {
  std::visit(
      [this, from](auto&& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, proto::FedSubscribe>) {
          HandleSubscribe(from, m);
        } else if constexpr (std::is_same_v<M, proto::FedHave>) {
          redirector_.OnHave(from, m);
        } else if constexpr (std::is_same_v<M, proto::FedGone>) {
          redirector_.OnGone(from, m.path);
        } else if constexpr (std::is_same_v<M, proto::FedLocate>) {
          HandleLocate(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdOpen>) {
          // Every client answer is redirect / wait / error: the meta serves
          // no data and holds no namespace, only location bits.
          fm_.locates.Inc();
          redirector_.Open(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdStat>) {
          fm_.locates.Inc();
          redirector_.Redirect<proto::XrdStatResp>(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdUnlink>) {
          fm_.locates.Inc();
          redirector_.Redirect<proto::XrdUnlinkResp>(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdChecksum>) {
          fm_.locates.Inc();
          redirector_.Redirect<proto::XrdChecksumResp>(from, m);
        } else if constexpr (std::is_same_v<M, proto::XrdPrepare>) {
          redirector_.Prepare(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsPong>) {
          redirector_.OnPong(from, m);
        } else if constexpr (std::is_same_v<M, proto::CmsDrain>) {
          // Operator drain by cluster name: takes a whole cluster out of
          // federation selection while it stays subscribed.
          proto::CmsDrainResp resp;
          resp.reqId = m.reqId;
          resp.ok = resp.applied = redirector_.SetDraining(m.server, !m.restore);
          if (!resp.ok) resp.error = "unknown cluster '" + m.server + "'";
          if (m.reqId != 0) fabric_.Send(config_.addr, from, std::move(resp));
        } else if constexpr (std::is_same_v<M, proto::StatsQuery>) {
          // Each head answers with its already tree-aggregated cluster
          // snapshot, so this fold is a federation-of-clusters merge.
          redirector_.OnStatsQuery(from, m, [this] { return SnapshotMetrics(); });
        } else if constexpr (std::is_same_v<M, proto::StatsReply>) {
          redirector_.OnStatsReply(from, m);
        } else if constexpr (std::is_same_v<M, proto::PcacheAdmin>) {
          proto::PcacheAdminResp resp;
          resp.reqId = m.reqId;
          resp.err = proto::XrdErr::kInvalid;
          fabric_.Send(config_.addr, from, std::move(resp));
        } else {
          // Data-path frames (read/write/close) never arrive here: the
          // meta redirects before any handle exists.
        }
      },
      std::move(message));
}

void MetaManager::HandleSubscribe(net::NodeAddr from, const proto::FedSubscribe& m) {
  proto::FedSubscribeResp resp;
  const auto result = membership().Login(m.cluster, m.exports, m.allowWrite,
                                         /*isSupervisor=*/false);
  if (!result.has_value()) {
    // 64 clusters per meta; federations grow by stacking metas, which is
    // out of scope here — fail loudly rather than silently dropping.
    resp.ok = false;
    resp.error = "federation set full";
    fabric_.Send(config_.addr, from, std::move(resp));
    return;
  }
  // Locality dominates: a far cluster only wins a load-based selection
  // when every nearer replica is saturated past a full locality step.
  const std::uint32_t bias = m.locality * kLocalityScale;
  redirector_.Admit(result->slot, from, bias);
  membership().ReportLoad(result->slot, bias, std::uint64_t{1} << 40);
  fm_.subscribes.Inc();
  resp.ok = true;
  resp.clusterId = result->slot;
  fabric_.Send(config_.addr, from, std::move(resp));
}

void MetaManager::HandleLocate(net::NodeAddr from, const proto::FedLocate& m) {
  fm_.locates.Inc();
  cms::LocateOptions opts;
  opts.mode = xrd::ModeOf(m.mode);
  opts.refresh = m.refresh;
  if (m.avoidCluster != 0) {
    const auto avoid = ClusterOfHead(m.avoidCluster);
    if (avoid.has_value()) opts.avoid = *avoid;
  }
  resolver().Locate(m.path, opts, [this, from, reqId = m.reqId](const LocateResult& r) {
    proto::FedRedirect resp;
    resp.reqId = reqId;
    switch (r.status) {
      case LocateStatus::kRedirect: {
        resp.status = proto::XrdStatus::kRedirect;
        resp.clusterId = r.server;
        resp.headAddr = HeadOfCluster(r.server);
        const auto info = membership().InfoOf(r.server);
        if (info.has_value()) resp.cluster = info->name;
        redirector_.redirectsIssued().Inc();
        break;
      }
      case LocateStatus::kWait:
        resp.status = proto::XrdStatus::kWait;
        resp.waitNs = r.wait.count();
        redirector_.waitsIssued().Inc();
        break;
      case LocateStatus::kRetry:
        resp.status = proto::XrdStatus::kError;
        resp.err = proto::XrdErr::kStale;
        break;
      case LocateStatus::kNotFound:
        resp.status = proto::XrdStatus::kError;
        resp.err = proto::XrdErr::kNotFound;
        fm_.notFound.Inc();
        break;
    }
    fabric_.Send(config_.addr, from, std::move(resp));
  });
}

}  // namespace scalla::fed
