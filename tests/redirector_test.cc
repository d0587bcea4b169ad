// The redirector core shared by a cluster head (xrd::ScallaNode) and the
// federation meta-manager (fed::MetaManager), driven at the message level
// on the sim fabric. Every test runs once per role: the same frames must
// get the same answers whether the children are servers that logged in
// or cluster heads that subscribed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "fed/meta_manager.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"
#include "xrd/scalla_node.h"

namespace scalla::xrd {
namespace {

using namespace std::chrono_literals;

constexpr net::NodeAddr kOwner = 1;
constexpr net::NodeAddr kClient = 50;

// Captures everything sent to one address.
struct Probe : net::MessageSink {
  std::vector<proto::Message> received;
  void OnMessage(net::NodeAddr, proto::Message m) override {
    received.push_back(std::move(m));
  }
  template <typename T>
  const T* Last() const {
    for (auto it = received.rbegin(); it != received.rend(); ++it) {
      if (const T* m = std::get_if<T>(&*it)) return m;
    }
    return nullptr;
  }
  template <typename T>
  int Count() const {
    int n = 0;
    for (const auto& m : received) n += std::holds_alternative<T>(m) ? 1 : 0;
    return n;
  }
};

enum class Role { kHead, kMeta };

std::string RoleName(const ::testing::TestParamInfo<Role>& info) {
  return info.param == Role::kHead ? "Head" : "Meta";
}

class RedirectorTest : public ::testing::TestWithParam<Role> {
 protected:
  RedirectorTest() : fabric_(engine_, sim::LatencyModel{}) {
    fabric_.Register(kClient, &client_);
  }

  // Builds the owner under test at kOwner (not started: no timers run).
  void Build(bool fastResponse = true) {
    cms::CmsConfig cms;
    cms.deadline = 500ms;
    cms.fastResponse = fastResponse;
    if (GetParam() == Role::kHead) {
      NodeConfig cfg;
      cfg.role = NodeRole::kManager;
      cfg.addr = kOwner;
      cfg.name = "head";
      cfg.exports = {"/store"};
      cfg.cms = cms;
      cfg.statsTimeout = kStatsTimeout;
      head_ = std::make_unique<ScallaNode>(cfg, engine_, fabric_, nullptr);
      fabric_.Register(kOwner, head_.get());
    } else {
      fed::MetaConfig cfg;
      cfg.addr = kOwner;
      cfg.cms = cms;
      cfg.statsTimeout = kStatsTimeout;
      meta_ = std::make_unique<fed::MetaManager>(cfg, engine_, fabric_);
      fabric_.Register(kOwner, meta_.get());
    }
  }

  // A child named `name` joins from `addr`: a login at a head, a
  // subscription at the meta.
  Probe& Join(net::NodeAddr addr, const std::string& name, bool allowWrite = true) {
    auto& probe = children_[addr];
    if (!probe) {
      probe = std::make_unique<Probe>();
      fabric_.Register(addr, probe.get());
    }
    if (GetParam() == Role::kHead) {
      fabric_.Send(addr, kOwner, proto::CmsLogin{name, {"/store"}, allowWrite, false});
    } else {
      fabric_.Send(addr, kOwner, proto::FedSubscribe{name, {"/store"}, allowWrite, 0});
    }
    engine_.RunUntilIdle();
    return *probe;
  }

  // Child at `addr` reports that it holds `path` (`newfile`: unasked, as
  // the notice of a creation beneath it).
  void Have(net::NodeAddr addr, const std::string& path, bool newfile = false) {
    const std::uint32_t hash = cms::LocationCache::HashOf(path);
    if (GetParam() == Role::kHead) {
      fabric_.Send(addr, kOwner, proto::CmsHave{path, hash, false, true, newfile});
    } else {
      fabric_.Send(addr, kOwner, proto::FedHave{path, hash, false, true, newfile});
    }
    engine_.RunUntilIdle();
  }

  int QueriesTo(net::NodeAddr addr) {
    return children_[addr]->Count<proto::CmsQuery>() +
           children_[addr]->Count<proto::FedQuery>();
  }

  void Send(proto::Message m) {
    fabric_.Send(kClient, kOwner, std::move(m));
    engine_.RunUntilIdle();
  }

  net::MessageSink& owner() {
    if (head_) return *head_;
    return *meta_;
  }
  cms::Membership& membership() { return head_ ? head_->membership() : meta_->membership(); }
  std::optional<ServerSlot> SlotOfAddr(net::NodeAddr addr) const {
    return head_ ? head_->SlotOfAddr(addr) : meta_->ClusterOfHead(addr);
  }
  obs::MetricsSnapshot Snapshot() const {
    return head_ ? head_->SnapshotMetrics() : meta_->SnapshotMetrics();
  }
  std::string Counter(const std::string& name) const {
    return (GetParam() == Role::kHead ? "node." : "fed.") + name;
  }

  static constexpr Duration kStatsTimeout = 200ms;

  sim::EventEngine engine_;
  sim::SimFabric fabric_;
  Probe client_;
  std::map<net::NodeAddr, std::unique_ptr<Probe>> children_;
  std::unique_ptr<ScallaNode> head_;
  std::unique_ptr<fed::MetaManager> meta_;
};

INSTANTIATE_TEST_SUITE_P(Roles, RedirectorTest, ::testing::Values(Role::kHead, Role::kMeta),
                         RoleName);

TEST_P(RedirectorTest, ReloginFromNewAddressDropsTheOldMapping) {
  Build();
  Join(10, "s1");
  const auto slot = SlotOfAddr(10);
  ASSERT_TRUE(slot.has_value());
  // Same name and exports from a new address: the member keeps its slot.
  Join(11, "s1");
  ASSERT_EQ(SlotOfAddr(11), slot);
  EXPECT_FALSE(SlotOfAddr(10).has_value());

  // The old address going down must not take the live member with it.
  owner().OnPeerDown(10);
  const auto info = membership().InfoOf(*slot);
  ASSERT_TRUE(info.has_value());
  EXPECT_TRUE(info->online);
  // Nor is a pong from the old address credited to the member.
  fabric_.Send(10, kOwner, proto::CmsPong{1, 7, 0});
  engine_.RunUntilIdle();
  EXPECT_EQ(Snapshot().Counter(Counter("pongs_received")), 0u);
}

TEST_P(RedirectorTest, StatUnlinkChecksumAnswerRedirectWaitAndError) {
  Build(/*fastResponse=*/false);  // an unknown path then waits at once
  Join(10, "s1");

  // Never seen: the child is asked and the client told to wait.
  Send(proto::XrdStat{1, "/store/f"});
  Send(proto::XrdUnlink{2, "/store/g"});
  Send(proto::XrdChecksum{3, "/store/h"});
  ASSERT_NE(client_.Last<proto::XrdStatResp>(), nullptr);
  ASSERT_NE(client_.Last<proto::XrdUnlinkResp>(), nullptr);
  ASSERT_NE(client_.Last<proto::XrdChecksumResp>(), nullptr);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->status, proto::XrdStatus::kWait);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->waitNs, Duration(500ms).count());
  EXPECT_EQ(client_.Last<proto::XrdUnlinkResp>()->status, proto::XrdStatus::kWait);
  EXPECT_EQ(client_.Last<proto::XrdChecksumResp>()->status, proto::XrdStatus::kWait);

  // The child answers the flood: each op is now redirected to it.
  Have(10, "/store/f");
  Have(10, "/store/g");
  Have(10, "/store/h");
  Send(proto::XrdStat{4, "/store/f"});
  Send(proto::XrdUnlink{5, "/store/g"});
  Send(proto::XrdChecksum{6, "/store/h"});
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->redirectNode, 10u);
  EXPECT_EQ(client_.Last<proto::XrdUnlinkResp>()->status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(client_.Last<proto::XrdUnlinkResp>()->redirectNode, 10u);
  EXPECT_EQ(client_.Last<proto::XrdChecksumResp>()->status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(client_.Last<proto::XrdChecksumResp>()->redirectNode, 10u);

  // Outside every export: no child could have it.
  Send(proto::XrdStat{7, "/elsewhere/x"});
  Send(proto::XrdUnlink{8, "/elsewhere/x"});
  Send(proto::XrdChecksum{9, "/elsewhere/x"});
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->status, proto::XrdStatus::kError);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->err, proto::XrdErr::kNotFound);
  EXPECT_EQ(client_.Last<proto::XrdUnlinkResp>()->status, proto::XrdStatus::kError);
  EXPECT_EQ(client_.Last<proto::XrdUnlinkResp>()->err, proto::XrdErr::kNotFound);
  EXPECT_EQ(client_.Last<proto::XrdChecksumResp>()->status, proto::XrdStatus::kError);
  EXPECT_EQ(client_.Last<proto::XrdChecksumResp>()->err, proto::XrdErr::kNotFound);

  // The three redirects count; waits count only for opens.
  EXPECT_EQ(Snapshot().Counter(Counter("redirects_issued")), 3u);
  EXPECT_EQ(Snapshot().Counter(Counter("waits_issued")), 0u);
}

TEST_P(RedirectorTest, NewfileHaveCachesAPathNobodyAskedAbout) {
  Build(/*fastResponse=*/false);
  Join(10, "s1");
  Join(11, "s2");

  // A creation beneath s1, announced before any client asked for the path:
  // the next stat is redirected to s1 with no flood.
  Have(10, "/store/born", /*newfile=*/true);
  EXPECT_EQ(Snapshot().Counter("cache.creates"), 1u);
  Send(proto::XrdStat{1, "/store/born"});
  ASSERT_NE(client_.Last<proto::XrdStatResp>(), nullptr);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->redirectNode, 10u);
  EXPECT_EQ(QueriesTo(10) + QueriesTo(11), 0);
  EXPECT_EQ(Snapshot().Counter("resolver.queries_sent"), 0u);

  // A plain Have for a path nobody asked about is still dropped: the stat
  // that follows floods and waits.
  Have(11, "/store/plain");
  EXPECT_EQ(Snapshot().Counter("cache.creates"), 1u);
  Send(proto::XrdStat{2, "/store/plain"});
  EXPECT_EQ(client_.Last<proto::XrdStatResp>()->status, proto::XrdStatus::kWait);
  EXPECT_EQ(QueriesTo(10), 1);
  EXPECT_EQ(QueriesTo(11), 1);

  // Nor does a new-file notice outside every export create an entry.
  Have(10, "/elsewhere/born", /*newfile=*/true);
  EXPECT_EQ(Snapshot().Counter("cache.creates"), 2u);  // /store/plain's look-up
}

TEST_P(RedirectorTest, CreateAvoidsTheRefusingChildUnlessItIsTheOnlyWritableOne) {
  Build(/*fastResponse=*/false);
  Join(10, "s1");
  Join(11, "s2");
  Join(12, "s3", /*allowWrite=*/false);
  const auto create = [&](std::uint64_t reqId, const std::string& path, net::NodeAddr avoid) {
    Send(proto::XrdOpen{reqId, path, 1, true, false, avoid});
    return *client_.Last<proto::XrdOpenResp>();
  };

  // First ask floods the children and waits; past the deadline the path is
  // confirmed absent and the create is placed, never on s1 (refused) or s3
  // (read-only).
  EXPECT_EQ(create(1, "/store/new", 10).status, proto::XrdStatus::kWait);
  engine_.RunFor(600ms);
  const auto placed = create(2, "/store/new", 10);
  EXPECT_EQ(placed.status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(placed.redirectNode, 11u);

  // With s2 drained, the refusing s1 is the only writable child: it gets
  // the create anyway rather than failing the client.
  Send(proto::CmsDrain{0, "s2", false});
  EXPECT_EQ(create(3, "/store/other", 10).status, proto::XrdStatus::kWait);
  engine_.RunFor(600ms);
  const auto fallback = create(4, "/store/other", 10);
  EXPECT_EQ(fallback.status, proto::XrdStatus::kRedirect);
  EXPECT_EQ(fallback.redirectNode, 10u);
  EXPECT_EQ(Snapshot().Counter(Counter("redirects_issued")), 2u);
  EXPECT_EQ(Snapshot().Counter(Counter("waits_issued")), 2u);
}

TEST_P(RedirectorTest, StatsFoldAnswersAtTheTimeoutWithoutASilentChild) {
  Build();
  Probe& talker = Join(10, "s1");
  Join(11, "s2");  // never answers

  // Not Send(): running the engine idle would fire the fold's timeout.
  fabric_.Send(kClient, kOwner, proto::StatsQuery{77});
  engine_.RunFor(kStatsTimeout / 4);
  const auto* down = talker.Last<proto::StatsQuery>();
  ASSERT_NE(down, nullptr);
  ASSERT_NE(children_[11]->Last<proto::StatsQuery>(), nullptr);
  const std::uint64_t aggId = down->reqId;
  proto::StatsReply reply{aggId, 1, {}};
  reply.snapshot.AddCounter("child.marker", 5);
  fabric_.Send(10, kOwner, reply);
  engine_.RunFor(kStatsTimeout / 4);
  EXPECT_EQ(client_.Count<proto::StatsReply>(), 0);

  engine_.RunFor(kStatsTimeout);
  ASSERT_EQ(client_.Count<proto::StatsReply>(), 1);
  const auto& folded = *client_.Last<proto::StatsReply>();
  EXPECT_EQ(folded.reqId, 77u);
  EXPECT_EQ(folded.nodeCount, 2u);  // the owner plus the one child that answered
  EXPECT_EQ(folded.snapshot.Counter("child.marker"), 5u);
  EXPECT_EQ(folded.snapshot.Counter(Counter("stats_queries")), 1u);

  // The silent child's late answer is dropped, not forwarded.
  fabric_.Send(11, kOwner, proto::StatsReply{aggId, 1, {}});
  engine_.RunUntilIdle();
  EXPECT_EQ(client_.Count<proto::StatsReply>(), 1);
}

TEST_P(RedirectorTest, DrainAndRestoreByName) {
  Build();
  Join(10, "s1");
  const ServerSlot slot = *SlotOfAddr(10);

  Send(proto::CmsDrain{1, "s1", false});
  ASSERT_NE(client_.Last<proto::CmsDrainResp>(), nullptr);
  EXPECT_TRUE(client_.Last<proto::CmsDrainResp>()->ok);
  EXPECT_TRUE(client_.Last<proto::CmsDrainResp>()->applied);
  EXPECT_TRUE(membership().DrainingSet().test(slot));
  EXPECT_FALSE(membership().SelectableSet().test(slot));

  Send(proto::CmsDrain{2, "s1", true});
  EXPECT_TRUE(client_.Last<proto::CmsDrainResp>()->ok);
  EXPECT_FALSE(membership().DrainingSet().test(slot));
  EXPECT_TRUE(membership().SelectableSet().test(slot));

  Send(proto::CmsDrain{3, "nobody", false});
  EXPECT_EQ(client_.Last<proto::CmsDrainResp>()->reqId, 3u);
  EXPECT_FALSE(client_.Last<proto::CmsDrainResp>()->ok);
  EXPECT_FALSE(client_.Last<proto::CmsDrainResp>()->error.empty());
}

TEST_P(RedirectorTest, PrepareWarmsEveryPathAndReplies) {
  Build();
  Join(10, "s1");
  Send(proto::XrdPrepare{9, {"/store/a", "/store/b", "/store/c"}, 0});
  ASSERT_NE(client_.Last<proto::XrdPrepareResp>(), nullptr);
  EXPECT_EQ(client_.Last<proto::XrdPrepareResp>()->reqId, 9u);
  EXPECT_EQ(Snapshot().Counter("resolver.locates"), 3u);
  EXPECT_EQ(children_[10]->Count<proto::CmsQuery>() + children_[10]->Count<proto::FedQuery>(),
            3);
}

TEST(RedirectorExportTest, MetaExportsEveryCmsKeyAHeadExports) {
  sim::EventEngine engine;
  sim::SimFabric fabric(engine, sim::LatencyModel{});
  NodeConfig hcfg;
  hcfg.role = NodeRole::kManager;
  hcfg.addr = 1;
  ScallaNode head(hcfg, engine, fabric, nullptr);
  fed::MetaConfig mcfg;
  mcfg.addr = 2;
  fed::MetaManager meta(mcfg, engine, fabric);

  const auto names = [](const obs::MetricsSnapshot& s) {
    std::set<std::string> out;
    for (const auto& [name, _] : s.counters) out.insert(name);
    for (const auto& [name, _] : s.gauges) out.insert(name);
    return out;
  };
  const std::set<std::string> metaKeys = names(meta.SnapshotMetrics());
  int cmsKeys = 0;
  for (const std::string& key : names(head.SnapshotMetrics())) {
    const std::string component = key.substr(0, key.find('.'));
    if (component != "cache" && component != "resolver" && component != "respq" &&
        component != "maintenance" && component != "membership") {
      continue;
    }
    ++cmsKeys;
    EXPECT_EQ(metaKeys.count(key), 1u) << key;
  }
  EXPECT_GT(cmsKeys, 40);
}

}  // namespace
}  // namespace scalla::xrd
