#include "cluster.h"

#include <thread>

#include "oss/mem_oss.h"
#include "procstat.h"
#include "util/clock.h"

namespace perfbench {

namespace net = scalla::net;
namespace xrd = scalla::xrd;

Cluster::Cluster(const Workload& workload, std::uint16_t basePort, bool traced,
                 const std::filesystem::path& dataDir)
    : traced_(traced) {
  tcp_ = std::make_unique<net::TcpFabric>(basePort);
  if (traced_) tfab_ = std::make_unique<TracedFabric>(*tcp_, book_);

  auto addExec = [this](std::string role) {
    auto e = std::make_unique<Exec>();
    e->role = std::move(role);
    e->raw = std::make_unique<scalla::sched::ThreadExecutor>();
    if (traced_) e->traced = std::make_unique<TracedExecutor>(*e->raw);
    execs_.push_back(std::move(e));
  };
  addExec("manager");
  for (int i = 0; i < kServers; ++i) addExec("server" + std::to_string(i));
  if (workload.UsesProxy()) addExec("proxy");
  addExec("client");

  for (int i = 0; i < kServers; ++i) stores_.push_back(workload.MakeStore(i, dataDir));

  xrd::NodeConfig mgr;
  mgr.role = xrd::NodeRole::kManager;
  mgr.name = "manager";
  mgr.addr = kManagerAddr;
  mgr.exports = {"/store"};
  manager_ = std::make_unique<xrd::ScallaNode>(mgr, managerExec().use(), fabric(), nullptr);
  for (int i = 0; i < kServers; ++i) {
    xrd::NodeConfig leaf;
    leaf.role = xrd::NodeRole::kServer;
    leaf.name = "server" + std::to_string(i);
    leaf.addr = kServerAddr0 + static_cast<net::NodeAddr>(i);
    leaf.parent = kManagerAddr;
    leaf.exports = {"/store"};
    servers_.push_back(std::make_unique<xrd::ScallaNode>(
        leaf, execs_[1 + static_cast<std::size_t>(i)]->use(), fabric(),
        WrapStore(stores_[static_cast<std::size_t>(i)].get())));
  }

  scalla::client::ClientConfig cc;
  cc.addr = kClientAddr;
  cc.head = kManagerAddr;
  if (workload.UsesProxy()) {
    stores_.push_back(
        std::make_unique<scalla::oss::MemOss>(scalla::util::SystemClock::Instance()));
    scalla::pcache::ProxyCacheConfig pc;
    pc.addr = kProxyAddr;
    pc.origin.head = kManagerAddr;
    pc.cache.capacityBytes = kProxyDramBytes;
    pc.diskCapacityBytes = kProxyDiskBytes;
    pc.diskOss = WrapStore(stores_.back().get());
    proxy_ = std::make_unique<scalla::pcache::ProxyCacheNode>(pc, proxyExec()->use(), fabric());
    cc.head = kProxyAddr;
  }
  client_ = std::make_unique<scalla::client::ScallaClient>(cc, clientExec().use(), fabric());
}

Cluster::~Cluster() {
  // Nodes are actors: stop each on its own dispatch thread.
  RunOn(*managerExec().raw, [this] { manager_->Stop(); });
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    RunOn(*execs_[1 + i]->raw, [this, i] { servers_[i]->Stop(); });
  }
  for (net::NodeAddr addr : registered_) tcp_->Unregister(addr);
  for (auto& e : execs_) e->raw->Stop();
  client_.reset();
  proxy_.reset();
  servers_.clear();
  manager_.reset();
  sinks_.clear();
  tfab_.reset();
  tcp_.reset();
  tstores_.clear();
  stores_.clear();
  execs_.clear();
}

net::Fabric& Cluster::fabric() {
  return tfab_ ? static_cast<net::Fabric&>(*tfab_) : *tcp_;
}

net::MessageSink* Cluster::Wrap(net::MessageSink* sink, net::NodeAddr addr,
                                const std::string& role) {
  if (!traced_) return sink;
  sinks_.push_back(std::make_unique<TracedSink>(*sink, addr, role, book_));
  return sinks_.back().get();
}

scalla::oss::Oss* Cluster::WrapStore(scalla::oss::Oss* store) {
  if (!traced_) return store;
  tstores_.push_back(std::make_unique<TracedOss>(*store));
  return tstores_.back().get();
}

bool Cluster::Register(net::NodeAddr addr, net::MessageSink* sink, Exec& exec,
                       std::string* error) {
  if (!tcp_->Register(addr, sink, &exec.use())) {
    *error = "TcpFabric::Register failed for address " + std::to_string(addr);
    return false;
  }
  registered_.push_back(addr);
  return true;
}

bool Cluster::Start(Workload& workload, std::string* error) {
  if (!workload.UsesLocalOss() && !workload.Seed(target())) {
    *error = "seeding the stores failed";
    return false;
  }
  workload.Attach(target());

  // Manager before its subordinates, so the servers' first login lands
  // and nothing waits out the login retry.
  auto* mgrSink = Wrap(manager_.get(), kManagerAddr, "xrd.manager");
  if (tfab_) tfab_->SetResolveProbe(kManagerAddr, static_cast<TracedSink*>(mgrSink));
  if (!Register(kManagerAddr, mgrSink, managerExec(), error)) return false;
  for (int i = 0; i < kServers; ++i) {
    const auto addr = kServerAddr0 + static_cast<net::NodeAddr>(i);
    if (!Register(addr, Wrap(servers_[static_cast<std::size_t>(i)].get(), addr, "xrd.server"),
                  *execs_[1 + static_cast<std::size_t>(i)], error)) {
      return false;
    }
  }
  if (proxy_ && !Register(kProxyAddr, Wrap(proxy_.get(), kProxyAddr, "pcache.proxy"),
                          *proxyExec(), error)) {
    return false;
  }
  if (!Register(kClientAddr, Wrap(client_.get(), kClientAddr, "client"), clientExec(), error)) {
    return false;
  }

  manager_->Start();
  for (auto& s : servers_) s->Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (RunOn(*managerExec().raw, [this] { return manager_->membership().MemberCount(); }) <
         static_cast<std::size_t>(kServers)) {
    if (std::chrono::steady_clock::now() > deadline) {
      *error = "servers did not log in within 10 s";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& e : execs_) e->tid = RunOn(*e->raw, [] { return CurrentTid(); });
  return true;
}

Target Cluster::target() {
  Target t;
  t.client = client_.get();
  t.clientExec = &clientExec().use();
  for (int i = 0; i < kServers; ++i) {
    t.stores.push_back(stores_[static_cast<std::size_t>(i)].get());
    t.serverAddrs.push_back(kServerAddr0 + static_cast<net::NodeAddr>(i));
  }
  t.proxyAddr = proxy_ ? kProxyAddr : 0;
  return t;
}

std::uint64_t Cluster::OssCalls() const {
  std::uint64_t n = 0;
  for (const auto& s : tstores_) n += s->calls();
  return n;
}

std::uint64_t Cluster::OssBytes() const {
  std::uint64_t n = 0;
  for (const auto& s : tstores_) n += s->bytes();
  return n;
}

}  // namespace perfbench
