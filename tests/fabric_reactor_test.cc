// Reactor-core tests for the redesigned transport surface: framing across
// partial writes (tiny SO_SNDBUF) and coalesced reads, idle-connection
// reaping with transparent reconnect, per-peer counter attribution and
// the identity that the global counters are the sum of the per-peer ones,
// FabricOptions validation, executor-batched delivery (per-sender FIFO,
// the Unregister barrier), fault setters racing a live sender, and the
// uniform FaultInjector contract — the same chaos scenario driven through
// net::Fabric* against both SimFabric and TcpFabric without downcasting.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tcp_fabric.h"
#include "sched/thread_executor.h"
#include "sim/event_engine.h"
#include "sim/sim_fabric.h"

namespace scalla {
namespace {

using namespace std::chrono_literals;

// Own band: above bench_fabric (14000–15536) and below the fabric soak
// (18000). Every band stays below the ephemeral port range (32768+) so a
// leftover outbound socket can never squat on a listener port.
std::uint16_t NextBasePort() {
  static std::atomic<std::uint16_t> next{16500};
  return next.fetch_add(100);
}

struct CountingSink : net::MessageSink {
  std::mutex mu;
  std::condition_variable cv;
  int messages = 0;
  int peerDowns = 0;
  std::uint64_t payloadBytes = 0;  // total XrdWrite data received
  bool payloadIntact = true;       // every XrdWrite data byte was 'w'

  void OnMessage(net::NodeAddr, proto::Message message) override {
    std::lock_guard lock(mu);
    ++messages;
    if (const auto* write = std::get_if<proto::XrdWrite>(&message)) {
      payloadBytes += write->data.size();
      for (const char c : write->data) {
        if (c != 'w') payloadIntact = false;
      }
    }
    cv.notify_all();
  }
  void OnPeerDown(net::NodeAddr) override {
    std::lock_guard lock(mu);
    ++peerDowns;
    cv.notify_all();
  }
  int Messages() {
    std::lock_guard lock(mu);
    return messages;
  }
  int PeerDowns() {
    std::lock_guard lock(mu);
    return peerDowns;
  }
  bool WaitMessages(int n, Duration timeout = 10s) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return messages >= n; });
  }
  bool WaitPeerDowns(int n, Duration timeout = 10s) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return peerDowns >= n; });
  }
};

proto::Message SmallMessage() { return proto::XrdClose{1, 2}; }

// Blocks until every task posted to `exec` before this call has run.
void Drain(sched::Executor& exec) {
  std::promise<void> done;
  exec.Post([&done] { done.set_value(); });
  done.get_future().wait();
}

// All ten counter fields, in declaration order, for whole-struct compares.
std::array<std::uint64_t, 10> Fields(const net::Fabric::Counters& c) {
  return {c.messagesSent,  c.messagesDelivered, c.messagesDropped,
          c.framesSent,    c.framesReceived,    c.bytesSent,
          c.bytesReceived, c.reconnects,        c.idleReaps,
          c.queueOverflows};
}

// Stops and joins helper threads on every exit path, so a failed ASSERT
// does not leave a joinable std::thread behind.
struct StopAndJoin {
  std::atomic<bool>& stop;
  std::vector<std::thread>& threads;
  ~StopAndJoin() {
    stop.store(true);
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }
};

TEST(FabricOptionsTest, ValidatesRanges) {
  net::FabricOptions ok;
  EXPECT_TRUE(net::ValidateFabricOptions(ok).ok());

  net::FabricOptions bad = ok;
  bad.loopThreads = 0;
  auto r = net::ValidateFabricOptions(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("fabric.loopthreads"), std::string::npos);

  bad = ok;
  bad.loopThreads = 65;
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.maxQueuedMessages = 0;
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.connectTimeout = std::chrono::milliseconds(0);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.writeTimeout = std::chrono::milliseconds(-1);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());

  bad = ok;
  bad.idleTimeout = std::chrono::milliseconds(-1);
  EXPECT_FALSE(net::ValidateFabricOptions(bad).ok());
  bad.idleTimeout = std::chrono::milliseconds(0);  // zero disables: legal
  EXPECT_TRUE(net::ValidateFabricOptions(bad).ok());
}

// A 1 MB frame through a 4 KB socket buffer cannot leave in one write:
// the connection takes EAGAIN mid-frame and must resume from its partial
// offset without corrupting the stream.
TEST(FabricReactorTest, PartialWritesPreserveFraming) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.sendBufferBytes = 4096;
  CountingSink a, b;  // sinks must outlive the fabric
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  constexpr int kFrames = 8;
  constexpr std::size_t kPayload = 1 << 20;
  proto::XrdWrite big;
  big.data.assign(kPayload, 'w');
  for (int i = 0; i < kFrames; ++i) fabric.Send(1, 2, big);

  ASSERT_TRUE(b.WaitMessages(kFrames, 30s));
  EXPECT_EQ(b.payloadBytes, static_cast<std::uint64_t>(kFrames) * kPayload);
  EXPECT_TRUE(b.payloadIntact);
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesSent, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.framesReceived, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.messagesDropped, 0u);
}

// Many small frames sent back-to-back coalesce into fewer TCP segments;
// the receive path must slice frames back out of arbitrary read-chunk
// boundaries.
TEST(FabricReactorTest, CoalescedSmallFramesAllParsed) {
  const auto base = NextBasePort();
  CountingSink a, b;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(kFrames));
  const auto c = fabric.GetCounters();
  EXPECT_EQ(c.framesReceived, static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(c.messagesDelivered, static_cast<std::uint64_t>(kFrames));
}

TEST(FabricReactorTest, IdleConnectionReapedAndReconnectsTransparently) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.idleTimeout = 200ms;
  CountingSink a, b;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));

  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(1));
  // The connection established for that send goes quiet and is reaped.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fabric.ActiveOutboundConnections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(fabric.ActiveOutboundConnections(), 0u);
  EXPECT_GE(fabric.GetCounters().idleReaps, 1u);

  // The next send re-establishes silently: delivered, with no reconnect
  // counted (the reap was planned, not a stale-connection failure) and no
  // OnPeerDown on either endpoint.
  fabric.Send(1, 2, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(2));
  EXPECT_EQ(fabric.GetCounters().reconnects, 0u);
  EXPECT_EQ(a.PeerDowns(), 0);
  EXPECT_EQ(b.PeerDowns(), 0);
}

TEST(FabricReactorTest, PerPeerCountersAttributeTraffic) {
  const auto base = NextBasePort();
  CountingSink a, b, c;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));
  ASSERT_TRUE(fabric.Register(3, &c, nullptr));

  for (int i = 0; i < 3; ++i) fabric.Send(1, 2, SmallMessage());
  for (int i = 0; i < 5; ++i) fabric.Send(1, 3, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(3));
  ASSERT_TRUE(c.WaitMessages(5));

  // Send-side attribution keys on the destination peer...
  const auto toB = fabric.PerPeerCounters(2);
  EXPECT_EQ(toB.messagesSent, 3u);
  EXPECT_EQ(toB.framesSent, 3u);
  EXPECT_GT(toB.bytesSent, 0u);
  const auto toC = fabric.PerPeerCounters(3);
  EXPECT_EQ(toC.messagesSent, 5u);
  EXPECT_EQ(toC.framesSent, 5u);
  // ...receive-side attribution keys on the sender: all 8 frames arrived
  // from peer 1, regardless of which endpoint they landed on.
  const auto from1 = fabric.PerPeerCounters(1);
  EXPECT_EQ(from1.framesReceived, 8u);
  EXPECT_EQ(from1.messagesDelivered, 8u);
  EXPECT_GT(from1.bytesReceived, 0u);
  // An address nobody talked to reads all-zero.
  EXPECT_EQ(fabric.PerPeerCounters(77).framesSent, 0u);
}

// Every kind of counter movement — a silent drop, a queue overflow, a
// reconnect after a peer restart, an idle reap — lands in exactly one
// per-peer slot, so the global totals are the field-wise sum of the
// per-peer counters over every address that carried traffic.
TEST(FabricReactorTest, GlobalCountersAreSumOfPerPeerCounters) {
  const auto base = NextBasePort();
  net::FabricOptions cfg;
  cfg.maxQueuedMessages = 4;
  cfg.idleTimeout = 300ms;
  CountingSink a, b, c, b2;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(1, &a, nullptr));
  ASSERT_TRUE(fabric.Register(2, &b, nullptr));
  ASSERT_TRUE(fabric.Register(3, &c, nullptr));

  for (int i = 0; i < 3; ++i) fabric.Send(1, 2, SmallMessage());
  for (int i = 0; i < 2; ++i) fabric.Send(2, 1, SmallMessage());
  ASSERT_TRUE(b.WaitMessages(3));
  ASSERT_TRUE(a.WaitMessages(2));

  // Silent drop.
  fabric.SetDrop(1, 2, true);
  for (int i = 0; i < 3; ++i) fabric.Send(1, 2, SmallMessage());
  fabric.SetDrop(1, 2, false);

  // Queue overflow: a paced pair backs up past its 4-frame bound.
  fabric.SetDelay(1, 3, 50ms);
  for (int i = 0; i < 20; ++i) fabric.Send(1, 3, SmallMessage());
  fabric.SetDelay(1, 3, Duration::zero());
  ASSERT_TRUE(c.WaitMessages(1));

  // Reconnect after a peer restart.
  fabric.Unregister(2);
  ASSERT_TRUE(fabric.Register(2, &b2, nullptr));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (b2.Messages() == 0 && std::chrono::steady_clock::now() < deadline) {
    fabric.Send(1, 2, SmallMessage());
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_GE(b2.Messages(), 1);

  // Idle reap: every connection goes quiet and is closed.
  const auto reapDeadline = std::chrono::steady_clock::now() + 10s;
  while (fabric.ActiveOutboundConnections() > 0 &&
         std::chrono::steady_clock::now() < reapDeadline) {
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_EQ(fabric.ActiveOutboundConnections(), 0u);

  // Quiescent: two reads far apart agree.
  net::Fabric::Counters total = fabric.GetCounters();
  for (;;) {
    std::this_thread::sleep_for(100ms);
    const net::Fabric::Counters again = fabric.GetCounters();
    if (Fields(total) == Fields(again)) break;
    total = again;
  }
  EXPECT_GE(total.messagesDropped, 3u);
  EXPECT_GE(total.queueOverflows, 1u);
  EXPECT_GE(total.reconnects, 1u);
  EXPECT_GE(total.idleReaps, 1u);

  std::array<std::uint64_t, 10> sum{};
  for (const net::NodeAddr addr : {1u, 2u, 3u}) {
    const auto peer = Fields(fabric.PerPeerCounters(addr));
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += peer[i];
  }
  EXPECT_EQ(Fields(total), sum);
}

// Records, per sender, the XrdClose reqIds it received in arrival order,
// and counts any delivery that lands after `closed` was set.
struct SequenceSink : net::MessageSink {
  std::mutex mu;
  std::condition_variable cv;
  std::map<net::NodeAddr, std::vector<std::uint64_t>> seen;
  int total = 0;
  std::atomic<bool> closed{false};
  std::atomic<int> late{0};

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    if (closed.load()) late.fetch_add(1);
    const auto* close = std::get_if<proto::XrdClose>(&message);
    std::lock_guard lock(mu);
    seen[from].push_back(close != nullptr ? close->reqId : ~std::uint64_t{0});
    ++total;
    cv.notify_all();
  }
  bool WaitTotal(int n, Duration timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return total >= n; });
  }
};

// The batched executor path: frames parsed from one read slice reach a
// real ThreadExecutor as one task. Two senders' streams must each arrive
// complete and in order, and once Unregister has returned and the
// executor has drained, no OnMessage may run even though both senders
// keep sending.
TEST(FabricReactorTest, ExecutorDeliveryKeepsPerSenderFifo) {
  const auto base = NextBasePort();
  constexpr int kFrames = 10000;
  constexpr net::NodeAddr kReceiver = 9;
  net::FabricOptions cfg;
  cfg.maxQueuedMessages = 2 * kFrames;  // the burst must not overflow
  SequenceSink sink;
  sched::ThreadExecutor exec;
  net::TcpFabric fabric(base, cfg);
  ASSERT_TRUE(fabric.Register(kReceiver, &sink, &exec));

  std::atomic<bool> stop{false};
  std::atomic<bool> trickle{false};  // after the burst, keep sending slowly
  auto sendLoop = [&](net::NodeAddr from) {
    std::uint64_t seq = 0;
    for (; seq < kFrames; ++seq) fabric.Send(from, kReceiver, proto::XrdClose{seq, 0});
    while (!trickle.load() && !stop.load()) std::this_thread::sleep_for(1ms);
    while (!stop.load()) {
      fabric.Send(from, kReceiver, proto::XrdClose{seq++, 0});
      std::this_thread::sleep_for(100us);
    }
  };
  std::vector<std::thread> senders;
  StopAndJoin joiner{stop, senders};
  senders.emplace_back(sendLoop, 1);
  senders.emplace_back(sendLoop, 2);

  ASSERT_TRUE(sink.WaitTotal(2 * kFrames, 60s));
  {
    std::lock_guard lock(sink.mu);
    for (const net::NodeAddr from : {1u, 2u}) {
      const auto& got = sink.seen[from];
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames)) << from;
      for (int i = 0; i < kFrames; ++i) {
        ASSERT_EQ(got[i], static_cast<std::uint64_t>(i)) << "sender " << from;
      }
    }
  }
  EXPECT_EQ(fabric.GetCounters().messagesDelivered,
            static_cast<std::uint64_t>(2 * kFrames));
  EXPECT_EQ(fabric.PerPeerCounters(1).messagesDelivered,
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(fabric.PerPeerCounters(2).messagesDelivered,
            static_cast<std::uint64_t>(kFrames));

  // Tear the endpoint down mid-stream.
  trickle.store(true);
  ASSERT_TRUE(sink.WaitTotal(2 * kFrames + 100, 30s));
  fabric.Unregister(kReceiver);
  Drain(exec);
  sink.closed.store(true);
  std::this_thread::sleep_for(200ms);
  stop.store(true);
  for (auto& t : senders) t.join();
  Drain(exec);
  EXPECT_EQ(sink.late.load(), 0);

  // Whatever arrived, arrived in per-sender order.
  std::lock_guard lock(sink.mu);
  for (const auto& [from, got] : sink.seen) {
    for (std::size_t i = 1; i < got.size(); ++i) {
      ASSERT_LT(got[i - 1], got[i]) << "sender " << from;
    }
  }
}

// Records when each data frame arrived and answers pings with pongs, so
// the fault-flag test can check both delivery and round-trip time.
struct TimedSink : net::MessageSink {
  static constexpr std::uint64_t kData = 0;
  static constexpr std::uint64_t kPing = 1;
  static constexpr std::uint64_t kPong = 2;

  net::Fabric* fabric = nullptr;
  net::NodeAddr self = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<std::uint64_t, std::chrono::steady_clock::time_point>> data;
  std::uint64_t pongs = 0;

  void OnMessage(net::NodeAddr from, proto::Message message) override {
    const auto* close = std::get_if<proto::XrdClose>(&message);
    if (close == nullptr) return;
    if (close->fileHandle == kPing) {
      fabric->Send(self, from, proto::XrdClose{close->reqId, kPong});
      return;
    }
    std::lock_guard lock(mu);
    if (close->fileHandle == kPong) {
      ++pongs;
    } else {
      data.emplace_back(close->reqId, std::chrono::steady_clock::now());
    }
    cv.notify_all();
  }
  bool WaitData(std::uint64_t minSeq, Duration timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] {
      return !data.empty() && data.back().first >= minSeq;
    });
  }
  bool WaitPongs(std::uint64_t n, Duration timeout) {
    std::unique_lock lock(mu);
    return cv.wait_for(lock, timeout, [&] { return pongs >= n; });
  }
};

// While one thread keeps sending, another sets and then clears each fault
// kind. Every frame whose Send started after a setter returned, and
// finished before the matching clear, must obey the fault; after each
// clear delivery resumes; and once the last fault clears a round trip
// carries no trace of the cleared delay.
TEST(FaultFlagTest, SettersBindEveryLaterFrame) {
  const auto base = NextBasePort();
  constexpr auto kDelay = 100ms;
  constexpr auto kWindow = 300ms;
  TimedSink a, b;
  sched::ThreadExecutor execA, execB;
  net::TcpFabric fabric(base);
  a.fabric = b.fabric = &fabric;
  a.self = 1;
  b.self = 2;
  ASSERT_TRUE(fabric.Register(1, &a, &execA));
  ASSERT_TRUE(fabric.Register(2, &b, &execB));

  // The gate orders each Send against the fault thread: with the gate
  // held no Send is in progress, so `next` counts the completed sends.
  std::mutex gate;
  std::uint64_t next = 0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> sender;
  StopAndJoin joiner{stop, sender};
  sender.emplace_back([&] {
    while (!stop.load()) {
      {
        std::lock_guard lock(gate);
        fabric.Send(1, 2, proto::XrdClose{next, TimedSink::kData});
        ++next;
      }
      std::this_thread::sleep_for(500us);
    }
  });
  auto sentSoFar = [&] {
    std::lock_guard lock(gate);
    return next;
  };

  struct Fault {
    const char* name;
    std::function<void(bool)> set;
    bool delays;  // frames are paced rather than lost
  };
  const std::vector<Fault> faults = {
      {"down", [&](bool on) { fabric.SetDown(2, on); }, false},
      {"cut", [&](bool on) { fabric.SetLinkCut(1, 2, on); }, false},
      {"drop", [&](bool on) { fabric.SetDrop(1, 2, on); }, false},
      {"delay",
       [&](bool on) { fabric.SetDelay(1, 2, on ? Duration(kDelay) : Duration::zero()); },
       true},
      {"wedge", [&](bool on) { fabric.SetWedged(2, on); }, false},
  };
  struct Window {
    std::uint64_t from, to;  // frames [from, to) were sent under the fault
    std::chrono::steady_clock::time_point setAt, clearAt;
  };
  std::vector<Window> windows;
  for (const Fault& fault : faults) {
    fault.set(true);
    Window w;
    w.setAt = std::chrono::steady_clock::now();
    w.from = sentSoFar();
    std::this_thread::sleep_for(kWindow);
    w.to = sentSoFar();
    w.clearAt = std::chrono::steady_clock::now();
    fault.set(false);
    windows.push_back(w);
    ASSERT_GT(w.to, w.from) << fault.name;
    // Delivery resumes once the fault clears.
    ASSERT_TRUE(b.WaitData(sentSoFar(), 10s)) << fault.name;
  }
  stop.store(true);
  sender.front().join();

  // The last fault has cleared: a round trip is nowhere near the delay.
  for (std::uint64_t i = 1; i <= 5; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fabric.Send(1, 2, proto::XrdClose{i, TimedSink::kPing});
    ASSERT_TRUE(a.WaitPongs(i, 10s));
    EXPECT_LT(std::chrono::steady_clock::now() - start, kDelay / 2) << "ping " << i;
  }

  Drain(execB);
  std::lock_guard lock(b.mu);
  for (std::size_t i = 1; i < b.data.size(); ++i) {
    ASSERT_LT(b.data[i - 1].first, b.data[i].first);  // per-pair FIFO
  }
  for (std::size_t k = 0; k < faults.size(); ++k) {
    const Window& w = windows[k];
    std::uint64_t inWindow = 0;
    std::uint64_t beforeClear = 0;
    for (const auto& [seq, at] : b.data) {
      if (seq < w.from || seq >= w.to) continue;
      ++inWindow;
      if (at < w.clearAt) ++beforeClear;
    }
    if (!faults[k].delays) {
      EXPECT_EQ(inWindow, 0u) << faults[k].name;
      continue;
    }
    // Paced, not lost: all of them arrive, but at most one per delay
    // period while the delay was in force.
    EXPECT_EQ(inWindow, w.to - w.from) << faults[k].name;
    const auto periods = (w.clearAt - w.setAt) / kDelay;
    EXPECT_LE(beforeClear, static_cast<std::uint64_t>(periods) + 1) << faults[k].name;
  }
}

// ---- the uniform FaultInjector contract ----
// One scenario, written purely against net::Fabric*, runs over both
// transports. `wait` blocks until a sink saw n messages (virtual time for
// the sim, wall clock for TCP); `settle` gives silently-lost traffic a
// chance to (not) arrive before asserting absence.

struct TransportHooks {
  std::function<bool(CountingSink&, int)> wait;       // >= n messages
  std::function<bool(CountingSink&, int)> waitDowns;  // >= n peer-downs
  std::function<void()> settle;
};

void RunFaultScenario(net::Fabric& fabric, net::NodeAddr a, net::NodeAddr b,
                      CountingSink& sinkA, CountingSink& sinkB,
                      const TransportHooks& hooks) {
  // Baseline: the link works.
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 1));

  // Wedged receiver: frames vanish silently in BOTH directions and no
  // OnPeerDown fires anywhere — only a heartbeat can see this failure.
  fabric.SetWedged(b, true);
  for (int i = 0; i < 3; ++i) fabric.Send(a, b, SmallMessage());
  fabric.Send(b, a, SmallMessage());
  hooks.settle();
  EXPECT_EQ(sinkB.Messages(), 1);
  EXPECT_EQ(sinkA.Messages(), 0);
  EXPECT_EQ(sinkA.PeerDowns(), 0);
  EXPECT_EQ(sinkB.PeerDowns(), 0);
  fabric.SetWedged(b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 2));

  // One-way silent drop: a->b loses, b->a still works, nobody is told.
  fabric.SetDrop(a, b, true);
  fabric.Send(a, b, SmallMessage());
  fabric.Send(b, a, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkA, 1));
  hooks.settle();
  EXPECT_EQ(sinkB.Messages(), 2);
  EXPECT_EQ(sinkA.PeerDowns(), 0);
  fabric.SetDrop(a, b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 3));

  // Downed endpoint: the sender is told its peer is gone (asynchronously
  // on both transports), the message is not delivered.
  fabric.SetDown(b, true);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.waitDowns(sinkA, 1));
  EXPECT_EQ(sinkB.Messages(), 3);
  fabric.SetDown(b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 4));

  // Cut link: visible break, sender told; heal restores delivery.
  fabric.SetLinkCut(a, b, true);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.waitDowns(sinkA, 2));
  fabric.SetLinkCut(a, b, false);
  fabric.Send(a, b, SmallMessage());
  ASSERT_TRUE(hooks.wait(sinkB, 5));
}

TEST(FaultInjectorContractTest, SimFabric) {
  sim::EventEngine engine;
  sim::SimFabric fabric(engine);
  CountingSink sinkA, sinkB;
  fabric.Register(1, &sinkA);
  fabric.Register(2, &sinkB);

  TransportHooks hooks;
  hooks.wait = [&](CountingSink& s, int n) {
    return engine.RunUntilPredicate([&] { return s.Messages() >= n; },
                                    engine.Now() + 1s);
  };
  hooks.waitDowns = [&](CountingSink& s, int n) {
    return engine.RunUntilPredicate([&] { return s.PeerDowns() >= n; },
                                    engine.Now() + 1s);
  };
  hooks.settle = [&] { engine.RunFor(50ms); };
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, hooks);
}

TEST(FaultInjectorContractTest, TcpFabric) {
  const auto base = NextBasePort();
  CountingSink sinkA, sinkB;  // sinks must outlive the fabric
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sinkA, nullptr));
  ASSERT_TRUE(fabric.Register(2, &sinkB, nullptr));

  TransportHooks hooks;
  hooks.wait = [&](CountingSink& s, int n) { return s.WaitMessages(n); };
  hooks.waitDowns = [&](CountingSink& s, int n) { return s.WaitPeerDowns(n); };
  hooks.settle = [] { std::this_thread::sleep_for(250ms); };
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, hooks);
}

// The same contract with both endpoints behind real executors, so
// delivery takes the batched executor path.
TEST(FaultInjectorContractTest, TcpFabricWithExecutors) {
  const auto base = NextBasePort();
  CountingSink sinkA, sinkB;  // sinks and executors must outlive the fabric
  sched::ThreadExecutor execA, execB;
  net::TcpFabric fabric(base);
  ASSERT_TRUE(fabric.Register(1, &sinkA, &execA));
  ASSERT_TRUE(fabric.Register(2, &sinkB, &execB));

  TransportHooks hooks;
  hooks.wait = [&](CountingSink& s, int n) { return s.WaitMessages(n); };
  hooks.waitDowns = [&](CountingSink& s, int n) { return s.WaitPeerDowns(n); };
  hooks.settle = [] { std::this_thread::sleep_for(250ms); };
  RunFaultScenario(fabric, 1, 2, sinkA, sinkB, hooks);
}

}  // namespace
}  // namespace scalla
