// Bench-owned tracing decorators around the public interfaces the harness
// hands to the nodes: sched::Executor, net::MessageSink, net::Fabric and
// oss::Oss. Nothing inside the program is instrumented; each decorator
// records spans around the call it forwards, into per-thread buffers that
// are written out when the run ends.
//
// Every decorator is a pass-through while tracing is off (one relaxed
// atomic load per call), so the same cluster serves the untraced window
// and the traced one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.h"
#include "net/tcp_fabric.h"
#include "oss/oss.h"
#include "sched/executor.h"
#include "stats.h"

namespace perfbench {

std::uint64_t NowNs();

/// Process-wide span recorder. Each thread appends to its own buffer; the
/// buffers outlive the threads so they can be read after teardown.
class Tracer {
 public:
  /// Spans kept per thread; past this a thread stops recording and counts
  /// the loss instead of growing without bound.
  static constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 21;

  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> stack;  // open spans, innermost last
    std::uint64_t dropped = 0;
  };

  static Tracer& Get();

  static bool On() { return Get().on_.load(std::memory_order_relaxed); }
  void SetOn(bool on) { on_.store(on, std::memory_order_release); }

  std::uint16_t NameId(const std::string& name);
  std::string Name(std::uint16_t id) const;

  /// Opens a span on the calling thread; returns its index or -1.
  std::int32_t Begin(std::uint16_t name, std::uint64_t key);
  void End(std::int32_t index);

  /// All thread buffers. Only call once every traced thread is quiescent.
  std::vector<const ThreadBuffer*> Buffers() const;

  /// Writes every span as fixed-size binary records, preceded by the name
  /// table. Returns false if the file could not be written.
  bool WriteOut(const std::string& path) const;

 private:
  ThreadBuffer& Local();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint16_t> nameIds_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Send timestamps of messages in flight, so the receiving sink can time
/// transit from Fabric::Send to delivery on its executor.
class TransitBook {
 public:
  void Put(std::uint64_t key, std::uint64_t sentNs);
  std::optional<std::uint64_t> Take(std::uint64_t key);

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::uint64_t> sent;
  };
  Shard shards_[kShards];
};

class TracedExecutor final : public scalla::sched::Executor {
 public:
  explicit TracedExecutor(scalla::sched::Executor& inner);

  void Post(scalla::sched::Task task) override;
  scalla::sched::TimerId RunAfter(scalla::Duration delay, scalla::sched::Task task) override;
  scalla::sched::TimerId RunEvery(scalla::Duration period, scalla::sched::Task task) override;
  bool Cancel(scalla::sched::TimerId id) override;
  scalla::util::Clock& clock() override { return inner_.clock(); }

  /// Post-to-run waits recorded while tracing. Touched only on the
  /// executor's own thread; read it there (or after the thread stopped).
  std::vector<std::uint64_t>& waits() { return waits_; }

 private:
  scalla::sched::Executor& inner_;
  std::uint16_t runName_;
  std::vector<std::uint64_t> waits_;
};

class TracedSink final : public scalla::net::MessageSink {
 public:
  /// `role` prefixes span names ("xrd.manager", "client", ...).
  TracedSink(scalla::net::MessageSink& inner, scalla::net::NodeAddr self, std::string role,
             TransitBook& book);

  void OnMessage(scalla::net::NodeAddr from, scalla::proto::Message message) override;
  void OnPeerDown(scalla::net::NodeAddr peer) override { inner_.OnPeerDown(peer); }

  /// Called on this sink's executor thread when the node sends
  /// XrdOpenResp(redirect) back to `client`: resolve time is measured from
  /// the XrdOpen's arrival.
  void OnRedirectSent(scalla::net::NodeAddr client, std::uint64_t reqId);

  std::vector<std::uint64_t>& transits() { return transits_; }
  std::vector<std::uint64_t>& resolves() { return resolves_; }

 private:
  scalla::net::MessageSink& inner_;
  scalla::net::NodeAddr self_;
  std::string role_;
  TransitBook& book_;
  std::vector<std::uint16_t> nameIds_;
  std::unordered_map<std::uint64_t, std::uint64_t> openArrivals_;
  std::vector<std::uint64_t> transits_;
  std::vector<std::uint64_t> resolves_;
};

class TracedFabric final : public scalla::net::Fabric {
 public:
  /// Messages copied for the proto replay, at most this many.
  static constexpr std::size_t kMaxCaptured = 4096;

  TracedFabric(scalla::net::TcpFabric& inner, TransitBook& book);

  /// Routes the redirects `node` sends to its sink's resolve timer.
  void SetResolveProbe(scalla::net::NodeAddr node, TracedSink* sink);

  void Send(scalla::net::NodeAddr from, scalla::net::NodeAddr to,
            scalla::proto::Message message) override;
  Counters GetCounters() const override { return inner_.GetCounters(); }
  Counters PerPeerCounters(scalla::net::NodeAddr peer) const override {
    return inner_.PerPeerCounters(peer);
  }
  void SetDown(scalla::net::NodeAddr a, bool d) override { inner_.SetDown(a, d); }
  void SetLinkCut(scalla::net::NodeAddr a, scalla::net::NodeAddr b, bool c) override {
    inner_.SetLinkCut(a, b, c);
  }
  void SetDrop(scalla::net::NodeAddr f, scalla::net::NodeAddr t, bool d) override {
    inner_.SetDrop(f, t, d);
  }
  void SetDelay(scalla::net::NodeAddr f, scalla::net::NodeAddr t,
                scalla::Duration d) override {
    inner_.SetDelay(f, t, d);
  }
  void SetWedged(scalla::net::NodeAddr a, bool w) override { inner_.SetWedged(a, w); }

  /// Messages sent while tracing, copied in send order (capped).
  std::vector<scalla::proto::Message> TakeCaptured();

 private:
  scalla::net::TcpFabric& inner_;
  TransitBook& book_;
  std::uint16_t sendName_;
  scalla::net::NodeAddr probeNode_ = 0;
  TracedSink* probeSink_ = nullptr;
  std::mutex captureMu_;
  std::vector<scalla::proto::Message> captured_;
};

/// Counts every call and byte in both windows; records spans and read /
/// write durations while tracing.
class TracedOss final : public scalla::oss::Oss {
 public:
  explicit TracedOss(scalla::oss::Oss& inner);

  scalla::oss::FileState StateOf(const std::string& path) override;
  scalla::Result<void> Create(const std::string& path) override;
  scalla::Result<void> Write(const std::string& path, std::uint64_t offset,
                             std::string_view data) override;
  scalla::Result<std::string> Read(const std::string& path, std::uint64_t offset,
                                   std::uint32_t length) override;
  std::optional<scalla::oss::StatInfo> Stat(const std::string& path) override;
  scalla::Result<void> Unlink(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;
  std::optional<scalla::Duration> BeginStage(const std::string& path) override {
    return inner_.BeginStage(path);
  }
  std::optional<std::uint64_t> UsedBytes() override { return inner_.UsedBytes(); }

  std::uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  struct Scope;

  scalla::oss::Oss& inner_;
  std::uint16_t readName_;
  std::uint16_t writeName_;
  std::uint16_t metaName_;
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace perfbench
