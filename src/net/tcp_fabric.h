// Loopback TCP transport on the epoll reactor: each registered endpoint
// gets a listening socket on basePort+addr; frames are [u32 length][u32
// senderAddr][encoded message]. Listeners, inbound connections and
// outbound connections are all non-blocking readiness handlers owned by
// one of FabricOptions::loopThreads event loops, so the thread count is
// fixed regardless of how many endpoints or connections exist (the old
// design spent one writer thread per (from,to) pair plus one reader
// thread per accepted socket).
//
// Each (from, to) pair still owns an independent connection object with a
// bounded outbound queue, so traffic to one peer never serializes behind
// traffic to another and a wedged destination backs up only its own
// queue. The owning loop drains a pair's whole backlog with one writev
// (sendmsg) per readiness wakeup, and frame buffers are pooled, so
// steady-state traffic costs neither a thread wakeup chain nor an
// allocation per message.
//
// Failure signalling is asynchronous: a failed connect (timer-based
// deadline), an expired write-progress deadline, or a queue overflow
// marks the peer down and fires the sending endpoint's OnPeerDown —
// exactly the signal the cmsd uses to mark a subordinate offline. A
// connection that made progress (>= 1 complete frame) before breaking is
// treated as a stale cached connection and transparently re-established
// once; only a connection that never progresses fails the peer, so a
// restarting peer costs one reconnect, not an OnPeerDown storm.
//
// Fault injection implements the full net::FaultInjector surface
// (SetDown / SetLinkCut / SetDrop / SetDelay / SetWedged), so chaos
// scenarios written against Fabric* run unchanged over real sockets.
// Every setter recomputes one atomic "any fault injected" flag under the
// fault lock, so while nothing is injected each fault check on the frame
// path costs one atomic load and takes no lock. A frame sent after a
// setter returns always obeys the new fault state.
//
// Threading: every frame parsed from one recv() slice (at most 64 KiB) is
// handed to the endpoint's executor as a single task that calls OnMessage
// in arrival order, so node code keeps its single-threaded actor
// discipline and per-connection FIFO holds without one executor post per
// frame. Endpoints registered without an executor get their sink called
// inline on a loop thread, frame by frame, and must not block.
//
// Counters: each remote peer owns one slot of atomic counters, created
// once and never freed; connections cache a pointer to their peer's slot,
// so the frame path updates counters without a lock. The per-peer slots
// are the only counters: GetCounters() is their field-wise sum.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "net/fabric.h"
#include "net/reactor.h"
#include "sched/executor.h"
#include "util/types.h"

namespace scalla::net {

class TcpFabric final : public Fabric {
 public:
  /// Endpoints listen on 127.0.0.1:basePort+addr.
  explicit TcpFabric(std::uint16_t basePort, FabricOptions options = {});
  ~TcpFabric() override;

  TcpFabric(const TcpFabric&) = delete;
  TcpFabric& operator=(const TcpFabric&) = delete;

  /// Binds an endpoint: registers its listener on a reactor loop. Returns
  /// false if the port could not be bound.
  bool Register(NodeAddr addr, MessageSink* sink, sched::Executor* executor);
  /// Tears an endpoint down. On return no further OnMessage/OnPeerDown for
  /// this endpoint is running or will start (the teardown runs a barrier
  /// on every reactor loop), so the caller may destroy the sink/executor.
  void Unregister(NodeAddr addr);

  // ---- Fabric ----
  void Send(NodeAddr from, NodeAddr to, proto::Message message) override;
  Counters GetCounters() const override;
  Counters PerPeerCounters(NodeAddr peer) const override;

  // ---- FaultInjector ----
  void SetDown(NodeAddr addr, bool down) override;
  void SetLinkCut(NodeAddr a, NodeAddr b, bool cut) override;
  void SetDrop(NodeAddr from, NodeAddr to, bool drop) override;
  void SetDelay(NodeAddr from, NodeAddr to, Duration delay) override;
  void SetWedged(NodeAddr addr, bool wedged) override;

  /// Live inbound connections accepted by `addr`'s listener (closed ones
  /// are removed immediately) — observability for connection reaping.
  std::size_t ReaderCount(NodeAddr addr) const;

  /// Live outbound connections whose socket is currently established —
  /// observability for the idle-reap logic.
  std::size_t ActiveOutboundConnections() const;

 private:
  class Listener;
  class InConn;
  class OutConn;
  struct Endpoint;
  friend class Listener;
  friend class InConn;
  friend class OutConn;

  std::shared_ptr<OutConn> GetConnection(NodeAddr from, NodeAddr to);
  void AdoptInbound(Endpoint* ep, int fd);
  void RemoveInbound(Endpoint* ep, InConn* conn);
  void NotifyPeerDown(NodeAddr from, NodeAddr to);

  bool Reachable(NodeAddr from, NodeAddr to) const;
  bool DropInjected(NodeAddr from, NodeAddr to) const;
  Duration DelayInjected(NodeAddr from, NodeAddr to) const;
  bool EitherWedged(NodeAddr a, NodeAddr b) const;
  // Caller holds faultMu_.
  void UpdateAnyFault();

  // Per-peer counter slot: framesSent/bytesSent keyed by the remote peer
  // of the connection, receive counters keyed by the sender. Created on
  // first use; the reference stays valid for the fabric's lifetime.
  struct PeerCounters;
  PeerCounters& PeerSlot(NodeAddr peer);

  std::uint16_t basePort_;
  FabricOptions options_;
  Reactor reactor_;
  BufferPool pool_;
  std::atomic<std::uint64_t> nextLoop_{0};  // round-robin inbound placement

  mutable std::mutex epMu_;
  std::map<NodeAddr, std::unique_ptr<Endpoint>> endpoints_;

  mutable std::mutex connsMu_;
  std::map<std::uint64_t, std::shared_ptr<OutConn>> conns_;  // (from<<32|to)

  mutable std::mutex faultMu_;
  std::map<NodeAddr, bool> down_;
  std::map<NodeAddr, bool> wedged_;
  std::map<std::uint64_t, bool> cutLinks_;    // key: min<<32|max
  std::map<std::uint64_t, bool> drops_;       // key: from<<32|to
  std::map<std::uint64_t, Duration> delays_;  // key: from<<32|to
  // True while any fault map above is non-empty; written under faultMu_.
  std::atomic<bool> anyFault_{false};

  mutable std::mutex perPeerMu_;  // guards the map, not the slots
  std::map<NodeAddr, std::unique_ptr<PeerCounters>> perPeer_;

  std::atomic<std::size_t> activeOutbound_{0};
  std::atomic<bool> shuttingDown_{false};
};

}  // namespace scalla::net
