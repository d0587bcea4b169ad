#include "trace.h"

#include <chrono>
#include <fstream>
#include <type_traits>
#include <utility>
#include <variant>

namespace perfbench {

using scalla::net::NodeAddr;
namespace proto = scalla::proto;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

namespace {

std::optional<std::uint64_t> ReqIdOf(const proto::Message& message) {
  return std::visit(
      [](const auto& m) -> std::optional<std::uint64_t> {
        if constexpr (requires { m.reqId; }) {
          return static_cast<std::uint64_t>(m.reqId);
        } else {
          return std::nullopt;
        }
      },
      message);
}

/// Identity of one message on one link, for transit matching. Messages
/// without a request id are not matched.
std::optional<std::uint64_t> MessageKey(NodeAddr from, NodeAddr to,
                                        const proto::Message& message) {
  const auto reqId = ReqIdOf(message);
  if (!reqId) return std::nullopt;
  const std::uint64_t k = (std::uint64_t{from} & 0xFFF) << 52 |
                          (std::uint64_t{to} & 0xFFF) << 40 |
                          (static_cast<std::uint64_t>(message.index()) & 0x3F) << 34 |
                          (*reqId & ((std::uint64_t{1} << 34) - 1));
  return k;
}

/// (sender << 32) ^ reqId: the request key spans carry.
std::uint64_t RequestKey(NodeAddr from, const proto::Message& message) {
  return (std::uint64_t{from} << 32) ^ ReqIdOf(message).value_or(0);
}

}  // namespace

// ---- Tracer ----

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::uint16_t Tracer::NameId(const std::string& name) {
  std::lock_guard lock(mu_);
  const auto it = nameIds_.find(name);
  if (it != nameIds_.end()) return it->second;
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.push_back(name);
  nameIds_.emplace(name, id);
  return id;
}

std::string Tracer::Name(std::uint16_t id) const {
  std::lock_guard lock(mu_);
  return id < names_.size() ? names_[id] : std::string("?");
}

Tracer::ThreadBuffer& Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.reserve(4096);
    local = buffer.get();
    std::lock_guard lock(mu_);
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

std::int32_t Tracer::Begin(std::uint16_t name, std::uint64_t key) {
  ThreadBuffer& b = Local();
  if (b.spans.size() >= kMaxSpansPerThread) {
    ++b.dropped;
    return -1;
  }
  SpanRecord s;
  s.startNs = NowNs();
  s.name = name;
  s.key = key;
  s.parent = b.stack.empty() ? -1 : b.stack.back();
  const auto index = static_cast<std::int32_t>(b.spans.size());
  b.spans.push_back(s);
  b.stack.push_back(index);
  return index;
}

void Tracer::End(std::int32_t index) {
  if (index < 0) return;
  ThreadBuffer& b = Local();
  b.spans[static_cast<std::size_t>(index)].endNs = NowNs();
  if (!b.stack.empty() && b.stack.back() == index) b.stack.pop_back();
}

std::vector<const Tracer::ThreadBuffer*> Tracer::Buffers() const {
  std::lock_guard lock(mu_);
  std::vector<const ThreadBuffer*> out;
  for (const auto& b : buffers_) out.push_back(b.get());
  return out;
}

bool Tracer::WriteOut(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  std::lock_guard lock(mu_);
  // Header: "PBSPANS1", name count, then length-prefixed names. Body: per
  // thread a span count followed by (start, end, name, parent, key).
  out.write("PBSPANS1", 8);
  const auto nameCount = static_cast<std::uint32_t>(names_.size());
  out.write(reinterpret_cast<const char*>(&nameCount), sizeof nameCount);
  for (const std::string& n : names_) {
    const auto len = static_cast<std::uint32_t>(n.size());
    out.write(reinterpret_cast<const char*>(&len), sizeof len);
    out.write(n.data(), static_cast<std::streamsize>(n.size()));
  }
  for (const auto& b : buffers_) {
    const auto count = static_cast<std::uint64_t>(b->spans.size());
    out.write(reinterpret_cast<const char*>(&count), sizeof count);
    for (const SpanRecord& s : b->spans) {
      out.write(reinterpret_cast<const char*>(&s.startNs), sizeof s.startNs);
      out.write(reinterpret_cast<const char*>(&s.endNs), sizeof s.endNs);
      out.write(reinterpret_cast<const char*>(&s.name), sizeof s.name);
      out.write(reinterpret_cast<const char*>(&s.parent), sizeof s.parent);
      out.write(reinterpret_cast<const char*>(&s.key), sizeof s.key);
    }
  }
  return static_cast<bool>(out);
}

// ---- TransitBook ----

void TransitBook::Put(std::uint64_t key, std::uint64_t sentNs) {
  Shard& s = shards_[key % kShards];
  std::lock_guard lock(s.mu);
  s.sent[key] = sentNs;
}

std::optional<std::uint64_t> TransitBook::Take(std::uint64_t key) {
  Shard& s = shards_[key % kShards];
  std::lock_guard lock(s.mu);
  const auto it = s.sent.find(key);
  if (it == s.sent.end()) return std::nullopt;
  const std::uint64_t sent = it->second;
  s.sent.erase(it);
  return sent;
}

// ---- TracedExecutor ----

TracedExecutor::TracedExecutor(scalla::sched::Executor& inner)
    : inner_(inner), runName_(Tracer::Get().NameId("sched.run")) {}

void TracedExecutor::Post(scalla::sched::Task task) {
  if (!Tracer::On()) {
    inner_.Post(std::move(task));
    return;
  }
  const std::uint64_t posted = NowNs();
  inner_.Post([this, posted, task = std::move(task)]() mutable {
    const std::uint64_t start = NowNs();
    waits_.push_back(start - posted);
    const std::int32_t span = Tracer::Get().Begin(runName_, 0);
    task();
    Tracer::Get().End(span);
  });
}

scalla::sched::TimerId TracedExecutor::RunAfter(scalla::Duration delay,
                                                scalla::sched::Task task) {
  return inner_.RunAfter(delay, std::move(task));
}

scalla::sched::TimerId TracedExecutor::RunEvery(scalla::Duration period,
                                                scalla::sched::Task task) {
  return inner_.RunEvery(period, std::move(task));
}

bool TracedExecutor::Cancel(scalla::sched::TimerId id) { return inner_.Cancel(id); }

// ---- TracedSink ----

TracedSink::TracedSink(scalla::net::MessageSink& inner, NodeAddr self, std::string role,
                       TransitBook& book)
    : inner_(inner),
      self_(self),
      role_(std::move(role)),
      book_(book),
      nameIds_(std::variant_size_v<proto::Message>, 0xFFFF) {}

void TracedSink::OnMessage(NodeAddr from, proto::Message message) {
  if (!Tracer::On()) {
    inner_.OnMessage(from, std::move(message));
    return;
  }
  const std::uint64_t now = NowNs();
  const std::size_t type = message.index();
  if (const auto key = MessageKey(from, self_, message)) {
    if (const auto sent = book_.Take(*key)) transits_.push_back(now - *sent);
  }
  const std::uint64_t reqKey = RequestKey(from, message);
  if (std::holds_alternative<proto::XrdOpen>(message)) openArrivals_[reqKey] = now;
  std::uint16_t& name = nameIds_[type];
  if (name == 0xFFFF) {
    name = Tracer::Get().NameId(role_ + "." + proto::MessageName(message));
  }
  const std::int32_t span = Tracer::Get().Begin(name, reqKey);
  inner_.OnMessage(from, std::move(message));
  Tracer::Get().End(span);
}

void TracedSink::OnRedirectSent(NodeAddr client, std::uint64_t reqId) {
  const auto it = openArrivals_.find((std::uint64_t{client} << 32) ^ reqId);
  if (it == openArrivals_.end()) return;
  resolves_.push_back(NowNs() - it->second);
  openArrivals_.erase(it);
}

// ---- TracedFabric ----

TracedFabric::TracedFabric(scalla::net::TcpFabric& inner, TransitBook& book)
    : inner_(inner), book_(book), sendName_(Tracer::Get().NameId("net.send")) {}

void TracedFabric::SetResolveProbe(NodeAddr node, TracedSink* sink) {
  probeNode_ = node;
  probeSink_ = sink;
}

void TracedFabric::Send(NodeAddr from, NodeAddr to, proto::Message message) {
  if (!Tracer::On()) {
    inner_.Send(from, to, std::move(message));
    return;
  }
  if (from == probeNode_ && probeSink_ != nullptr) {
    if (const auto* resp = std::get_if<proto::XrdOpenResp>(&message);
        resp != nullptr && resp->status == proto::XrdStatus::kRedirect) {
      probeSink_->OnRedirectSent(to, resp->reqId);
    }
  }
  {
    std::lock_guard lock(captureMu_);
    if (captured_.size() < kMaxCaptured) captured_.push_back(message);
  }
  const std::int32_t span = Tracer::Get().Begin(sendName_, RequestKey(from, message));
  if (const auto key = MessageKey(from, to, message)) book_.Put(*key, NowNs());
  inner_.Send(from, to, std::move(message));
  Tracer::Get().End(span);
}

std::vector<proto::Message> TracedFabric::TakeCaptured() {
  std::lock_guard lock(captureMu_);
  return std::move(captured_);
}

// ---- TracedOss ----

struct TracedOss::Scope {
  Scope(TracedOss& oss, std::uint16_t name, std::uint64_t bytes) {
    oss.calls_.fetch_add(1, std::memory_order_relaxed);
    if (bytes > 0) oss.bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (Tracer::On()) span = Tracer::Get().Begin(name, 0);
  }
  ~Scope() { Tracer::Get().End(span); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t span = -1;
};

TracedOss::TracedOss(scalla::oss::Oss& inner)
    : inner_(inner),
      readName_(Tracer::Get().NameId("oss.read")),
      writeName_(Tracer::Get().NameId("oss.write")),
      metaName_(Tracer::Get().NameId("oss.meta")) {}

scalla::oss::FileState TracedOss::StateOf(const std::string& path) {
  Scope scope(*this, metaName_, 0);
  return inner_.StateOf(path);
}

scalla::Result<void> TracedOss::Create(const std::string& path) {
  Scope scope(*this, metaName_, 0);
  return inner_.Create(path);
}

scalla::Result<void> TracedOss::Write(const std::string& path, std::uint64_t offset,
                                      std::string_view data) {
  Scope scope(*this, writeName_, data.size());
  return inner_.Write(path, offset, data);
}

scalla::Result<std::string> TracedOss::Read(const std::string& path, std::uint64_t offset,
                                             std::uint32_t length) {
  Scope scope(*this, readName_, length);
  return inner_.Read(path, offset, length);
}

std::optional<scalla::oss::StatInfo> TracedOss::Stat(const std::string& path) {
  Scope scope(*this, metaName_, 0);
  return inner_.Stat(path);
}

scalla::Result<void> TracedOss::Unlink(const std::string& path) {
  Scope scope(*this, metaName_, 0);
  return inner_.Unlink(path);
}

std::vector<std::string> TracedOss::List(const std::string& prefix) {
  Scope scope(*this, metaName_, 0);
  return inner_.List(prefix);
}

}  // namespace perfbench
