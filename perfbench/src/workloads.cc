#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "oss/local_oss.h"
#include "oss/mem_oss.h"
#include "util/clock.h"

namespace perfbench {

namespace client = scalla::client;
namespace proto = scalla::proto;
using scalla::cms::AccessMode;
using scalla::net::NodeAddr;
using scalla::util::Rng;

namespace {

constexpr std::uint64_t kPatternStep = 0x9E3779B97F4A7C15ULL;

std::string Hex(std::uint64_t v, int digits) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%0*llx", digits, static_cast<unsigned long long>(v));
  return buf;
}

/// Seed-derived HEP-style names, unique by index.
void MakeNames(const char* tag, std::uint64_t seed, std::size_t count, std::size_t servers,
               std::vector<std::string>& names, std::vector<std::uint64_t>& seeds,
               std::vector<std::uint8_t>& owner) {
  Rng rng(seed ^ PatternSeed(tag));
  const std::string prefix = std::string("/store/") + tag + "/run" + Hex(rng.Next(), 6) + "/";
  names.resize(count);
  seeds.resize(count);
  owner.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    names[i] = prefix + "file" + Hex(i, 6) + "-" + Hex(rng.Next(), 8) + ".root";
    seeds[i] = PatternSeed(names[i]);
    owner[i] = static_cast<std::uint8_t>(rng.NextBelow(servers));
  }
}

/// The on-disk workloads' servers share one LocalOss root per server.
std::unique_ptr<scalla::oss::Oss> OnDiskStore(int server, const std::filesystem::path& dataDir) {
  const auto root = dataDir / ("server" + std::to_string(server));
  std::filesystem::create_directories(root);
  return std::make_unique<scalla::oss::LocalOss>(root);
}

/// Creates (and, with `bytes` > 0, fills) every file on its owner.
bool SeedFiles(const Target& t, const std::vector<std::string>& names,
               const std::vector<std::uint64_t>& seeds, const std::vector<std::uint8_t>& owner,
               std::size_t bytes) {
  std::string buf(bytes, '\0');
  for (std::size_t i = 0; i < names.size(); ++i) {
    scalla::oss::Oss* store = t.stores[owner[i]];
    if (!store->Create(names[i]).ok()) return false;
    if (bytes == 0) continue;
    FillPattern(seeds[i], 0, buf.data(), bytes);
    if (!store->Write(names[i], 0, buf).ok()) return false;
  }
  return true;
}

// ---- warm_open: location-cache hit plus one redirect ----

class WarmOpen final : public Workload {
 public:
  static constexpr std::size_t kNames = 65536;

  explicit WarmOpen(std::uint64_t seed) : seed_(seed) {}

  bool Seed(const Target& t) override {
    if (names_.empty()) MakeNames("warm", seed_, kNames, t.stores.size(), names_, seeds_, owner_);
    return SeedFiles(t, names_, seeds_, owner_, 0);
  }
  std::uint64_t WarmupOps() const override { return kNames; }
  void Attach(const Target& t) override {
    Workload::Attach(t);
    rng_ = Rng(seed_ ^ 0x77a3);
    warmNext_ = 0;
  }

  void Issue(bool warmup, Done done) override {
    const auto idx = static_cast<std::uint32_t>(warmup ? warmNext_++ % kNames
                                                       : rng_.NextBelow(kNames));
    if (!warmup) Log(idx, 0);
    OpenBodyClose(idx, AccessMode::kRead, target_.serverAddrs[owner_[idx]], nullptr,
                  std::move(done));
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t warmNext_ = 0;
};

// ---- cold_open: every open a manager miss and a query flood ----

/// A server store that holds every name under its own prefix, so the cold
/// workload's supply of never-seen names has no practical end and needs no
/// enumeration. Everything else goes to an empty in-memory store.
class OwnedNamespaceOss final : public scalla::oss::Oss {
 public:
  explicit OwnedNamespaceOss(std::string prefix)
      : prefix_(std::move(prefix)), rest_(scalla::util::SystemClock::Instance()) {}

  scalla::oss::FileState StateOf(const std::string& path) override {
    return Owns(path) ? scalla::oss::FileState::kOnline : rest_.StateOf(path);
  }
  std::optional<scalla::oss::StatInfo> Stat(const std::string& path) override {
    return Owns(path) ? std::optional<scalla::oss::StatInfo>(scalla::oss::StatInfo{})
                      : rest_.Stat(path);
  }
  scalla::Result<void> Create(const std::string& path) override { return rest_.Create(path); }
  scalla::Result<void> Write(const std::string& path, std::uint64_t offset,
                             std::string_view data) override {
    return rest_.Write(path, offset, data);
  }
  scalla::Result<std::string> Read(const std::string& path, std::uint64_t offset,
                                   std::uint32_t length) override {
    return Owns(path) ? scalla::Result<std::string>(std::string())
                      : rest_.Read(path, offset, length);
  }
  scalla::Result<void> Unlink(const std::string& path) override { return rest_.Unlink(path); }
  std::vector<std::string> List(const std::string& prefix) override { return rest_.List(prefix); }

 private:
  bool Owns(const std::string& path) const { return path.starts_with(prefix_); }

  std::string prefix_;
  scalla::oss::MemOss rest_;
};

class ColdOpen final : public Workload {
 public:
  static constexpr std::uint64_t kWarmup = 8192;
  /// Names are numbered; past this the run fails rather than reuse one.
  static constexpr std::uint64_t kSupply = std::uint64_t{1} << 31;

  explicit ColdOpen(std::uint64_t seed)
      : prefix_("/store/cold/run" + Hex(Rng(seed ^ 0xc01d).Next(), 6) + "/") {}

  std::unique_ptr<scalla::oss::Oss> MakeStore(int server,
                                              const std::filesystem::path&) const override {
    return std::make_unique<OwnedNamespaceOss>(ServerPrefix(server));
  }
  bool Seed(const Target&) override { return true; }
  std::uint64_t WarmupOps() const override { return kWarmup; }
  void Attach(const Target& t) override {
    Workload::Attach(t);
    next_ = 0;
  }

  void Issue(bool warmup, Done done) override {
    if (next_ >= kSupply) {
      exhausted_.store(true, std::memory_order_relaxed);
      Fail(std::move(done), "cold name supply exhausted");
      return;
    }
    // Every cluster starts the same numbered stream; each name is new to
    // that cluster's manager.
    const auto idx = static_cast<std::uint32_t>(next_++);
    if (idx == names_.size()) {
      const std::uint64_t h = PatternSeed(prefix_) ^ (idx * 0x9E3779B97F4A7C15ULL);
      const auto owner = static_cast<std::uint8_t>((h >> 17) % target_.serverAddrs.size());
      names_.push_back(ServerPrefix(owner) + "file" + Hex(idx, 8) + "-" + Hex(h, 8) + ".root");
      owner_.push_back(owner);
    }
    if (!warmup) Log(idx, 0);
    OpenBodyClose(idx, AccessMode::kRead, target_.serverAddrs[owner_[idx]], nullptr,
                  std::move(done));
  }

 private:
  std::string ServerPrefix(int server) const {
    return prefix_ + "s" + std::to_string(server) + "/";
  }

  std::string prefix_;
  std::uint64_t next_ = 0;
};

// ---- rw_mix: 64 KiB reads beside 64 KiB writes on LocalOss ----

class RwMix final : public Workload {
 public:
  static constexpr std::size_t kFiles = 1024;
  static constexpr std::size_t kFileBytes = 256 * 1024;
  static constexpr std::uint32_t kIoBytes = 64 * 1024;
  static constexpr std::uint64_t kRandomWarmup = 4096;

  explicit RwMix(std::uint64_t seed) : seed_(seed) {}
  bool UsesLocalOss() const override { return true; }
  std::unique_ptr<scalla::oss::Oss> MakeStore(
      int server, const std::filesystem::path& dataDir) const override {
    return OnDiskStore(server, dataDir);
  }

  bool Seed(const Target& t) override {
    if (names_.empty()) MakeNames("rw", seed_, kFiles, t.stores.size(), names_, seeds_, owner_);
    return SeedFiles(t, names_, seeds_, owner_, kFileBytes);
  }
  std::uint64_t WarmupOps() const override { return kFiles + kRandomWarmup; }
  void Attach(const Target& t) override {
    Workload::Attach(t);
    rng_ = Rng(seed_ ^ 0x5177);
    warmNext_ = 0;
  }

  void Issue(bool warmup, Done done) override {
    std::uint32_t idx = 0;
    std::uint32_t block = 0;
    bool write = false;
    if (warmup && warmNext_ < kFiles) {
      idx = static_cast<std::uint32_t>(warmNext_++);  // resolve every file once
    } else {
      idx = static_cast<std::uint32_t>(rng_.NextBelow(kFiles));
      block = static_cast<std::uint32_t>(rng_.NextBelow(kFileBytes / kIoBytes));
      write = rng_.NextBelow(4) == 0;
    }
    if (!warmup) Log(idx, block);
    const std::uint64_t offset = std::uint64_t{block} * kIoBytes;
    const std::uint64_t seed = seeds_[idx];
    const NodeAddr node = target_.serverAddrs[owner_[idx]];
    client::ScallaClient* c = target_.client;
    if (write) {
      OpenBodyClose(
          idx, AccessMode::kWrite, node,
          [c, seed, offset](const client::FileRef& f, Done next) {
            std::string data(kIoBytes, '\0');
            FillPattern(seed, offset, data.data(), data.size());
            c->Write(f, offset, std::move(data),
                     [next](proto::XrdErr err, std::uint32_t written) {
                       if (err != proto::XrdErr::kNone) return next(false, "write error");
                       next(written == kIoBytes, "short write");
                     });
          },
          std::move(done));
      return;
    }
    OpenBodyClose(
        idx, AccessMode::kRead, node,
        [this, c, seed, offset](const client::FileRef& f, Done next) {
          c->Read(f, offset, kIoBytes, [this, seed, offset, next](proto::XrdErr err, std::string data) {
            if (err != proto::XrdErr::kNone) return next(false, "read error");
            if (data.size() != kIoBytes || !CheckPattern(seed, offset, data)) {
              mismatches_.fetch_add(1, std::memory_order_relaxed);
              return next(false, "read mismatch");
            }
            next(true, "");
          });
        },
        std::move(done));
  }

 private:
  std::uint64_t seed_;
  Rng rng_;
  std::uint64_t warmNext_ = 0;
};

// ---- proxy_zipf: 4 KiB Zipf reads through the two-tier proxy ----

class ProxyZipf final : public Workload {
 public:
  static constexpr std::size_t kFiles = 8192;
  static constexpr std::size_t kFileBytes = 64 * 1024;
  static constexpr std::uint32_t kIoBytes = 4096;
  static constexpr std::uint64_t kWarmup = 12000;

  explicit ProxyZipf(std::uint64_t seed) : seed_(seed), zipf_(kFiles, 1.0) {}
  bool UsesLocalOss() const override { return true; }
  bool UsesProxy() const override { return true; }
  std::unique_ptr<scalla::oss::Oss> MakeStore(
      int server, const std::filesystem::path& dataDir) const override {
    return OnDiskStore(server, dataDir);
  }

  bool Seed(const Target& t) override {
    if (names_.empty()) {
      MakeNames("pz", seed_, kFiles, t.stores.size(), names_, seeds_, owner_);
      // Popularity rank -> file: which files are hot depends on the seed.
      rankToFile_.resize(kFiles);
      std::iota(rankToFile_.begin(), rankToFile_.end(), 0u);
      Rng rng(seed_ ^ 0x21f);
      for (std::size_t i = kFiles - 1; i > 0; --i) {
        std::swap(rankToFile_[i], rankToFile_[rng.NextBelow(i + 1)]);
      }
    }
    return SeedFiles(t, names_, seeds_, owner_, kFileBytes);
  }
  std::uint64_t WarmupOps() const override { return kWarmup; }
  void Attach(const Target& t) override {
    Workload::Attach(t);
    rng_ = Rng(seed_ ^ 0x9e1);
  }

  void Issue(bool warmup, Done done) override {
    const std::uint32_t idx = rankToFile_[zipf_.Sample(rng_)];
    // Any 8-byte-aligned 4 KiB range inside the file.
    const std::uint64_t offset = rng_.NextBelow((kFileBytes - kIoBytes) / 8 + 1) * 8;
    if (!warmup) Log(idx, static_cast<std::uint32_t>(offset / kFileBytes));
    const std::uint64_t seed = seeds_[idx];
    client::ScallaClient* c = target_.client;
    OpenBodyClose(
        idx, AccessMode::kRead, target_.proxyAddr,
        [this, c, seed, offset](const client::FileRef& f, Done next) {
          c->Read(f, offset, kIoBytes, [this, seed, offset, next](proto::XrdErr err, std::string data) {
            if (err != proto::XrdErr::kNone) return next(false, "read error");
            if (data.size() != kIoBytes || !CheckPattern(seed, offset, data)) {
              mismatches_.fetch_add(1, std::memory_order_relaxed);
              return next(false, "read mismatch");
            }
            next(true, "");
          });
        },
        std::move(done));
  }

 private:
  std::uint64_t seed_;
  scalla::util::ZipfSampler zipf_;
  std::vector<std::uint32_t> rankToFile_;
  Rng rng_;
};

}  // namespace

std::uint64_t PatternSeed(const std::string& path) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : path) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void FillPattern(std::uint64_t seed, std::uint64_t offset, char* out, std::size_t len) {
  std::uint64_t word = offset / 8;
  for (std::size_t i = 0; i + 8 <= len; i += 8, ++word) {
    const std::uint64_t v = seed + word * kPatternStep;
    std::memcpy(out + i, &v, 8);
  }
}

bool CheckPattern(std::uint64_t seed, std::uint64_t offset, std::string_view data) {
  if (offset % 8 != 0 || data.size() % 8 != 0) return false;
  std::uint64_t word = offset / 8;
  for (std::size_t i = 0; i < data.size(); i += 8, ++word) {
    std::uint64_t v = 0;
    std::memcpy(&v, data.data() + i, 8);
    if (v != seed + word * kPatternStep) return false;
  }
  return true;
}

std::unique_ptr<Workload> Workload::Make(const std::string& name, std::uint64_t seed) {
  if (name == "warm_open") return std::make_unique<WarmOpen>(seed);
  if (name == "cold_open") return std::make_unique<ColdOpen>(seed);
  if (name == "rw_mix") return std::make_unique<RwMix>(seed);
  if (name == "proxy_zipf") return std::make_unique<ProxyZipf>(seed);
  return nullptr;
}

std::unique_ptr<scalla::oss::Oss> Workload::MakeStore(int, const std::filesystem::path&) const {
  return std::make_unique<scalla::oss::MemOss>(scalla::util::SystemClock::Instance());
}

void Workload::Attach(const Target& target) {
  target_ = target;
  opLog_.clear();
}

void Workload::Fail(Done done, const char* why) {
  target_.clientExec->Post([done = std::move(done), why] { done(false, why); });
}

void Workload::Log(std::uint32_t name, std::uint32_t block) {
  if (opLog_.size() < kMaxOpLog) opLog_.emplace_back(name, block);
}

void Workload::OpenBodyClose(std::uint32_t name, AccessMode mode, NodeAddr expectNode,
                             std::function<void(const client::FileRef&, Done)> body,
                             Done done) {
  client::ScallaClient* c = target_.client;
  c->Open(names_[name], mode, false,
          [this, c, expectNode, body = std::move(body),
           done = std::move(done)](const client::OpenOutcome& o) {
            if (o.err != proto::XrdErr::kNone) return done(false, "open error");
            redirects_.fetch_add(static_cast<std::uint64_t>(o.redirects),
                                 std::memory_order_relaxed);
            recoveries_.fetch_add(static_cast<std::uint64_t>(o.recoveries),
                                  std::memory_order_relaxed);
            const client::FileRef file = o.file;
            const bool placed = expectNode == 0 || file.node == expectNode;
            auto close = [c, file, placed, done](bool ok, const char* why) {
              c->Close(file, [ok, why, placed, done](proto::XrdErr err) {
                if (!placed) return done(false, "open landed on the wrong node");
                if (!ok) return done(false, why);
                done(err == proto::XrdErr::kNone, "close error");
              });
            };
            if (!body) return close(true, "");
            body(file, close);
          });
}

}  // namespace perfbench
