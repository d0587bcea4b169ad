// In-memory storage backend.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "oss/oss.h"
#include "util/clock.h"

namespace scalla::oss {

class MemOss : public Oss {
 public:
  /// `capacityBytes` caps stored data (0 = unlimited): at/over capacity,
  /// Create fails with kNoSpace and Write refuses to grow files — the
  /// condition that drives placement away from full servers.
  explicit MemOss(util::Clock& clock, std::uint64_t capacityBytes = 0)
      : clock_(clock), capacity_(capacityBytes) {}

  FileState StateOf(const std::string& path) override;
  Result<void> Create(const std::string& path) override;
  Result<void> Write(const std::string& path, std::uint64_t offset,
                     std::string_view data) override;
  Result<std::string> Read(const std::string& path, std::uint64_t offset,
                           std::uint32_t length) override;
  std::optional<StatInfo> Stat(const std::string& path) override;
  Result<void> Unlink(const std::string& path) override;
  std::vector<std::string> List(const std::string& prefix) override;

  /// Seeds a file with content (test/workload setup).
  void Put(const std::string& path, std::string data);

  std::optional<std::uint64_t> UsedBytes() override { return TotalBytes(); }

  std::size_t FileCount() const;
  /// Bytes stored over all files: a running total, O(1).
  std::uint64_t TotalBytes() const;

 protected:
  struct File {
    std::string data;
    TimePoint mtime{};
  };

  /// Replaces (or adds) a file, keeping the running total. Requires mu_.
  void PutLocked(const std::string& path, std::string data);

  util::Clock& clock_;
  std::uint64_t capacity_ = 0;
  mutable std::mutex mu_;
  std::map<std::string, File> files_;  // ordered: prefix listing is a range scan
  std::uint64_t total_ = 0;            // sum of files_' sizes, under mu_
};

}  // namespace scalla::oss
