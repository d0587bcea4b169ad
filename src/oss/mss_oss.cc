#include "oss/mss_oss.h"

namespace scalla::oss {

void MssOss::PutInMss(const std::string& path, std::uint64_t size) {
  std::lock_guard lock(mu_);
  catalog_[path] = size;
}

void MssOss::SettleLocked() {
  const TimePoint now = clock_.Now();
  for (auto it = staging_.begin(); it != staging_.end();) {
    if (it->second <= now) {
      const auto cat = catalog_.find(it->first);
      const std::uint64_t size = cat != catalog_.end() ? cat->second : 0;
      PutLocked(it->first, std::string(size, 'M'));
      it = staging_.erase(it);
    } else {
      ++it;
    }
  }
}

FileState MssOss::StateOf(const std::string& path) {
  std::lock_guard lock(mu_);
  SettleLocked();
  if (files_.count(path) != 0) return FileState::kOnline;
  if (staging_.count(path) != 0) return FileState::kStaging;
  if (catalog_.count(path) != 0) return FileState::kInMss;
  return FileState::kAbsent;
}

std::optional<Duration> MssOss::BeginStage(const std::string& path) {
  std::lock_guard lock(mu_);
  SettleLocked();
  if (files_.count(path) != 0) return Duration::zero();  // already online
  const auto it = staging_.find(path);
  if (it != staging_.end()) return it->second - clock_.Now();
  if (catalog_.count(path) == 0) return std::nullopt;  // not on tape
  staging_[path] = clock_.Now() + config_.stageDelay;
  return config_.stageDelay;
}

std::size_t MssOss::StagingCount() {
  std::lock_guard lock(mu_);
  SettleLocked();
  return staging_.size();
}

}  // namespace scalla::oss
