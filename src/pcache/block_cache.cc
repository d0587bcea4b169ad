#include "pcache/block_cache.h"

namespace scalla::pcache {

std::string SingleFlight::Key(const std::string& path, std::uint64_t index) {
  return path + '\0' + std::to_string(index);
}

bool SingleFlight::Begin(const std::string& path, std::uint64_t index, Waiter waiter) {
  std::lock_guard lock(mu_);
  const auto [it, inserted] = inflight_.try_emplace(Key(path, index));
  it->second.push_back(std::move(waiter));
  if (!inserted) coalesced_.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

bool SingleFlight::TryOwn(const std::string& path, std::uint64_t index) {
  std::lock_guard lock(mu_);
  return inflight_.try_emplace(Key(path, index)).second;
}

void SingleFlight::Complete(const std::string& path, std::uint64_t index,
                            proto::XrdErr err, const Block& data) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard lock(mu_);
    const auto it = inflight_.find(Key(path, index));
    if (it == inflight_.end()) return;
    waiters = std::move(it->second);
    inflight_.erase(it);
  }
  for (const Waiter& w : waiters) w(err, data);
}

std::size_t SingleFlight::InFlight() const {
  std::lock_guard lock(mu_);
  return inflight_.size();
}

}  // namespace scalla::pcache
