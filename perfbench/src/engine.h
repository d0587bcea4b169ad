// Closed-loop load: one client executor keeps a fixed number of
// operations in flight; each completion issues the next. All engine state
// lives on the client executor; the main thread only starts a phase,
// requests a stop and waits for the window to drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sched/executor.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

class Engine {
 public:
  static constexpr int kInFlight = 64;

  struct Record {
    std::uint64_t endNs = 0;
    std::uint64_t latencyNs = 0;
    bool ok = false;
  };

  Engine(scalla::sched::Executor& clientExec, Workload& workload)
      : exec_(clientExec), workload_(workload) {}

  /// Starts a phase of `limit` operations (0 = until RequestStop).
  void Start(bool warmup, std::uint64_t limit) {
    {
      std::lock_guard lock(mu_);
      finished_ = false;
    }
    stop_.store(false);
    exec_.Post([this, warmup, limit] {
      warmup_ = warmup;
      limit_ = limit;
      issued_ = 0;
      records_.clear();
      failures_.clear();
      for (int i = 0; i < kInFlight; ++i) IssueNext();
    });
  }

  void RequestStop() { stop_.store(true); }

  /// Blocks until every operation of the phase completed. False if the
  /// window did not drain within `timeout`.
  bool Wait(std::chrono::seconds timeout) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, timeout, [this] { return finished_; });
  }

  /// Valid after Wait() returned true.
  std::vector<Record> TakeRecords() { return std::move(records_); }
  const std::map<std::string, std::uint64_t>& failures() const { return failures_; }

 private:
  void IssueNext() {
    if (stop_.load(std::memory_order_relaxed) || (limit_ != 0 && issued_ >= limit_)) {
      if (inFlight_ == 0) {
        std::lock_guard lock(mu_);
        finished_ = true;
        cv_.notify_all();
      }
      return;
    }
    ++issued_;
    ++inFlight_;
    const std::uint64_t start = NowNs();
    workload_.Issue(warmup_, [this, start](bool ok, const char* why) {
      const std::uint64_t end = NowNs();
      records_.push_back({end, end - start, ok});
      if (!ok) ++failures_[why];
      --inFlight_;
      IssueNext();
    });
  }

  scalla::sched::Executor& exec_;
  Workload& workload_;
  std::atomic<bool> stop_{false};
  // Client-executor state.
  bool warmup_ = false;
  std::uint64_t limit_ = 0;
  std::uint64_t issued_ = 0;
  int inFlight_ = 0;
  std::vector<Record> records_;
  std::map<std::string, std::uint64_t> failures_;
  // Phase completion, handed to the main thread.
  std::mutex mu_;
  std::condition_variable cv_;
  bool finished_ = false;
};

}  // namespace perfbench
