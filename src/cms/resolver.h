// The resolution engine (paper sections III-B and III-C): ties the
// location cache, the fast response queue, membership and selection into
// the request-rarely-respond protocol.
//
// Resolution steps (section III-B1):
//   1. Look the cache entry up (creating it on first access).
//   2. V_h, V_p, V_q all empty: past the processing deadline -> "file does
//      not exist"; otherwise park the client on the fast response queue.
//   3. V_h or V_p has an online server: redirect the client there.
//   4. V_q non-empty but nothing usable: park the client on the fast
//      response queue.
//   5. Ask each (online) server in V_q whether it has the file.
//   6. Record in V_q only the servers that could NOT be queried.
//
// Deadline-based synchronization (section III-C2): an unexpired deadline
// implies some thread is already querying, so late-coming threads only
// park their client — no extra locks or queues, and no duplicate floods.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cms/location_cache.h"
#include "cms/membership.h"
#include "cms/response_queue.h"
#include "cms/selection.h"
#include "cms/types.h"
#include "util/clock.h"

namespace scalla::cms {

struct LocateOptions {
  AccessMode mode = AccessMode::kRead;
  bool refresh = false;     // client retry after being vectored to a bad server
  ServerSlot avoid = -1;    // the server that failed that client
};

/// Invoked exactly once per Locate call (possibly synchronously, possibly
/// after servers respond or the sweep expires the waiter).
using LocateCallback = std::function<void(const LocateResult&)>;

class Resolver {
 public:
  /// Sends "do you have <path>?" to every server in the set. The node
  /// layer binds this to its subordinate links; mode lets leaf servers
  /// veto write access on read-only exports.
  using QuerySender =
      std::function<void(ServerSet targets, const std::string& path, std::uint32_t hash,
                         AccessMode mode)>;

  Resolver(const CmsConfig& config, util::Clock& clock, Membership& membership,
           LocationCache& cache, FastResponseQueue& respq, SelectionPolicy& selection,
           QuerySender sendQuery);

  /// Resolves `path` for a client.
  void Locate(const std::string& path, const LocateOptions& options, LocateCallback done);

  /// A subordinate responded that it has (or is staging) the file. The
  /// subordinate's precomputed hash rides along with the reply so this
  /// path never re-hashes the name (section III-B1). A `newfile` notice
  /// (a creation beneath the subordinate, sent unasked) also creates the
  /// cache entry when the path has none, so the next look-up redirects
  /// without a flood; any other Have for an uncached path is dropped.
  void OnHave(const std::string& path, std::uint32_t hash, ServerSlot from, bool pending,
              bool allowWrite, bool newfile = false);

  /// A subordinate reported the file gone (refresh traffic / unlink).
  void OnGone(const std::string& path, ServerSlot from);

  struct Stats {
    std::size_t locates = 0;
    std::size_t redirects = 0;       // immediate redirect from cache
    std::size_t fastRedirects = 0;   // redirect via the fast response queue
    std::size_t notFound = 0;
    std::size_t fullDelays = 0;      // client told to wait the full period
    std::size_t queriesSent = 0;     // query fan-outs (one per Locate that floods)
    std::size_t queryMessages = 0;   // individual server queries
    std::size_t deferrals = 0;       // parked because a deadline was active
  };
  Stats GetStats() const;

 private:
  void Park(const LocRef& ref, AccessMode mode, ServerSlot avoid, LocateCallback done);
  bool RedirectFrom(const LocInfo& info, const LocateOptions& options, LocateResult* out);

  const CmsConfig config_;
  util::Clock& clock_;
  Membership& membership_;
  LocationCache& cache_;
  FastResponseQueue& respq_;
  SelectionPolicy& selection_;
  QuerySender sendQuery_;

  mutable std::mutex statsMu_;
  Stats stats_;
};

}  // namespace scalla::cms
