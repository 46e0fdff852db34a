// Reliable table-push front-end for the controller's update channel.
//
// Device install channels are the §2.3 bottleneck: the controller's token
// bucket answers kRateLimited when the budget is gone, and before this
// queue existed callers (provisioning loops, recovery replays) dropped
// those ops on the floor — the desired state silently diverged from the
// devices. UpdateQueue makes every push at-least-once: rejected ops are
// parked and retried with exponential backoff, strictly in submission
// order (once anything is queued, later ops queue behind it, so
// add-then-remove sequences never invert). The queue knows nothing of the
// channel's up/down state: the controller parks ops with defer() while
// the channel is down and stops calling advance() until it returns.

#pragma once

#include <cstdint>
#include <deque>
#include <limits>

#include "dataplane/table_programmer.hpp"

namespace sf::cluster {

class UpdateQueue {
 public:
  struct Config {
    /// Queue depth limit; submissions beyond it are rejected outright.
    std::size_t max_pending = 1 << 20;
  };

  /// Retry schedule: the first retry is due this long after the op was
  /// parked, and each refused retry doubles the wait, up to the cap.
  /// Rate-limit tokens always come back, so an op is never abandoned.
  static constexpr double kInitialBackoffS = 0.25;
  static constexpr double kBackoffMultiplier = 2.0;
  static constexpr double kMaxBackoffS = 8.0;

  struct Stats {
    std::uint64_t submitted = 0;      // submit() and defer() calls
    std::uint64_t applied = 0;        // ops that reached the target
    std::uint64_t deferred = 0;       // ops parked at least once
    std::uint64_t retries = 0;        // retry attempts (incl. failed ones)
    std::uint64_t overflowed = 0;     // rejected by max_pending
  };

  UpdateQueue(dataplane::TableProgrammer& target, Config config)
      : target_(target), config_(config) {}

  /// Pushes one op. Applied immediately when nothing is queued ahead of
  /// it; otherwise, or when the target refuses it, parked (returns
  /// kRateLimited — the op is not lost, advance() will deliver it).
  dataplane::TableOpStatus submit(const dataplane::TableOp& op, double now);

  /// Parks one op WITHOUT attempting the target first — for an open
  /// circuit breaker or a down channel: every new op goes straight to the
  /// queue, keeping submission order, and is delivered by advance() once
  /// the controller lets the channel be tried again. Returns kRateLimited
  /// like any parked submission (kRateLimited also on max_pending
  /// overflow, with stats().overflowed bumped).
  dataplane::TableOpStatus defer(const dataplane::TableOp& op, double now);

  /// Retries due ops in FIFO order until the head is not yet due, the
  /// target refuses again, or the queue empties. Returns ops applied.
  std::size_t advance(double now);

  std::size_t pending() const { return queue_.size(); }
  /// Earliest time a queued op becomes due; +inf when the queue is empty.
  double next_retry_at() const;

  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    dataplane::TableOp op;
    double due = 0;
    double backoff = 0;
  };

  /// Parks an op with its first-retry schedule.
  dataplane::TableOpStatus park(const dataplane::TableOp& op, double now);

  dataplane::TableProgrammer& target_;
  Config config_;
  std::deque<Pending> queue_;
  Stats stats_;
};

}  // namespace sf::cluster
