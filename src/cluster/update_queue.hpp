// Reliable table-push front-end for the controller's update channel.
//
// Device install channels are the §2.3 bottleneck: the controller's token
// bucket answers kRateLimited when the budget is gone, and before this
// queue existed callers (provisioning loops, recovery replays) dropped
// those ops on the floor — the desired state silently diverged from the
// devices. UpdateQueue makes every push at-least-once: rejected ops are
// parked and retried with exponential backoff, strictly in submission
// order (once anything is queued, later ops queue behind it, so
// add-then-remove sequences never invert). A channel-outage switch models
// the controller losing its update channel entirely: submissions park
// immediately and drain when the channel returns.

#pragma once

#include <cstdint>
#include <deque>
#include <limits>

#include "dataplane/table_programmer.hpp"

namespace sf::cluster {

class UpdateQueue {
 public:
  struct Config {
    /// First retry delay after a rate-limited push (seconds).
    double initial_backoff_s = 0.25;
    /// Backoff multiplier per consecutive failed attempt of the same op.
    double backoff_multiplier = 2.0;
    /// Backoff ceiling (seconds).
    double max_backoff_s = 8.0;
    /// Attempts before an op is abandoned; 0 retries forever (the right
    /// default for rate limiting — tokens always come back).
    std::size_t max_attempts = 0;
    /// Queue depth limit; submissions beyond it are rejected outright.
    std::size_t max_pending = 1 << 20;
  };

  struct Stats {
    std::uint64_t submitted = 0;      // submit() calls
    std::uint64_t applied = 0;        // ops that reached the target
    std::uint64_t deferred = 0;       // ops parked at least once
    std::uint64_t retries = 0;        // retry attempts (incl. failed ones)
    std::uint64_t gave_up = 0;        // dropped after max_attempts
    std::uint64_t overflowed = 0;     // rejected by max_pending
  };

  UpdateQueue(dataplane::TableProgrammer& target, Config config);

  /// Pushes one op. Applied immediately when the channel is up and nothing
  /// is queued ahead of it; otherwise parked (returns kRateLimited — the
  /// op is not lost, advance() will deliver it).
  dataplane::TableOpStatus submit(const dataplane::TableOp& op, double now);

  /// Parks one op WITHOUT attempting the channel first — the circuit
  /// breaker's short-circuit: while the breaker is open every new op goes
  /// straight to the queue, keeping submission order, and is delivered by
  /// advance() once the breaker lets the channel be tried again. Returns
  /// kRateLimited like any parked submission (kRateLimited also on
  /// max_pending overflow, with stats().overflowed bumped).
  dataplane::TableOpStatus defer(const dataplane::TableOp& op, double now);

  /// Retries due ops in FIFO order until the head is not yet due, the
  /// channel rejects again, or the queue empties. Returns ops applied.
  std::size_t advance(double now);

  /// Models an update-channel outage: while down, every submit parks and
  /// advance() delivers nothing.
  void set_channel_up(bool up) { channel_up_ = up; }

  std::size_t pending() const { return queue_.size(); }
  /// Earliest time a queued op becomes due; +inf when the queue is empty.
  double next_retry_at() const;

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  struct Pending {
    dataplane::TableOp op;
    double due = 0;
    double backoff = 0;
    std::size_t attempts = 0;
  };

  /// Parks an op with its first-retry schedule.
  dataplane::TableOpStatus park(const dataplane::TableOp& op, double now,
                                std::size_t attempts);

  dataplane::TableProgrammer& target_;
  Config config_;
  std::deque<Pending> queue_;
  bool channel_up_ = true;
  Stats stats_;
};

}  // namespace sf::cluster
