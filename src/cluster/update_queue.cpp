#include "cluster/update_queue.hpp"

#include <algorithm>

namespace sf::cluster {

dataplane::TableOpStatus UpdateQueue::park(const dataplane::TableOp& op,
                                           double now) {
  if (queue_.size() >= config_.max_pending) {
    ++stats_.overflowed;
    return dataplane::TableOpStatus::kRateLimited;
  }
  Pending pending;
  pending.op = op;
  pending.backoff = kInitialBackoffS;
  pending.due = now + pending.backoff;
  queue_.push_back(pending);
  ++stats_.deferred;
  return dataplane::TableOpStatus::kRateLimited;
}

dataplane::TableOpStatus UpdateQueue::defer(const dataplane::TableOp& op,
                                            double now) {
  ++stats_.submitted;
  return park(op, now);
}

dataplane::TableOpStatus UpdateQueue::submit(const dataplane::TableOp& op,
                                             double now) {
  ++stats_.submitted;
  // Strict FIFO: while older ops wait, new ones wait behind them —
  // otherwise an install could overtake the remove it logically follows.
  if (!queue_.empty()) return park(op, now);
  const dataplane::TableOpStatus status = dataplane::apply(target_, op);
  if (status == dataplane::TableOpStatus::kRateLimited) return park(op, now);
  ++stats_.applied;
  return status;
}

std::size_t UpdateQueue::advance(double now) {
  std::size_t applied = 0;
  while (!queue_.empty() && queue_.front().due <= now) {
    Pending& head = queue_.front();
    ++stats_.retries;
    const dataplane::TableOpStatus status =
        dataplane::apply(target_, head.op);
    if (status == dataplane::TableOpStatus::kRateLimited) {
      // Head-of-line blocking is deliberate: retry the same op later
      // rather than letting younger ops jump the order.
      head.backoff =
          std::min(head.backoff * kBackoffMultiplier, kMaxBackoffS);
      head.due = now + head.backoff;
      break;
    }
    // Terminal outcomes (ok, duplicate, not-found, capacity) leave the
    // queue; only rate limiting means "try again".
    ++stats_.applied;
    ++applied;
    queue_.pop_front();
  }
  return applied;
}

double UpdateQueue::next_retry_at() const {
  if (queue_.empty()) return std::numeric_limits<double>::infinity();
  return queue_.front().due;
}

}  // namespace sf::cluster
