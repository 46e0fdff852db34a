// Event journal: the one (time, category, message) record of the
// repository. The chaos injector keeps every event as the replay log of a
// simulated schedule; the controller keeps its operational paper trail
// (table updates, failovers, water-level alerts) in a bounded ring. When
// a ring wraps, the oldest events are overwritten but the monotonic
// sequence numbers make the loss visible to a consumer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sf::telemetry {

struct Event {
  std::uint64_t sequence = 0;  // 1-based, monotonic
  double time = 0;             // producer's clock (simulation seconds)
  std::string category;        // "table-update", "failover", "alert", ...
  std::string message;
};

class EventJournal {
 public:
  /// Capacity 0 keeps every event; N > 0 keeps the newest N in a ring.
  explicit EventJournal(std::size_t capacity = 0);

  /// `time` is the producer's clock; every caller must pass it, so no
  /// event can silently land at t=0.
  void record(std::string category, std::string message, double time);

  /// Retained events, oldest first.
  std::vector<Event> events() const;

  /// Retained events of one category, oldest first.
  std::vector<Event> events(const std::string& category) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return sequence_; }
  /// Events the ring overwrote since construction or the last clear().
  std::uint64_t overwritten() const { return overwritten_; }

  /// Drops the retained events; sequence numbers keep counting, so
  /// total_recorded() stays a lifetime figure.
  void clear();

  /// One line per retained event: "[t=%.3f] category: message\n", after
  /// a "(N older events overwritten)\n" line once the ring has wrapped.
  /// The fixed-width time format keeps millisecond resolution at week
  /// scale and is independent of locale and platform, so two runs of the
  /// same schedule render the same bytes.
  std::string to_string() const;

 private:
  /// The i-th retained event, oldest first.
  const Event& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  // next write position once the ring is full
  std::uint64_t sequence_ = 0;
  std::uint64_t overwritten_ = 0;
};

}  // namespace sf::telemetry
