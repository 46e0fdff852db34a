// sf::guard::CircuitBreaker — protects the controller update channel
// (DESIGN.md §10).
//
// During a control-plane outage or rate-limit storm every table op the
// controller pushes comes back kRateLimited. A refusal spends no token,
// but every retry is one more attempt against the channel that refused
// it — retries amplify exactly the pressure that caused the refusals. A
// circuit breaker watches the refusal stream: `trip_after` CONSECUTIVE
// refusals open the circuit, and while
// open the controller parks new ops directly into the UpdateQueue without
// attempting them (short-circuit, zero channel pressure). After
// `open_cooldown_s` the breaker is half-open: exactly one probe op is
// allowed through; success closes the circuit and the queue drains
// normally, failure re-opens it for another cooldown.
//
// The breaker cooperates with the UpdateQueue's strict-FIFO at-least-once
// contract: ops deferred while open keep their arrival order and are never
// lost — the breaker only decides *when* the channel is worth trying.
//
// Disabled by default (trip_after == 0): a controller without a breaker
// config behaves byte-identically to one compiled before this class
// existed.

#pragma once

#include <cstdint>

namespace sf::guard {

class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  struct Config {
    /// Consecutive channel refusals that open the circuit. 0 disables the
    /// breaker entirely (allow() is always true, nothing is counted).
    unsigned trip_after = 0;
    /// Seconds the circuit stays open before a half-open probe.
    double open_cooldown_s = 1.0;
  };

  struct Stats {
    std::uint64_t trips = 0;         // closed -> open
    std::uint64_t reopens = 0;       // half-open probe failed
    std::uint64_t closes = 0;        // half-open probe succeeded
    std::uint64_t short_circuited = 0;  // ops parked without an attempt
  };

  CircuitBreaker() : CircuitBreaker(Config{}) {}
  explicit CircuitBreaker(Config config) : config_(config) {}

  bool enabled() const { return config_.trip_after > 0; }

  /// Current state at time `now` (open flips to half-open once the
  /// cooldown elapses; const — observation never mutates).
  State state(double now) const;

  /// True when an op attempt is allowed at `now`: closed, or half-open
  /// (the probe). While plain-open the caller must park the op instead
  /// (and call note_short_circuit()).
  bool allow(double now) const;

  /// A channel refusal at `now` (rate-limited or outage). Trips a closed
  /// circuit after `trip_after` consecutive refusals; re-opens a
  /// half-open circuit immediately.
  void record_failure(double now);

  /// A successful attempt: closes a half-open circuit, clears the
  /// refusal streak of a closed one.
  void record_success(double now);

  void note_short_circuit() { ++stats_.short_circuited; }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  Config config_;
  State state_ = State::kClosed;
  unsigned failure_streak_ = 0;
  double opened_at_ = 0;
  Stats stats_;
};

const char* name(CircuitBreaker::State state);

}  // namespace sf::guard
