// A standalone token-bucket rate limiter, the one token bucket in the
// tree. The controller builds one as its update-channel budget
// (Controller::Config::table_op_rate_limit): every table op pushed to the
// devices spends one token, because install speed is the channel's
// operational pain (§2.3). XGW-H builds one in bytes as its fallback
// meter, the overload protection in front of the software gateway.
// Header-only, at the bottom of the library stack, so both can include it.

#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace sf::tables {

class TokenBucket {
 public:
  /// rate is in units per second (the caller chooses bytes or packets).
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {
    if (rate <= 0 || burst <= 0) {
      throw std::invalid_argument(
          "token bucket needs positive rate and burst");
    }
  }

  /// Consumes `amount` at time `now` if available. A timestamp earlier
  /// than the last one refills nothing.
  bool try_consume(double amount, double now) {
    refill(now);
    if (tokens_ >= amount) {
      tokens_ -= amount;
      ++accepted_;
      return true;
    }
    ++rejected_;
    return false;
  }

  /// Tokens currently available (after refill to `now`).
  double available(double now) {
    refill(now);
    return tokens_;
  }

  double rate() const { return rate_; }
  double burst() const { return burst_; }

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  void refill(double now) {
    if (now > last_refill_) {
      tokens_ = std::min(burst_, tokens_ + (now - last_refill_) * rate_);
      last_refill_ = now;
    }
  }

  double rate_;
  double burst_;
  double tokens_;
  double last_refill_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace sf::tables
