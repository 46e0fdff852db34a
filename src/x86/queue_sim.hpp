// Per-core queueing simulator: Poisson arrivals into a bounded RX ring,
// deterministic run-to-completion service. At low load latency sits at
// the base cost, near saturation it blows up M/D/1-style, and past
// saturation the ring drop-tails: the §2.3 "packet loss when CPU core
// utilization reaches 100% even in a very short moment". It is the
// discrete-event reference for X86CostModel::latency_us()
// (x86/cost_model.hpp): the closed form matches this sim's mean up to
// half load and its p99 from 60% to 80% load; at 90% the sim's p99 runs
// ~10 µs above it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace sf::x86 {

class CoreQueueSim {
 public:
  struct Config {
    /// Core service rate (packets/s), e.g. X86CostModel::core_pps().
    double service_pps = 781'250;
    /// RX ring slots for this core's queue.
    std::size_t ring_slots = 1024;
    /// Fixed per-packet cost outside queueing (PCIe, parse, TX), in µs.
    double base_latency_us = 30;
  };

  struct Result {
    std::size_t packets_offered = 0;
    std::size_t packets_dropped = 0;
    double drop_rate = 0;
    double mean_latency_us = 0;
    double p50_latency_us = 0;
    double p99_latency_us = 0;
  };

  CoreQueueSim() : CoreQueueSim(Config{}) {}
  explicit CoreQueueSim(Config config) : config_(config) {
    if (config_.service_pps <= 0 || config_.ring_slots == 0) {
      throw std::invalid_argument("CoreQueueSim: bad config");
    }
  }

  /// Simulates `duration_s` of Poisson arrivals at `offered_pps`.
  Result run(double offered_pps, double duration_s,
             std::uint64_t seed = 1) const;

  const Config& config() const { return config_; }

 private:
  Config config_;
};

}  // namespace sf::x86
