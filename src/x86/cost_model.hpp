// XGW-x86 cost model: DPDK run-to-completion forwarding on Xeon cores.
//
// Calibrated to the paper's measurements: ~1 Mpps per core (§2.2), 25 Mpps
// per box with 100GbE (Fig. 18: line rate only above 512B packets), ~40 µs
// forwarding latency, and >10 minutes to install a full table set (§2.3).

#pragma once

#include <cstddef>

namespace sf::x86 {

struct X86CostModel {
  double cpu_ghz = 2.5;
  unsigned cores = 32;
  /// Amortized cycles to forward one packet (parse, VXLAN route, VM-NC,
  /// rewrite, TX) — run-to-completion.
  double cycles_per_packet = 3200;
  /// NIC line rate (bits per second).
  double nic_bps = 100e9;
  /// Light-load forwarding latency (kernel-bypass, but host RTT-scale).
  double base_latency_us = 38;
  /// Queueing latency added per 10% utilization above 50%.
  double queueing_latency_us = 4;
  /// Controller table-install throughput (entries per second per node).
  double table_install_entries_per_s = 3000;

  /// Packets per second one core sustains.
  double core_pps() const { return cpu_ghz * 1e9 / cycles_per_packet; }

  /// Box-level pps ceiling (all cores busy, perfect balance).
  double max_pps() const { return core_pps() * cores; }

  /// Throughput achievable at a given packet size: min(NIC, pps-bound).
  double throughput_bps(std::size_t packet_bytes) const {
    const double pps_bound =
        max_pps() * 8.0 * static_cast<double>(packet_bytes);
    return pps_bound < nic_bps ? pps_bound : nic_bps;
  }

  /// Latency at a given box utilization in [0, 1). Checked against
  /// x86/queue_sim.hpp: up to half load it is the sim's mean; from 60% to
  /// 80% load it tracks the sim's p99, not its mean.
  double latency_us(double utilization) const {
    const double queued =
        utilization > 0.5 ? (utilization - 0.5) * 10.0 * queueing_latency_us
                          : 0.0;
    return base_latency_us + queued;
  }

  /// Seconds to install `entries` table entries from the controller.
  double table_install_seconds(std::size_t entries) const {
    return static_cast<double>(entries) / table_install_entries_per_s;
  }
};

}  // namespace sf::x86
