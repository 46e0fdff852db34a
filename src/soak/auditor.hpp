// sf::soak — the between-intervals invariant auditor (DESIGN.md §17).
//
// The soak's correctness backstop: after every simulated interval the
// auditor sweeps the region for conservation and coherence violations that
// individual unit tests cannot see because they only emerge from hours of
// composed churn:
//
//   * SNAT port-block conservation — for every x86 node,
//     free ports + live sessions == pool capacity (allocated == recycled +
//     live; a leaked binding breaks this within one interval);
//   * flow-cache generation coherence — probe flows are pushed through
//     both forward() (cache-assisted) and forward_punted() (never cached);
//     a stale cache surviving a table-generation bump shows up as a
//     verdict divergence;
//   * interval-report sanity — rates non-negative, ratios inside [0, 1],
//     p999 >= p99;
//   * placement accounting parity — the live incremental placement (when
//     enabled) must stay feasible (the heavy per-replace parity gate runs
//     inside Placer::replace; this catches a layout that survived it
//     infeasibly);
//
// plus, in *strict* mode (valid only when no fault is active and the
// retry queue has drained), the chaos harnesses' own region leak audit
// (chaos::FaultPlane::audit, which lists its checks): no leaked DR
// ledgers, desired state fully installed, control plane drained.
//
// The auditor only reports; the SoakEngine decides whether a violation is
// fatal.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/region.hpp"
#include "workload/flowgen.hpp"

namespace sf::soak {

class InvariantAuditor {
 public:
  struct Config {
    /// East-west flows probed through forward()/forward_punted() per node.
    std::size_t probe_flows = 8;
  };

  /// `flows` must outlive the auditor; SNAT pool shape is read from the
  /// region's own config.
  InvariantAuditor(core::SailfishRegion& region,
                   std::span<const workload::Flow> flows, Config config);

  /// Runs the light sweep; with `strict` adds the quiescence checks.
  /// `last_interval` (optional) is bounds-checked. Returns violations
  /// found this sweep (also appended to all_violations()).
  std::vector<std::string> audit(
      double now, bool strict,
      const core::SailfishRegion::IntervalReport* last_interval = nullptr);

  std::uint64_t audits_run() const { return audits_run_; }
  std::uint64_t strict_audits_run() const { return strict_audits_run_; }
  const std::vector<std::string>& all_violations() const {
    return all_violations_;
  }

 private:
  void check_snat(std::vector<std::string>& out) const;
  void check_flow_cache_coherence(double now, std::vector<std::string>& out);
  void check_interval_bounds(
      const core::SailfishRegion::IntervalReport& interval,
      std::vector<std::string>& out) const;
  void check_placement(std::vector<std::string>& out) const;
  void check_quiescent(double now, std::vector<std::string>& out) const;

  core::SailfishRegion& region_;
  std::span<const workload::Flow> flows_;
  Config config_;
  /// Pre-selected east-west probe flows (indices into flows_).
  std::vector<std::size_t> probes_;
  std::uint64_t audits_run_ = 0;
  std::uint64_t strict_audits_run_ = 0;
  std::vector<std::string> all_violations_;
};

}  // namespace sf::soak
