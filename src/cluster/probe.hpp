// Pre-admission probe testing (§6.1 "Cluster construction"): after table
// download and consistency checks, probe generators inject synthetic
// packets "covering as many test scenarios as possible", and only then is
// user traffic admitted. This campaign derives probes from the desired
// topology (the source of truth) and verifies the data plane's answers:
// local VMs resolve to their NC, peer routes resolve through the peer's
// table, Internet destinations steer to the software fleet.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/controller.hpp"
#include "workload/topology.hpp"

namespace sf::cluster {

class ProbeCampaign {
 public:
  /// Failure details kept per report; `mismatches` still counts them all.
  static constexpr std::size_t kMaxFailureDetails = 16;

  struct Report {
    std::size_t probes_sent = 0;
    std::size_t mismatches = 0;
    std::vector<std::string> failures;

    bool passed() const { return mismatches == 0; }
  };

  /// Probes every VPC assigned to `cluster_index` through the controller's
  /// data path and checks the forwarding verdicts against `topology`.
  Report run(Controller& controller, std::size_t cluster_index,
             const workload::RegionTopology& topology) const;

  /// Probes the whole region (all clusters).
  Report run_all(Controller& controller,
                 const workload::RegionTopology& topology) const;
};

}  // namespace sf::cluster
