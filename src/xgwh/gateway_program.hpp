// The gateway program's logical table layout (Figs. 13-15): which tables
// exist, their match kinds, and the folded-path slot each occupies. The P4
// export and the placement differential test read it.

#pragma once

#include <string>
#include <vector>

#include "asic/placer.hpp"
#include "tables/entry.hpp"

namespace sf::xgwh {

struct LogicalTableInfo {
  std::string name;
  tables::MatchKind match = tables::MatchKind::kExact;
  asic::PathSlot slot = asic::PathSlot::kFrontIngress;
  std::string description;
};

/// The Sailfish gateway's table layout in folded mode, in lookup order.
std::vector<LogicalTableInfo> gateway_table_layout();

/// Placement-table names (asic::compute_demands naming) a packet of the
/// given IP family consults under a compression config, in lookup order
/// along the folded path (Ingress front -> Egress back -> Ingress back ->
/// Egress front). Service tables are listed unconditionally; callers
/// intersect with the tables their workload actually placed. The
/// differential placement tester walks packets through exactly this list.
std::vector<std::string> lookup_table_names(
    const asic::CompressionConfig& config, net::IpFamily family);

}  // namespace sf::xgwh
