#include "xgwh/gateway_program.hpp"

namespace sf::xgwh {

std::vector<LogicalTableInfo> gateway_table_layout() {
  using asic::PathSlot;
  using tables::MatchKind;
  return {
      {"shard_select", MatchKind::kExact, PathSlot::kFrontIngress,
       "hash of VNI -> loopback pipe (table splitting, Fig. 14)"},
      {"acl", MatchKind::kTernary, PathSlot::kFrontIngress,
       "tenant ACLs over VNI + inner 5-tuple (SLA policy)"},
      {"vxlan_route_alpm_dir", MatchKind::kLpm, PathSlot::kBackEgress,
       "ALPM directory: pooled (label|VNI|IP) pivots in TCAM"},
      {"vxlan_route_alpm_buckets", MatchKind::kExact, PathSlot::kBackEgress,
       "ALPM buckets: suffix-compressed routes in SRAM"},
      {"vm_nc_pooled", MatchKind::kExact, PathSlot::kBackIngress,
       "pooled VM->NC mapping, v6 keys digested to 32 bits"},
      {"vm_nc_conflicts", MatchKind::kExact, PathSlot::kBackIngress,
       "full-key side table for digest collisions"},
      {"meters", MatchKind::kExact, PathSlot::kBackIngress,
       "per-tenant token buckets (QoS / fallback protection)"},
      {"fallback_steering", MatchKind::kExact, PathSlot::kBackEgress,
       "special VNI -> XGW-x86 next hop (HW/SW co-design)"},
      {"tunnel_rewrite", MatchKind::kExact, PathSlot::kFrontEgress,
       "outer header rewrite: NC / remote region / XGW-x86"},
      {"counters", MatchKind::kExact, PathSlot::kFrontEgress,
       "per-tenant byte/packet counters (billing, telemetry)"},
  };
}

std::vector<std::string> lookup_table_names(
    const asic::CompressionConfig& config, net::IpFamily family) {
  const bool v4 = family == net::IpFamily::kV4;
  std::vector<std::string> names;
  // Ingress front pipe.
  names.push_back("acl");
  if (config.alpm) {
    names.push_back("vxlan_route_alpm_dir");
    names.push_back("vxlan_route_alpm_buckets");
  } else if (config.pool) {
    names.push_back("vxlan_route_pooled");
  } else {
    names.push_back(v4 ? "vxlan_route_v4" : "vxlan_route_v6");
  }
  // Egress back pipe.
  names.push_back("fallback_steering");
  // Ingress back pipe.
  if (config.compress) {
    names.push_back("vm_nc_pooled");
    names.push_back("vm_nc_conflicts");
  } else {
    names.push_back(v4 ? "vm_nc_v4" : "vm_nc_v6");
  }
  names.push_back("meters");
  // Egress front pipe.
  names.push_back("counters");
  return names;
}

}  // namespace sf::xgwh
