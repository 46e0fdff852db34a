#include "asic/placer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tables/alpm.hpp"
#include "tables/service_tables.hpp"
#include "tables/tcam.hpp"

namespace sf::asic {
namespace {

// Analytic ALPM estimate when no measured stats are supplied. A positive
// alpm_estimated_fill pins the legacy fixed-fill formula; otherwise the
// calibrated model (tables::estimate_alpm_shape) supplies the fill curve.
// Routes cost one SRAM word on SfChip (<=64-bit suffix + length + action
// fits a 128-bit word); directory rows carry the 153-bit pooled key.
AlpmDemand estimate_alpm(const ChipConfig& chip, std::size_t routes,
                         const CompressionConfig& config) {
  const unsigned dir_slices =
      chip.tcam_slices_per_entry(tables::kPooledRouteKeyBits);
  if (config.alpm_estimated_fill > 0) {
    const double fill = std::clamp(config.alpm_estimated_fill, 0.05, 1.0);
    const std::size_t partitions = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(
               static_cast<double>(routes) /
               (fill * static_cast<double>(config.alpm_max_bucket)))));
    AlpmDemand demand;
    demand.directory_slices = partitions * dir_slices;
    demand.bucket_words = partitions * config.alpm_max_bucket;
    return demand;
  }
  const unsigned route_words =
      chip.sram_words_per_entry(64 + 8, tables::kVxlanRouteActionBits);
  const tables::AlpmShapeEstimate estimate = tables::estimate_alpm_shape(
      routes, config.alpm_max_bucket, dir_slices, route_words);
  AlpmDemand demand;
  demand.directory_slices = estimate.directory_slices;
  demand.bucket_words = estimate.bucket_words;
  return demand;
}

// The gress of the XGW-H stage that reads `table` (kGatewayProgram).
PathSlot reading_gress(std::string_view table) {
  for (const StageLayout& stage : kGatewayProgram) {
    if (std::find(stage.tables.begin(), stage.tables.end(), table) !=
        stage.tables.end()) {
      return stage.gress;
    }
  }
  throw std::logic_error("compute_demands: no stage reads " +
                         std::string(table));
}

}  // namespace

std::vector<TableDemand> compute_demands(const ChipConfig& chip,
                                         const GatewayWorkload& workload,
                                         const CompressionConfig& config) {
  std::vector<TableDemand> demands;

  // ---- VXLAN routing table (LPM) ----------------------------------------
  const std::size_t routes =
      workload.vxlan_routes_v4 + workload.vxlan_routes_v6;
  if (config.alpm) {
    const AlpmDemand alpm = config.measured_alpm
                                ? *config.measured_alpm
                                : estimate_alpm(chip, routes, config);
    demands.push_back(TableDemand{"vxlan_route_alpm_dir", 0,
                                  alpm.directory_slices, true});
    demands.push_back(TableDemand{"vxlan_route_alpm_buckets",
                                  alpm.bucket_words, 0, true});
  } else if (config.pool) {
    // One dual-stack table: every key is the 153-bit pooled key.
    demands.push_back(TableDemand{
        "vxlan_route_pooled", 0,
        routes * chip.tcam_slices_per_entry(tables::kPooledRouteKeyBits),
        true});
  } else {
    demands.push_back(TableDemand{
        "vxlan_route_v4", 0,
        workload.vxlan_routes_v4 *
            chip.tcam_slices_per_entry(
                tables::vxlan_route_key_bits(net::IpFamily::kV4)),
        true});
    demands.push_back(TableDemand{
        "vxlan_route_v6", 0,
        workload.vxlan_routes_v6 *
            chip.tcam_slices_per_entry(
                tables::vxlan_route_key_bits(net::IpFamily::kV6)),
        true});
  }

  // ---- VM-NC mapping table (exact) ---------------------------------------
  const std::size_t maps = workload.vm_maps_v4 + workload.vm_maps_v6;
  if (config.compress) {
    // Pooled digest table: label ‖ VNI ‖ 32-bit ip/digest -> one word;
    // conflicts keep the wide key.
    const unsigned pooled_words =
        chip.sram_words_per_entry(1 + 24 + 32, tables::kVmNcActionBits);
    const unsigned conflict_words = chip.sram_words_per_entry(
        tables::vm_nc_key_bits(net::IpFamily::kV6), tables::kVmNcActionBits);
    demands.push_back(TableDemand{
        "vm_nc_pooled", maps * pooled_words, 0, true});
    demands.push_back(TableDemand{
        "vm_nc_conflicts", workload.digest_conflicts * conflict_words, 0,
        false});
  } else {
    demands.push_back(TableDemand{
        "vm_nc_v4",
        workload.vm_maps_v4 *
            chip.sram_words_per_entry(
                tables::vm_nc_key_bits(net::IpFamily::kV4),
                tables::kVmNcActionBits),
        0, true});
    demands.push_back(TableDemand{
        "vm_nc_v6",
        workload.vm_maps_v6 *
            chip.sram_words_per_entry(
                tables::vm_nc_key_bits(net::IpFamily::kV6),
                tables::kVmNcActionBits),
        0, true});
  }

  // ---- service tables (Table 4 only; zero counts otherwise) --------------
  if (workload.acl_rules > 0) {
    demands.push_back(TableDemand{
        "acl", 0,
        workload.acl_rules *
            chip.tcam_slices_per_entry(tables::AclTable::kKeyBits),
        true});
  }
  if (workload.meters > 0) {
    // Meter state: rate config + bucket level, 1 word each.
    demands.push_back(TableDemand{"meters", workload.meters, 0, true});
  }
  if (workload.counters > 0) {
    demands.push_back(TableDemand{"counters", workload.counters, 0, true});
  }
  if (workload.steering_entries > 0) {
    // Fallback steering (special VNI -> XGW-x86 next hop): exact, small.
    demands.push_back(TableDemand{
        "fallback_steering",
        workload.steering_entries * chip.sram_words_per_entry(24, 32), 0,
        false});
  }
  // Every table is billed at the gress of the stage that reads it.
  for (TableDemand& demand : demands) demand.slot = reading_gress(demand.name);
  return demands;
}

// Placer::evaluate()/place()/place_layout()/replace() live in
// asic/placement.cpp with the retained-layout machinery they share.

}  // namespace sf::asic
