// Table 4 — "Overall memory resource consumption": the whole gateway,
// service tables included, placed per the folded-path layout (Figs. 13-15).
// Pipes 0/2 host entry/exit tables (ACL TCAM, counters); pipes 1/3 host
// the route and VM-NC lookups (ALPM directory, pooled VM-NC, meters); the
// ALPM bucket SRAM is balanced across both. Overflowing tables spill to the
// path's other pipe.

#include <cstdio>

#include "asic/placer.hpp"
#include "bench_util.hpp"
#include "xgwh/compression_plan.hpp"

using namespace sf;

int main() {
  bench::print_header("Table 4", "overall memory consumption (all tables)");

  const asic::ChipConfig chip;
  const asic::Placer placer(chip);

  // The paper's workload plus the QoS/service tables installed per SLAs.
  // The paper does not enumerate its service-table mix; these counts are
  // a representative production mix (per-tenant ACLs, SLA meters, billing
  // counters) calibrated so the whole gateway lands in Table 4's envelope.
  asic::GatewayWorkload workload{750'000, 250'000, 750'000, 250'000};
  workload.acl_rules = 175'000;
  workload.meters = 430'000;
  workload.counters = 1'500'000;
  workload.steering_entries = 64;

  asic::CompressionConfig config = xgwh::config_for_steps("abcde");
  config.alpm_max_bucket = 32;
  config.alpm_estimated_fill = 0.55;  // measured by the Table 3 bench

  // Each table sits where compute_demands bills it: at the gress of the
  // stage that reads it. Table 4's own layout balances the bucket SRAM
  // across the path ("evenly distributed").
  auto demands = asic::compute_demands(chip, workload, config);
  for (auto& demand : demands) {
    if (demand.name == "vxlan_route_alpm_buckets") {
      demand.slot = asic::PathSlot::kBalanced;
    }
  }
  const auto report = placer.place(demands, config);

  sim::TablePrinter table({"Pipeline", "SRAM (measured)", "SRAM (paper)",
                           "TCAM (measured)", "TCAM (paper)"});
  const double sram02 = (report.pipes[0].sram + report.pipes[2].sram) / 2;
  const double sram13 = (report.pipes[1].sram + report.pipes[3].sram) / 2;
  const double tcam02 = (report.pipes[0].tcam + report.pipes[2].tcam) / 2;
  const double tcam13 = (report.pipes[1].tcam + report.pipes[3].tcam) / 2;
  table.add_row({"Pipeline 0/2", bench::pct(sram02, 1), "70%",
                 bench::pct(tcam02, 1), "41%"});
  table.add_row({"Pipeline 1/3", bench::pct(sram13, 1), "68%",
                 bench::pct(tcam13, 1), "22%"});
  table.add_row({"Sum", bench::pct((sram02 + sram13) / 2, 1), "69%",
                 bench::pct((tcam02 + tcam13) / 2, 1), "32%"});
  table.print();

  std::printf("per-table demand (gateway-wide):\n");
  sim::TablePrinter detail({"table", "SRAM words", "TCAM slices", "slot"});
  static const char* kSlots[] = {"Ingress 0/2", "Egress 1/3", "Ingress 1/3",
                                 "Egress 0/2", "Balanced"};
  for (const auto& demand : report.demands) {
    detail.add_row({demand.name, std::to_string(demand.sram_words),
                    std::to_string(demand.tcam_slices),
                    kSlots[static_cast<int>(demand.slot)]});
  }
  detail.print();
  bench::print_note(
      "feasible placement (everything fits with headroom): " +
      std::string(report.feasible ? "yes" : "no") +
      " — 'there is still room for adding future table entries' (§5.1).");
  return 0;
}
