// Operations scenario: a festival traffic surge with a mid-peak gateway
// failure. Shows the region absorbing both — the §6.1 disaster-recovery
// story: ECMP shrinks around the failed node, the cold standby steps in,
// and when all primaries die the 1:1 hot-standby backup set takes over.

#include <cstdio>

#include "core/sailfish.hpp"
#include "workload/traffic_pattern.hpp"

using namespace sf;

int main() {
  std::printf("festival week with a device failure\n\n");

  core::SailfishOptions options = core::quickstart_options();
  options.region.controller.cluster_template.primary_devices = 4;
  options.region.controller.cluster_template.backup_devices = 4;
  options.flows.flow_count = 1200;
  core::SailfishSystem system = core::make_system(options);

  workload::TrafficPattern pattern;
  pattern.base_bps = 2e12;
  pattern.festival_start_day = 2.0;
  pattern.festival_end_day = 3.0;

  auto& recovery = system.region->disaster_recovery();
  auto& cluster = system.region->controller().cluster(0);

  const double step = 3600.0 * 6;  // 6-hour ticks for a compact log
  for (double t = 0; t < workload::days(4); t += step) {
    const double day = t / 86400.0;
    // Scripted incidents at festival peak.
    if (day == 2.25) recovery.on_device_failure(0, 0, t);
    if (day == 2.5) recovery.on_port_fault(0, 1, 7, t);
    if (day == 3.0) recovery.on_device_recovery(0, 0, t);

    const double offered = workload::rate_at(pattern, t);
    const auto report = system.region->simulate_interval(
        system.flows, offered, static_cast<std::uint64_t>(t));
    std::printf(
        "day %4.2f  rate %6.2f Tbps  drop %.2e  live devices %zu/%zu%s\n",
        day, offered / 1e12, report.drop_rate, cluster.live_device_count(),
        cluster.config().primary_devices,
        cluster.failed_over() ? "  [FAILED OVER TO BACKUPS]" : "");
  }

  std::printf("\ndisaster-recovery journal:\n");
  for (const auto& event :
       system.region->controller().journal().events("failover")) {
    std::printf("  day %4.2f  %s\n", event.time / 86400.0,
                event.message.c_str());
  }
  std::printf("\ncold standby gateways remaining: %zu\n",
              recovery.cold_standby_available());

  // The controller's consistency audit still passes after the churn.
  const auto audit = system.region->controller().check_consistency(0);
  std::printf("consistency audit: %zu entries checked, %zu missing\n",
              audit.entries_checked, audit.missing_on_device);
  return audit.missing_on_device == 0 ? 0 : 1;
}
