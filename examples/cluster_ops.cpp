// Operations playbook — §6.1 "Cluster construction" end to end:
//   1. build clusters and download tables from the controller,
//   2. run the consistency audit (controller state vs device tables),
//   3. run a probe campaign covering local / peer / Internet scenarios,
//   4. watch device health with debounced heartbeats,
//   5. trace one flow end to end.

#include <cstdio>

#include "cluster/health.hpp"
#include "cluster/probe.hpp"
#include "core/sailfish.hpp"

using namespace sf;

int main() {
  std::printf("Sailfish cluster construction playbook (§6.1)\n\n");

  // 1. Build and provision.
  core::SailfishOptions options = core::quickstart_options();
  options.topology.vpc_count = 80;
  options.topology.total_vms = 2500;
  options.flows.flow_count = 1500;
  core::SailfishSystem system = core::make_system(options);
  std::printf("step 1: %zu VPCs installed into %zu cluster(s) + %zu "
              "XGW-x86 node(s)\n",
              system.admitted_vpcs,
              system.region->controller().cluster_count(),
              system.region->x86_node_count());

  // 2. Consistency check before anything touches user traffic.
  for (std::size_t c = 0; c < system.region->controller().cluster_count();
       ++c) {
    const auto audit = system.region->controller().check_consistency(c);
    std::printf("step 2: cluster %zu consistency: %zu entries checked, %zu "
                "missing -> %s\n",
                c, audit.entries_checked, audit.missing_on_device,
                audit.missing_on_device == 0 ? "PASS" : "FAIL");
    if (audit.missing_on_device != 0) return 1;
  }

  // 3. Probe campaign: synthetic packets over every service scenario.
  cluster::ProbeCampaign campaign;
  const auto probe_report =
      campaign.run_all(system.region->controller(), system.topology);
  std::printf("step 3: probe campaign: %zu probes, %zu mismatches -> %s\n",
              probe_report.probes_sent, probe_report.mismatches,
              probe_report.passed() ? "PASS" : "FAIL");
  if (!probe_report.passed()) {
    for (const std::string& failure : probe_report.failures) {
      std::printf("        %s\n", failure.c_str());
    }
    return 1;
  }

  // 4. Runtime monitoring: debounced health checks drive the disaster-
  //    recovery coordinator; a flap is absorbed, a sustained failure acts.
  cluster::HealthMonitor monitor(&system.region->disaster_recovery(),
                                 cluster::HealthMonitor::Config{});
  monitor.report_heartbeat(0, 0, false, 100.0);  // one blip: ignored
  monitor.report_heartbeat(0, 0, true, 101.0);
  for (double t = 102; t < 105; t += 1.0) {
    monitor.report_heartbeat(0, 1, false, t);     // sustained: acts
  }
  std::printf("\nstep 4: health monitor: device 0 flap absorbed; device 1 "
              "failed after 3 misses -> %zu/%zu devices live\n",
              system.region->controller().cluster(0).live_device_count(),
              system.region->controller().cluster(0).config()
                  .primary_devices);

  // 5. Diagnose one flow end to end (Vtrace-style path trace).
  const workload::Flow& flow = system.flows.front();
  net::OverlayPacket probe_pkt;
  probe_pkt.vni = flow.vni;
  probe_pkt.inner = flow.tuple;
  probe_pkt.payload_size = 100;
  const auto trace = system.region->trace(probe_pkt, 200.0);
  std::printf("step 5: path trace for vni %u -> %s:\n%s\n", flow.vni,
              flow.tuple.dst.to_string().c_str(),
              trace.to_string().c_str());
  return 0;
}
