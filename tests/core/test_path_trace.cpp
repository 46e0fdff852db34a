#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/sailfish.hpp"
#include "guard/guard.hpp"
#include "telemetry/export.hpp"

namespace sf::core {
namespace {

SailfishSystem make_small() {
  auto options = quickstart_options();
  options.flows.flow_count = 400;
  return make_system(options);
}

net::OverlayPacket packet_for(const workload::Flow& flow) {
  net::OverlayPacket pkt;
  pkt.vni = flow.vni;
  pkt.inner = flow.tuple;
  pkt.payload_size = 128;
  return pkt;
}

TEST(PathTrace, HardwarePathTellsTheWholeStory) {
  SailfishSystem system = make_small();
  const workload::Flow* east_west = nullptr;
  for (const auto& flow : system.flows) {
    if (flow.scope == tables::RouteScope::kLocal) {
      east_west = &flow;
      break;
    }
  }
  ASSERT_NE(east_west, nullptr);
  const PathTrace trace = system.region->trace(packet_for(*east_west));
  EXPECT_EQ(dataplane::path_label(trace.result), "hardware-forwarded");
  ASSERT_GE(trace.hops.size(), 4u);
  EXPECT_EQ(trace.hops[0].where, "vni-director");
  EXPECT_NE(trace.hops[1].where.find("ecmp"), std::string::npos);
  EXPECT_EQ(trace.hops[2].where, "xgw-h");
  EXPECT_NE(trace.hops[2].detail.find("2 pipeline pass(es)"),
            std::string::npos);
  EXPECT_NE(trace.hops[3].detail.find(east_west->dst_nc.to_string()),
            std::string::npos);
}

// Twin-region agreement: two identical systems, one traced and one run
// through process(), flow by flow. The trace must tell the story of the
// packet process() forwards — same outcome, same device state after.
struct TwinScenario {
  std::string name;
  SailfishOptions options;
  /// simulate_interval() calls before the packets (promotes DPU flows).
  int warm_intervals = 0;
  /// Arms per-tenant guard limits on a freshly built system.
  bool arm_guard = false;
  /// Fails every device of every cluster (kNoLiveDevice).
  bool fail_all_devices = false;
};

std::vector<TwinScenario> twin_scenarios() {
  std::vector<TwinScenario> scenarios;
  scenarios.push_back({"quickstart", quickstart_options()});
  scenarios.push_back({"overflow+dpu", overflow_options(4.0, true), 6});
  scenarios.push_back({"overflow", overflow_options(4.0, false)});
  SailfishOptions guarded = quickstart_options();
  guarded.region.enable_guard = true;
  guarded.region.guard.escalate_after = 3;
  guarded.region.guard.deescalate_after = 1000;
  guarded.region.enable_punt_path = true;
  guarded.region.punt_queue.depth_packets = 2;
  guarded.region.punt_queue.drain_pps = 1e-3;
  scenarios.push_back({"guard", guarded, 0, true});
  scenarios.push_back({"all-devices-failed", quickstart_options(), 0, false,
                       true});
  return scenarios;
}

void prepare(const TwinScenario& scenario, SailfishSystem& system) {
  for (int k = 0; k < scenario.warm_intervals; ++k) {
    system.region->simulate_interval(system.flows, 1e11,
                                     static_cast<std::uint64_t>(k));
  }
  if (scenario.arm_guard) {
    // 8 bps: every packet of these tenants is over budget, so they walk
    // the ladder through tier-1 punts (and queue-full) to tier-2 sheds.
    for (std::size_t i = 0; i < system.flows.size(); i += 50) {
      system.region->tenant_guard()->set_limit(
          guard::TenantLimit{system.flows[i].vni, 8.0, 0.0});
    }
  }
  if (scenario.fail_all_devices) {
    auto& controller = system.region->controller();
    for (std::size_t c = 0; c < controller.cluster_count(); ++c) {
      auto& cluster = controller.cluster(c);
      for (std::size_t d = 0; d < cluster.device_count(); ++d) {
        cluster.fail_device(d);
      }
    }
  }
}

/// The node of `count` whose `counter` moved from `before`, if any.
template <typename Node>
std::optional<std::size_t> node_that_moved(
    std::size_t count, const std::vector<std::uint64_t>& before,
    const std::string& counter, Node node) {
  for (std::size_t n = 0; n < count; ++n) {
    if (node(n).registry().counter_value(counter) != before[n]) return n;
  }
  return std::nullopt;
}

template <typename Node>
std::vector<std::uint64_t> counters_of(std::size_t count,
                                       const std::string& counter,
                                       Node node) {
  std::vector<std::uint64_t> values(count);
  for (std::size_t n = 0; n < count; ++n) {
    values[n] = node(n).registry().counter_value(counter);
  }
  return values;
}

bool has_hop(const PathTrace& trace, const std::string& where,
             const std::string& detail = "") {
  for (const TraceHop& hop : trace.hops) {
    if (hop.where == where &&
        hop.detail.find(detail) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(PathTrace, MatchesProcessOutcome) {
  for (const TwinScenario& scenario : twin_scenarios()) {
    SCOPED_TRACE(scenario.name);
    SailfishSystem traced_system = make_system(scenario.options);
    SailfishSystem processed_system = make_system(scenario.options);
    prepare(scenario, traced_system);
    prepare(scenario, processed_system);
    SailfishRegion& traced_region = *traced_system.region;
    SailfishRegion& region = *processed_system.region;
    const auto x86 = [&](std::size_t n) -> x86::XgwX86& {
      return region.x86_node(n);
    };
    const auto dpu = [&](std::size_t n) -> dpu::XgwDpu& {
      return region.dpu_node(n);
    };
    const bool guard_meters =
        region.tenant_guard() && region.tenant_guard()->any_limits();

    std::size_t mismatches = 0;
    std::size_t missing_hops = 0;
    std::size_t dpu_served = 0;
    std::size_t punted = 0;
    std::size_t x86_served = 0;
    for (std::size_t i = 0; i < processed_system.flows.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "flow " << i);
      const auto pkt = packet_for(processed_system.flows[i]);
      const double now = 1.0 + static_cast<double>(i) * 1e-6;
      const auto x86_in =
          counters_of(region.x86_node_count(), "x86.packets_in", x86);
      const auto dpu_fwd = counters_of(region.dpu_node_count(),
                                       "dpu.packets_forwarded", dpu);
      const auto punt_before =
          region.registry().counter_value("region.guard.punted") +
          region.registry().counter_value("region.guard.punt_queue_full");

      const PathTrace traced = traced_region.trace(pkt, now);
      const dataplane::Verdict processed = region.process(pkt, now);

      const bool agree =
          traced.result.action == processed.action &&
          traced.result.drop_reason == processed.drop_reason &&
          traced.result.software_path == processed.software_path &&
          traced.result.latency_us == processed.latency_us &&
          traced.result.packet.outer_dst_ip == processed.packet.outer_dst_ip;
      if (!agree && ++mismatches <= 3) {
        ADD_FAILURE() << "traced " << dataplane::path_label(traced.result)
                      << " (" << dataplane::to_string(traced.result.drop_reason)
                      << ", " << traced.result.latency_us << " us), processed "
                      << dataplane::path_label(processed) << " ("
                      << dataplane::to_string(processed.drop_reason) << ", "
                      << processed.latency_us << " us)\n"
                      << traced.to_string();
      }

      // Every tier the packet crossed on the processed twin is a hop.
      std::vector<std::string> missing;
      if (guard_meters && !has_hop(traced, "tenant-guard")) {
        missing.push_back("guard");
      }
      if (const auto node = node_that_moved(region.dpu_node_count(), dpu_fwd,
                                            "dpu.packets_forwarded", dpu)) {
        ++dpu_served;
        if (!has_hop(traced, "xgw-dpu", "dpu node " + std::to_string(*node))) {
          missing.push_back("dpu node " + std::to_string(*node));
        }
      }
      if (region.registry().counter_value("region.guard.punted") +
              region.registry().counter_value(
                  "region.guard.punt_queue_full") !=
          punt_before) {
        ++punted;
        if (!has_hop(traced, "punt lane")) missing.push_back("punt lane");
      }
      if (const auto node = node_that_moved(region.x86_node_count(), x86_in,
                                            "x86.packets_in", x86)) {
        ++x86_served;
        const std::string name = "xgw-x86 node " + std::to_string(*node);
        bool named = false;
        for (const TraceHop& hop : traced.hops) {
          named = named || hop.detail.find(name) != std::string::npos;
        }
        if (!named || !has_hop(traced, "xgw-x86")) missing.push_back(name);
      }
      if (!missing.empty() && ++missing_hops <= 3) {
        ADD_FAILURE() << "trace lacks " << testing::PrintToString(missing)
                      << ":\n" << traced.to_string();
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(missing_hops, 0u);
    if (!scenario.fail_all_devices) {
      EXPECT_GT(x86_served, 0u);
    }
    if (scenario.name == "overflow+dpu") {
      EXPECT_GT(dpu_served, 0u);
    }
    if (scenario.name == "overflow" || scenario.name == "guard") {
      EXPECT_GT(punted, 0u);
    }
    if (scenario.arm_guard) {
      const auto& counters = region.telemetry_snapshot().counters;
      EXPECT_GT(counters.at("region.guard.punted"), 0u);
      EXPECT_GT(counters.at("region.guard.punt_queue_full"), 0u);
      EXPECT_GT(counters.at("region.guard.shed_tenant"), 0u);
    }
    // Tracing is processing: the twins end in the same telemetry.
    const telemetry::Snapshot traced_snapshot =
        traced_region.telemetry_snapshot();
    const telemetry::Snapshot snapshot = region.telemetry_snapshot();
    std::vector<std::string> differing;
    for (const auto& [name, value] : snapshot.counters) {
      if (traced_snapshot.counter(name, ~0ull) != value) {
        differing.push_back(name);
      }
    }
    EXPECT_EQ(traced_snapshot.counters.size(), snapshot.counters.size());
    EXPECT_TRUE(differing.empty()) << testing::PrintToString(differing);
    EXPECT_TRUE(telemetry::to_json(traced_snapshot) ==
                telemetry::to_json(snapshot));
  }
}

TEST(PathTrace, SnatPathRecordsBinding) {
  SailfishSystem system = make_small();
  const workload::Flow* internet = nullptr;
  for (const auto& flow : system.flows) {
    if (flow.scope == tables::RouteScope::kInternet) {
      internet = &flow;
      break;
    }
  }
  ASSERT_NE(internet, nullptr);
  const PathTrace trace = system.region->trace(packet_for(*internet), 1.0);
  EXPECT_EQ(dataplane::path_label(trace.result), "software-snat");
  bool saw_snat = false;
  for (const auto& hop : trace.hops) {
    if (hop.where == "xgw-x86" &&
        hop.detail.find("SNAT") != std::string::npos) {
      saw_snat = true;
    }
  }
  EXPECT_TRUE(saw_snat);
}

TEST(PathTrace, UnknownVniStopsAtDirector) {
  SailfishSystem system = make_small();
  net::OverlayPacket pkt;
  pkt.vni = 0xabcdef;
  pkt.inner.src = net::IpAddr::must_parse("10.0.0.1");
  pkt.inner.dst = net::IpAddr::must_parse("10.0.0.2");
  const PathTrace trace = system.region->trace(pkt);
  EXPECT_TRUE(trace.result.dropped());
  ASSERT_EQ(trace.hops.size(), 1u);
  EXPECT_EQ(trace.hops[0].where, "vni-director");
}

TEST(PathTrace, RendersReadableText) {
  SailfishSystem system = make_small();
  const PathTrace trace =
      system.region->trace(packet_for(system.flows.front()));
  const std::string text = trace.to_string();
  EXPECT_NE(text.find("[1] vni-director"), std::string::npos);
  EXPECT_NE(text.find("=>"), std::string::npos);
}

TEST(PathTrace, FailedOverClusterIsVisible) {
  SailfishSystem system = make_small();
  auto& cluster = system.region->controller().cluster(0);
  for (std::size_t d = 0; d < cluster.config().primary_devices; ++d) {
    cluster.fail_device(d);
  }
  const workload::Flow* east_west = nullptr;
  for (const auto& flow : system.flows) {
    if (flow.scope == tables::RouteScope::kLocal &&
        system.region->controller().cluster_for(flow.vni) == 0u) {
      east_west = &flow;
      break;
    }
  }
  ASSERT_NE(east_west, nullptr);
  const PathTrace trace = system.region->trace(packet_for(*east_west));
  bool noted = false;
  for (const auto& hop : trace.hops) {
    if (hop.detail.find("serving from backups") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
  EXPECT_EQ(dataplane::path_label(trace.result), "hardware-forwarded");
}

}  // namespace
}  // namespace sf::core
