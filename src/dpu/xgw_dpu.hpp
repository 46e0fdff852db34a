// sf::dpu::XgwDpu — the DPU middle tier between XGW-H and XGW-x86
// (DESIGN.md §11).
//
// Gryphon-style gateways insert a rack of SmartNIC/DPU boxes between the
// Tofino and the software fleet: a DPU holds a few tens of thousands of
// exact-match flow entries in NIC SRAM (far more than the ASIC can spare
// for spillover, far fewer than x86 DRAM), and forwards a placed flow at
// single-digit-microsecond latency — roughly 4x the ASIC's pipeline delay
// and a fifth of an x86 core's per-packet cost. This class models one such
// box: a bounded exact-match flow table keyed (VNI, inner 5-tuple), where
// every entry carries a *pre-resolved* verdict (the action and rewritten
// outer destination the full lookup chain would have produced). A hit
// replays that verdict; a miss returns kFallbackToX86 and the region
// continues down the punt path exactly as if the DPU tier did not exist.
//
// The DPU never resolves flows itself — placement is the TierPlacer's job
// (elephants promoted from the sketch, mice demoted back out). That keeps
// the model honest about what a flow-offload NIC actually does: replay
// decisions made elsewhere.
//
// TableProgrammer is implemented as an *invalidation* surface: the
// controller mirrors every route/mapping mutation to the DPU nodes, and a
// mutation for a VNI evicts that VNI's placed flows — their cached verdict
// may now be stale, so the next packet walks the full chain again (and the
// placer re-promotes against fresh state). Same epoch discipline as the
// FlowCache, expressed as eager per-tenant eviction because the table is
// small and mutations are rare.
//
// A region builds the tier only when SailfishRegion::Config::enable_dpu is
// set; without it nothing is constructed, no counters register, and every
// artifact is byte-identical to a DPU-less build.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "dataplane/gateway.hpp"
#include "dataplane/table_programmer.hpp"
#include "telemetry/registry.hpp"

namespace sf::dpu {

class XgwDpu : public dataplane::Gateway, public dataplane::TableProgrammer {
 public:
  struct Config {
    /// Bounded flow-table capacity (NIC SRAM exact-match entries).
    std::size_t flow_table_entries = 65536;
    /// Per-packet forwarding latency for a placed flow. Between the
    /// ASIC's ~2µs pipeline and the x86's ~40µs per-core cost.
    double base_latency_us = 8.0;
    /// Capacity ceilings, enforced fluidly by the region's interval
    /// reduce (like the XGW-H ceilings).
    double max_packet_rate_pps = 300e6;
    double max_throughput_bps = 800e9;
    /// Relative cost of one DPU node (ASIC-normalized; the bench's
    /// cost/latency frontier uses it).
    double cost_units = 4.0;
    /// Outer source IP stamped on forwarded packets.
    net::Ipv4Addr device_ip = net::Ipv4Addr(10, 0, 2, 1);
  };

  /// A placed flow's pre-resolved verdict.
  struct FlowEntry {
    dataplane::Action action = dataplane::Action::kForwardToNc;
    net::IpAddr outer_dst;
  };

  XgwDpu() : XgwDpu(Config{}) {}
  explicit XgwDpu(Config config);

  /// Gateway: replay the placed verdict, or kFallbackToX86 on a miss
  /// (and always while failed — a dead DPU is a transparent wire to x86).
  dataplane::Verdict process(const net::OverlayPacket& packet,
                             double now) override;

  // ---- placement surface (driven by the TierPlacer) ----------------------
  dataplane::TableOpStatus install_flow(net::Vni vni,
                                        const net::FiveTuple& tuple,
                                        FlowEntry entry);
  dataplane::TableOpStatus remove_flow(net::Vni vni,
                                       const net::FiveTuple& tuple);
  bool has_flow(net::Vni vni, const net::FiveTuple& tuple) const;
  std::size_t flow_count() const { return flows_.size(); }
  /// Flow-table fill fraction in [0, 1].
  double occupancy() const;

  // ---- TableProgrammer: controller-mirror invalidation hooks -------------
  // Every mirrored op evicts the mutated VNI's placed flows: the DPU holds
  // per-flow verdicts, so any table change under a tenant invalidates them.
  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override;

  /// Evicts every placed flow of one tenant (controller mutation, tenant
  /// teardown). Returns how many entries were removed.
  std::size_t evict_vni(net::Vni vni);

  /// Chaos hook: a failed DPU loses its SRAM state — the table clears and
  /// every packet falls back until the placer re-promotes after recovery.
  void set_failed(bool failed);
  bool failed() const { return failed_; }

  telemetry::Registry& registry() { return *registry_; }
  const Config& config() const { return config_; }

 private:
  using FlowId = std::pair<net::Vni, net::FiveTuple>;

  Config config_;
  bool failed_ = false;
  std::map<FlowId, FlowEntry> flows_;  // ordered: deterministic iteration
  std::unique_ptr<telemetry::Registry> registry_;

  telemetry::Counter* ctr_packets_in_ = nullptr;
  telemetry::Counter* ctr_bytes_in_ = nullptr;
  telemetry::Counter* ctr_forwarded_ = nullptr;
  telemetry::Counter* ctr_misses_ = nullptr;
  telemetry::Counter* ctr_flow_installs_ = nullptr;
  telemetry::Counter* ctr_flow_removes_ = nullptr;
  telemetry::Counter* ctr_invalidations_ = nullptr;
  telemetry::Histogram* hist_latency_ = nullptr;
};

}  // namespace sf::dpu
