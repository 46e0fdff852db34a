#include "soak/auditor.hpp"

#include "chaos/fault_plane.hpp"
#include "sim/table_printer.hpp"

namespace sf::soak {

using sim::format;

InvariantAuditor::InvariantAuditor(core::SailfishRegion& region,
                                   std::span<const workload::Flow> flows,
                                   Config config)
    : region_(region), flows_(flows), config_(config) {
  // East-west flows only: SNAT flows would allocate bindings on every
  // probe, perturbing the very conservation the auditor checks.
  for (std::size_t i = 0;
       i < flows_.size() && probes_.size() < config_.probe_flows; ++i) {
    if (flows_[i].scope != tables::RouteScope::kInternet) probes_.push_back(i);
  }
}

std::vector<std::string> InvariantAuditor::audit(
    double now, bool strict,
    const core::SailfishRegion::IntervalReport* last_interval) {
  ++audits_run_;
  std::vector<std::string> out;
  check_snat(out);
  check_flow_cache_coherence(now, out);
  if (last_interval != nullptr) check_interval_bounds(*last_interval, out);
  check_placement(out);
  if (strict) {
    ++strict_audits_run_;
    check_quiescent(now, out);
  }
  all_violations_.insert(all_violations_.end(), out.begin(), out.end());
  return out;
}

void InvariantAuditor::check_snat(std::vector<std::string>& out) const {
  const auto& public_ips = region_.config().x86_template.snat.public_ips;
  for (std::size_t n = 0; n < region_.x86_node_count(); ++n) {
    const x86::SnatEngine& snat = region_.x86_node(n).snat();
    std::size_t free_total = 0;
    for (const net::Ipv4Addr& ip : public_ips) {
      free_total += snat.free_ports(ip);
    }
    const std::size_t live = snat.stats().active_sessions;
    if (free_total + live != snat.capacity()) {
      out.push_back(format(
          "x86 node %zu snat conservation broken: %zu free + %zu live != "
          "%zu capacity",
          n, free_total, live, snat.capacity()));
    }
  }
}

void InvariantAuditor::check_flow_cache_coherence(
    double now, std::vector<std::string>& out) {
  // forward() may serve from the node's flow cache; forward_punted() never
  // touches it. After any amount of table churn the two must agree on
  // every probe — a divergence means a stale cached verdict survived a
  // generation bump.
  for (std::size_t n = 0; n < region_.x86_node_count(); ++n) {
    x86::XgwX86& node = region_.x86_node(n);
    for (std::size_t p : probes_) {
      const workload::Flow& flow = flows_[p];
      net::OverlayPacket pkt;
      pkt.vni = flow.vni;
      pkt.inner = flow.tuple;
      pkt.payload_size = 96;
      const x86::X86Result cached = node.forward(pkt, now);
      const x86::X86Result walked = node.forward_punted(pkt, now);
      if (cached.action != walked.action ||
          cached.drop_reason != walked.drop_reason) {
        out.push_back(format(
            "x86 node %zu flow-cache incoherent for vni %u: cached %s vs "
            "walked %s",
            n, static_cast<unsigned>(flow.vni),
            dataplane::name(cached.action), dataplane::name(walked.action)));
      }
    }
  }
}

void InvariantAuditor::check_interval_bounds(
    const core::SailfishRegion::IntervalReport& interval,
    std::vector<std::string>& out) const {
  constexpr double kEps = 1e-9;
  if (interval.offered_pps < 0 || interval.offered_bps < 0) {
    out.push_back("interval offered rate negative");
  }
  if (interval.dropped_pps < -kEps ||
      interval.dropped_pps > interval.offered_pps * (1.0 + 1e-6) + kEps) {
    out.push_back(format("interval drops out of range: %.3e of %.3e pps",
                         interval.dropped_pps, interval.offered_pps));
  }
  if (interval.drop_rate < -kEps || interval.drop_rate > 1.0 + 1e-6) {
    out.push_back(format("interval drop rate out of [0,1]: %.9e",
                         interval.drop_rate));
  }
  if (interval.punt_queue_occupancy < -kEps ||
      interval.punt_queue_occupancy > 1.0 + 1e-6) {
    out.push_back(format("punt occupancy out of [0,1]: %.6f",
                         interval.punt_queue_occupancy));
  }
  if (interval.p999_latency_us + kEps < interval.p99_latency_us) {
    out.push_back(format("p999 %.3f below p99 %.3f",
                         interval.p999_latency_us, interval.p99_latency_us));
  }
  if (interval.guard_shed_pps < -kEps ||
      interval.guard_shed_pps > interval.dropped_pps + kEps) {
    out.push_back(format("guard sheds %.3e exceed interval drops %.3e",
                         interval.guard_shed_pps, interval.dropped_pps));
  }
}

void InvariantAuditor::check_placement(std::vector<std::string>& out) const {
  const asic::PlacementEngine* engine =
      region_.controller().placement_engine();
  if (engine == nullptr) return;
  if (!engine->placement().feasible()) {
    out.push_back("incremental placement left infeasible");
  }
}

void InvariantAuditor::check_quiescent(double now,
                                       std::vector<std::string>& out) const {
  const std::vector<std::string> leaks =
      chaos::FaultPlane::audit(region_, now, nullptr, {});
  out.insert(out.end(), leaks.begin(), leaks.end());
}

}  // namespace sf::soak
