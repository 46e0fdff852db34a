#include "cluster/probe.hpp"

#include <algorithm>

namespace sf::cluster {
namespace {

// VMs probed per VPC (sampled deterministically).
constexpr std::size_t kVmsPerVpc = 3;

net::OverlayPacket make_probe(net::Vni vni, const net::IpAddr& src,
                              const net::IpAddr& dst) {
  net::OverlayPacket probe;
  probe.vni = vni;
  probe.inner.src = src;
  probe.inner.dst = dst;
  probe.inner.proto = 17;  // probe traffic rides UDP
  probe.inner.src_port = 30000;
  probe.inner.dst_port = 30000;
  probe.payload_size = 64;
  return probe;
}

const workload::VpcRecord* find_vpc(
    const workload::RegionTopology& topology, net::Vni vni) {
  auto it = std::find_if(
      topology.vpcs.begin(), topology.vpcs.end(),
      [&](const workload::VpcRecord& vpc) { return vpc.vni == vni; });
  return it == topology.vpcs.end() ? nullptr : &*it;
}

void record_failure(ProbeCampaign::Report* report, std::string description) {
  ++report->mismatches;
  if (report->failures.size() < ProbeCampaign::kMaxFailureDetails) {
    report->failures.push_back(std::move(description));
  }
}

void probe_vpc(Controller& controller, const workload::VpcRecord& vpc,
               const workload::RegionTopology& topology,
               ProbeCampaign::Report* report) {
  const net::IpAddr probe_src = vpc.vms.front().ip;

  // Local VM reachability: sampled VMs must resolve to their NC.
  const std::size_t stride =
      std::max<std::size_t>(1, vpc.vms.size() / kVmsPerVpc);
  for (std::size_t i = 0; i < vpc.vms.size(); i += stride) {
    const workload::VmRecord& vm = vpc.vms[i];
    ++report->probes_sent;
    const auto result =
        controller.process(make_probe(vpc.vni, probe_src, vm.ip));
    if (result.action != dataplane::Action::kForwardToNc ||
        result.packet.outer_dst_ip != net::IpAddr(vm.nc_ip)) {
      record_failure(report, "vni " + std::to_string(vpc.vni) + " VM " +
                                 vm.ip.to_string() +
                                 ": expected NC " + vm.nc_ip.to_string() +
                                 ", got " + dataplane::to_string(result.action));
    }
  }

  // Peer-route reachability: the first VM of each peer's exported subnet.
  for (net::Vni peer_vni : vpc.peers) {
    const workload::VpcRecord* peer = find_vpc(topology, peer_vni);
    if (peer == nullptr) continue;
    const net::IpPrefix& exported = peer->routes.front().prefix;
    const workload::VmRecord* target = nullptr;
    for (const workload::VmRecord& vm : peer->vms) {
      if (exported.contains(vm.ip)) {
        target = &vm;
        break;
      }
    }
    if (target == nullptr) continue;
    ++report->probes_sent;
    const auto result =
        controller.process(make_probe(vpc.vni, probe_src, target->ip));
    if (result.action != dataplane::Action::kForwardToNc ||
        result.packet.outer_dst_ip != net::IpAddr(target->nc_ip)) {
      record_failure(report,
                     "vni " + std::to_string(vpc.vni) + " -> peer " +
                         std::to_string(peer_vni) + " VM " +
                         target->ip.to_string() + ": expected NC " +
                         target->nc_ip.to_string() + ", got " +
                         dataplane::to_string(result.action));
    }
  }

  // Internet default route: must steer to the software fleet.
  const net::IpAddr public_dst =
      vpc.family == net::IpFamily::kV4
          ? net::IpAddr(net::Ipv4Addr(192, 0, 2, 1))
          : net::IpAddr(net::Ipv6Addr(0x2001'0db8'ffff'0000ULL, 1));
  ++report->probes_sent;
  const auto result =
      controller.process(make_probe(vpc.vni, probe_src, public_dst));
  if (result.action != dataplane::Action::kFallbackToX86) {
    record_failure(report, "vni " + std::to_string(vpc.vni) +
                               " Internet probe: expected fallback, got " +
                               dataplane::to_string(result.action));
  }
}

}  // namespace

ProbeCampaign::Report ProbeCampaign::run(
    Controller& controller, std::size_t cluster_index,
    const workload::RegionTopology& topology) const {
  Report report;
  for (const workload::VpcRecord& vpc : topology.vpcs) {
    if (vpc.vms.empty()) continue;
    auto assigned = controller.cluster_for(vpc.vni);
    if (!assigned || *assigned != cluster_index) continue;
    probe_vpc(controller, vpc, topology, &report);
  }
  return report;
}

ProbeCampaign::Report ProbeCampaign::run_all(
    Controller& controller,
    const workload::RegionTopology& topology) const {
  Report report;
  for (const workload::VpcRecord& vpc : topology.vpcs) {
    if (vpc.vms.empty()) continue;
    if (!controller.cluster_for(vpc.vni)) continue;
    probe_vpc(controller, vpc, topology, &report);
  }
  return report;
}

}  // namespace sf::cluster
