// Table 1 — "Typical cloud service examples on different traffic routes
// across the cloud gateway". Not a measurement table, but every row is a
// distinct forwarding path; this bench drives one packet per row through
// the full region and prints the verdict, closing the loop on the
// taxonomy: VM-VM (same VPC), VM-VM (different VPCs), VM-Internet,
// Internet-VM (the SNAT response), VM-IDC, IDC-VM, VM-Cross-region.

#include <cstdio>

#include "bench_util.hpp"
#include "core/sailfish.hpp"

using namespace sf;

namespace {

net::OverlayPacket pkt(net::Vni vni, const net::IpAddr& src,
                       const net::IpAddr& dst, std::uint16_t dport = 443) {
  net::OverlayPacket p;
  p.vni = vni;
  p.inner.src = src;
  p.inner.dst = dst;
  p.inner.proto = 6;
  p.inner.src_port = 44000;
  p.inner.dst_port = dport;
  p.payload_size = 256;
  return p;
}

const char* path_name(const dataplane::Verdict& verdict) {
  switch (verdict.action) {
    case dataplane::Action::kForwardToNc:
      return verdict.software_path ? "XGW-H -> XGW-x86 -> NC"
                                   : "XGW-H -> vSwitch/NC";
    case dataplane::Action::kForwardTunnel:
      return verdict.software_path ? "XGW-H -> XGW-x86 -> NC"
                                   : "XGW-H -> CEN tunnel";
    case dataplane::Action::kSnatToInternet:
      return "XGW-H -> XGW-x86 -> Internet";
    case dataplane::Action::kDrop:
    case dataplane::Action::kFallbackToX86:
      return "DROPPED";
  }
  return "?";
}

}  // namespace

int main() {
  bench::print_header("Table 1", "every traffic route, end to end");

  core::SailfishOptions options = core::quickstart_options();
  options.topology.peerings_per_vpc = 1.0;  // guarantee a peered pair
  core::SailfishSystem system = core::make_system(options);
  auto& controller = system.region->controller();

  // Pick a v4 VPC with a peer, and its actors.
  const workload::VpcRecord* vpc_a = nullptr;
  const workload::VpcRecord* vpc_b = nullptr;
  for (const auto& vpc : system.topology.vpcs) {
    if (vpc.family == net::IpFamily::kV4 && !vpc.peers.empty() &&
        vpc.vms.size() >= 2) {
      vpc_a = &vpc;
      for (const auto& candidate : system.topology.vpcs) {
        if (candidate.vni == vpc.peers.front()) vpc_b = &candidate;
      }
      if (vpc_b != nullptr) break;
    }
  }
  if (vpc_a == nullptr || vpc_b == nullptr) {
    std::fprintf(stderr, "topology lacks a peered v4 pair\n");
    return 1;
  }

  // IDC and cross-region routes for VPC A (the topology generator only
  // makes intra-region services; Table 1 needs the CEN rows too).
  controller.install_route(
      vpc_a->vni, net::IpPrefix::must_parse("172.31.0.0/16"),
      {tables::RouteScope::kIdc, 0, net::Ipv4Addr(198, 19, 0, 9)});
  controller.install_route(
      vpc_a->vni, net::IpPrefix::must_parse("172.30.0.0/16"),
      {tables::RouteScope::kCrossRegion, 0, net::Ipv4Addr(198, 18, 0, 7)});

  const net::IpAddr vm1 = vpc_a->vms[0].ip;
  const net::IpAddr vm2 = vpc_a->vms[1].ip;
  // Peer target must be inside the exported (first) subnet of B.
  net::IpAddr peer_vm = vpc_b->vms[0].ip;
  for (const auto& vm : vpc_b->vms) {
    if (vpc_b->routes.front().prefix.contains(vm.ip)) {
      peer_vm = vm.ip;
      break;
    }
  }

  sim::TablePrinter table({"Traffic route", "Example (Table 1)", "Path",
                           "Latency"});
  auto run = [&](const char* route, const char* example,
                 const net::OverlayPacket& packet) {
    const auto result = system.region->process(packet, 1.0);
    table.add_row({route, example, path_name(result),
                   sim::format_double(result.latency_us, 1) + " us"});
    return result;
  };

  run("VM-VM (same VPC, diff vSwitches)",
      "distributed-computing sync", pkt(vpc_a->vni, vm1, vm2));
  run("VM-VM (different VPCs)", "two tenants, same region",
      pkt(vpc_a->vni, vm1, peer_vm));
  const auto outbound =
      run("VM-Internet", "tenant crawls web pages",
          pkt(vpc_a->vni, vm1, net::IpAddr::must_parse("93.184.216.34")));
  run("VM-IDC", "pull results to the office",
      pkt(vpc_a->vni, vm1, net::IpAddr::must_parse("172.31.4.4")));
  run("VM-Cross-region", "tenant in China <-> tenant in USA",
      pkt(vpc_a->vni, vm1, net::IpAddr::must_parse("172.30.4.4")));
  // IDC-VM: traffic from the CEN arrives VXLAN-encapsulated with the
  // VPC's VNI; the gateway resolves the VM like any east-west packet.
  run("IDC-VM", "login to the VM from the office",
      pkt(vpc_a->vni, net::IpAddr::must_parse("172.31.9.9"), vm1, 22));

  // Internet-VM: the response to the SNAT'd session re-enters through
  // the software gateway's binding.
  std::string internet_vm = "no binding";
  if (outbound.action == dataplane::Action::kSnatToInternet) {
    for (std::size_t n = 0; n < system.region->x86_node_count(); ++n) {
      auto back = system.region->x86_node(n).process_response(
          x86::SnatBinding{outbound.packet.inner.src.v4(),
                           outbound.packet.inner.src_port},
          net::IpAddr::must_parse("93.184.216.34"), 443, 512, 2.0);
      if (back) {
        internet_vm = "XGW-x86 reverse SNAT -> " +
                      back->outer_dst_ip.to_string() + " (NC)";
        break;
      }
    }
  }
  table.add_row({"Internet-VM", "login to the VM from home", internet_vm,
                 "-"});
  table.print();

  bench::print_note(
      "all seven Table 1 rows traverse the deployed tables; only the "
      "south-north rows touch XGW-x86 — the co-design of §4.2.");
  return 0;
}
