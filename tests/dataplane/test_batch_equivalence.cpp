// Every Gateway implementation must keep process_batch() equivalent to
// looping process(): same verdicts, same telemetry. These tests hold
// XGW-H, XGW-x86 and the cluster wrapper to that contract through the
// base-class interface alone.

#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "cluster/cluster.hpp"
#include "dataplane/gateway.hpp"
#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace sf::dataplane {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;

template <typename Programmer>
void install_tables(Programmer& gw) {
  gw.install_route(7, IpPrefix::must_parse("10.7.0.0/16"),
                   {RouteScope::kLocal, 0, {}});
  gw.install_route(7, IpPrefix::must_parse("0.0.0.0/0"),
                   {RouteScope::kInternet, 0, {}});
  gw.install_mapping({7, IpAddr::must_parse("10.7.0.2")},
                     {net::Ipv4Addr(172, 16, 0, 1)});
}

std::vector<net::OverlayPacket> mixed_batch() {
  std::vector<net::OverlayPacket> packets;
  const char* dsts[] = {"10.7.0.2",       // local hit
                        "10.7.0.99",      // mapping miss
                        "93.184.216.34",  // internet
                        "10.7.0.2"};      // local hit again
  std::uint16_t port = 40000;
  for (const char* dst : dsts) {
    net::OverlayPacket pkt;
    pkt.vni = 7;
    pkt.inner.src = IpAddr::must_parse("10.7.0.3");
    pkt.inner.dst = IpAddr::must_parse(dst);
    pkt.inner.proto = 6;
    pkt.inner.src_port = port++;
    pkt.inner.dst_port = 443;
    pkt.payload_size = 200;
    packets.push_back(pkt);
  }
  // An unknown tenant rides along.
  net::OverlayPacket stray = packets.front();
  stray.vni = 999;
  packets.push_back(stray);
  return packets;
}

void expect_equivalent(const Verdict& batch, const Verdict& single,
                       std::size_t index) {
  EXPECT_EQ(batch.action, single.action) << index;
  EXPECT_EQ(batch.drop_reason, single.drop_reason) << index;
  EXPECT_EQ(batch.software_path, single.software_path) << index;
  EXPECT_EQ(batch.latency_us, single.latency_us) << index;
  EXPECT_EQ(batch.packet.outer_dst_ip, single.packet.outer_dst_ip) << index;
}

// Runs the batch through `batch_gw` and the same packets one by one
// through `single_gw` (two identically-programmed instances so telemetry
// comparisons stay clean).
void check_gateway_pair(Gateway& batch_gw, Gateway& single_gw) {
  const auto packets = mixed_batch();
  const auto batch = batch_gw.process_batch(packets, /*now=*/1.0);
  ASSERT_EQ(batch.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const Verdict single = single_gw.process(packets[i], /*now=*/1.0);
    expect_equivalent(batch[i], single, i);
  }
}

TEST(BatchEquivalence, XgwH) {
  xgwh::XgwH a{xgwh::XgwH::Config{}};
  xgwh::XgwH b{xgwh::XgwH::Config{}};
  install_tables(a);
  install_tables(b);
  check_gateway_pair(a, b);
  for (const char* name : {"xgwh.packets_in", "xgwh.packets_forwarded",
                           "xgwh.packets_fallback"}) {
    EXPECT_EQ(a.registry().counter_value(name),
              b.registry().counter_value(name))
        << name;
  }
}

TEST(BatchEquivalence, XgwX86) {
  x86::XgwX86 a{x86::XgwX86::Config{}};
  x86::XgwX86 b{x86::XgwX86::Config{}};
  install_tables(a);
  install_tables(b);
  check_gateway_pair(a, b);
  for (const char* name : {"x86.packets_in", "x86.packets_dropped"}) {
    EXPECT_EQ(a.registry().counter_value(name),
              b.registry().counter_value(name))
        << name;
  }
}

TEST(BatchEquivalence, Cluster) {
  cluster::XgwHCluster::Config config;
  config.primary_devices = 2;
  cluster::XgwHCluster a(config);
  cluster::XgwHCluster b(config);
  install_tables(a);
  install_tables(b);
  check_gateway_pair(a, b);
}

TEST(BatchEquivalence, SpanFormWritesIntoCallerStorage) {
  xgwh::XgwH gw{xgwh::XgwH::Config{}};
  install_tables(gw);
  const auto packets = mixed_batch();
  std::vector<Verdict> out(packets.size() + 3);  // oversized is fine
  gw.process_batch(packets, /*now=*/1.0, out);
  EXPECT_EQ(out[0].action, Action::kForwardToNc);
  EXPECT_EQ(out[2].action, Action::kFallbackToX86);
}

TEST(BatchEquivalence, SpanFormRejectsShortOutput) {
  xgwh::XgwH gw{xgwh::XgwH::Config{}};
  install_tables(gw);
  const auto packets = mixed_batch();
  std::vector<Verdict> out(packets.size() - 1);
  EXPECT_THROW(gw.process_batch(packets, 1.0, out), std::invalid_argument);
}

TEST(BatchEquivalence, IndexedBatchRejectsShortFlowHashes) {
  // A non-empty hash span must hold one hash per packet: the indexed
  // form reads flow_hashes[indices[i]], so a short span is out of bounds.
  const auto packets = mixed_batch();
  std::vector<std::uint64_t> hashes;
  for (const auto& pkt : packets) hashes.push_back(pkt.inner.hash());
  hashes.pop_back();
  const std::vector<std::uint32_t> indices = {0};
  std::vector<Verdict> out(packets.size());
  xgwh::XgwH hw{xgwh::XgwH::Config{}};
  x86::XgwX86 sw{x86::XgwX86::Config{}};
  for (Gateway* gw : std::initializer_list<Gateway*>{&hw, &sw}) {
    EXPECT_THROW(
        gw->process_batch_indexed(packets, hashes, indices, 1.0, out),
        std::invalid_argument);
  }
}

TEST(BatchEquivalence, EmptyBatch) {
  xgwh::XgwH gw{xgwh::XgwH::Config{}};
  EXPECT_TRUE(gw.process_batch(std::span<const net::OverlayPacket>{})
                  .empty());
}

TEST(BatchEquivalence, IndexedBatchRejectsOutOfRangeIndex) {
  // An index past the packet array throws before any state changes: no
  // packet is counted, no verdict written, no cache entry touched.
  const auto packets = mixed_batch();
  const std::vector<std::uint32_t> indices = {
      0, 1, static_cast<std::uint32_t>(packets.size())};
  xgwh::XgwH hw{xgwh::XgwH::Config{}};
  x86::XgwX86 sw{x86::XgwX86::Config{}};
  cluster::XgwHCluster::Config cluster_config;
  cluster_config.primary_devices = 2;
  cluster::XgwHCluster cluster(cluster_config);  // the Gateway default
  install_tables(hw);
  install_tables(sw);
  install_tables(cluster);
  for (Gateway* gw : std::initializer_list<Gateway*>{&hw, &sw, &cluster}) {
    std::vector<Verdict> out(packets.size());
    out[0].action = Action::kSnatToInternet;  // a sentinel no path writes
    for (const bool hashed : {false, true}) {
      std::vector<std::uint64_t> hashes;
      if (hashed) {
        for (const auto& pkt : packets) hashes.push_back(pkt.inner.hash());
      }
      EXPECT_THROW(gw->process_batch_indexed(packets, hashes, indices, 1.0,
                                             out),
                   std::out_of_range);
    }
    EXPECT_EQ(out[0].action, Action::kSnatToInternet);
  }
  EXPECT_EQ(hw.registry().counter_value("xgwh.packets_in"), 0u);
  EXPECT_EQ(sw.registry().counter_value("x86.packets_in"), 0u);
}

}  // namespace
}  // namespace sf::dataplane
