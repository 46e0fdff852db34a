// Fast-path micro-contracts, checked with real instrumentation rather
// than inspection:
//
//   * a warmed cache hit performs ZERO heap allocations end to end
//     (counting global operator new/delete overrides below);
//   * an untraced SailfishRegion::process() of a warm packet makes no heap
//     allocation on any served path — the path-trace recorder inside it
//     costs nothing when off.
//
// This lives in its own binary because the operator new/delete overrides
// are global: they must not contaminate the other test suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/sailfish.hpp"
#include "x86/xgw_x86.hpp"
#include "xgwh/xgwh.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

/// Counts one allocation of `size` bytes; `align` is 0 for the plain
/// overloads. Aligned storage (the tables' cache-line slot arrays) goes
/// through the std::align_val_t overloads, so those must count too.
void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = align == 0
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sf {
namespace {

using net::IpAddr;
using net::IpPrefix;
using tables::RouteScope;
using tables::VmNcAction;
using tables::VmNcKey;
using tables::VxlanRouteAction;

void install_tables(dataplane::TableProgrammer& gw) {
  gw.install_route(10, IpPrefix::must_parse("192.168.10.0/24"),
                   VxlanRouteAction{RouteScope::kLocal, 0, {}});
  gw.install_mapping(VmNcKey{10, IpAddr::must_parse("192.168.10.2")},
                     VmNcAction{net::Ipv4Addr(10, 1, 1, 11)});
}

net::OverlayPacket sample_packet(std::uint16_t src_port = 40000) {
  net::OverlayPacket pkt;
  pkt.vni = 10;
  pkt.inner.src = IpAddr::must_parse("192.168.10.3");
  pkt.inner.dst = IpAddr::must_parse("192.168.10.2");
  pkt.inner.proto = 6;
  pkt.inner.src_port = src_port;
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

TEST(FastPath, XgwHCacheHitMakesZeroHeapAllocations) {
  xgwh::XgwH::Config config;
  config.flow_cache_entries = 1 << 10;
  xgwh::XgwH gw(config);
  install_tables(gw);
  const net::OverlayPacket pkt = sample_packet();

  // Warm-up: fill the cache AND saturate the histogram reservoirs
  // (latency keeps 256 samples, passes 128) so steady state is reached.
  for (int i = 0; i < 400; ++i) gw.forward(pkt, i * 1e-6);
  ASSERT_GT(gw.flow_cache_stats().hits, 0u);
  ASSERT_EQ(gw.forward(pkt, 1.0).action, dataplane::Action::kForwardToNc);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) gw.forward(pkt, 2.0 + i * 1e-6);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a warmed cache hit must not touch the heap";
}

TEST(FastPath, XgwHWarmMissBurstMakesZeroHeapAllocations) {
  // Every packet is a new flow, so each one misses and walks the pipeline:
  // the burst's walk contexts, their Phvs and the walker's grouping
  // scratch must all be reused, not rebuilt, once warm.
  for (const std::size_t cache_entries : {std::size_t{0}, std::size_t{1024}}) {
    SCOPED_TRACE(testing::Message() << "cache entries " << cache_entries);
    xgwh::XgwH::Config config;
    config.flow_cache_entries = cache_entries;
    xgwh::XgwH gw(config);
    install_tables(gw);
    std::uint16_t port = 1;
    std::vector<net::OverlayPacket> packets(64);
    std::vector<std::uint32_t> indices(packets.size());
    std::vector<dataplane::Verdict> out(packets.size());
    const auto fresh_burst = [&] {
      for (std::size_t i = 0; i < packets.size(); ++i) {
        packets[i] = sample_packet(port++);
        indices[i] = static_cast<std::uint32_t>(i);
      }
    };
    // Warm-up: grow every scratch vector and saturate the histogram
    // reservoirs (latency keeps 256 samples, passes 128).
    for (int burst = 0; burst < 8; ++burst) {
      fresh_burst();
      gw.process_batch_indexed(packets, {}, indices, burst * 1e-3, out);
    }
    for (int i = 0; i < 64; ++i) gw.forward(sample_packet(port++), 1.0);
    ASSERT_EQ(out[0].action, dataplane::Action::kForwardToNc);

    fresh_burst();
    std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    gw.process_batch_indexed(packets, {}, indices, 2.0, out);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << "a warm all-miss burst must not touch the heap";

    before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 64; ++i) gw.forward(sample_packet(port++), 3.0);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << "warm scalar misses must not touch the heap";
    if (cache_entries > 0) {
      EXPECT_EQ(gw.flow_cache_stats().hits, 0u);
    }
  }
}

TEST(FastPath, XgwX86CacheHitMakesZeroHeapAllocations) {
  x86::XgwX86::Config config;
  config.flow_cache_entries = 1 << 10;
  x86::XgwX86 gw(config);
  install_tables(gw);
  const net::OverlayPacket pkt = sample_packet();

  for (int i = 0; i < 400; ++i) gw.forward(pkt, i * 1e-6);
  ASSERT_GT(gw.flow_cache_stats().hits, 0u);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) gw.forward(pkt, 2.0 + i * 1e-6);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

TEST(FastPath, RegionProcessWarmMakesZeroHeapAllocations) {
  struct Case {
    const char* path_label;
    core::SailfishOptions options;
    /// Flow scope to pick; kLocal also matches software-tier tenants.
    tables::RouteScope scope;
    /// Pick a flow of an overflow-admitted (software-tier) tenant.
    bool software_tier;
  };
  core::SailfishOptions legacy_overflow = core::overflow_options(4.0, false);
  legacy_overflow.region.enable_punt_path = false;
  const Case cases[] = {
      {"hardware-forwarded", core::quickstart_options(),
       RouteScope::kLocal, false},
      {"software-snat", core::quickstart_options(), RouteScope::kInternet,
       false},
      // Software-tier tenant, no punt path: legacy tuple-ECMP to x86.
      {"software-forwarded", legacy_overflow, RouteScope::kLocal, true},
      // Software-tier tenant over the bounded punt lane to x86.
      {"software-forwarded", core::overflow_options(4.0, false),
       RouteScope::kLocal, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << c.path_label << (c.software_tier ? " (overflow)" : ""));
    core::SailfishSystem system = core::make_system(c.options);
    core::SailfishRegion& region = *system.region;
    const workload::Flow* flow = nullptr;
    for (const workload::Flow& f : system.flows) {
      if (f.scope == c.scope &&
          region.controller().is_overflow(f.vni) == c.software_tier) {
        flow = &f;
        break;
      }
    }
    ASSERT_NE(flow, nullptr);
    net::OverlayPacket pkt;
    pkt.vni = flow->vni;
    pkt.inner = flow->tuple;
    pkt.payload_size = 128;

    // Warm-up: flow caches, SNAT binding, punt lane, and every histogram
    // reservoir (256 samples at most) saturated. Time advances 1 ms per
    // packet so the punt lane drains between packets.
    double now = 0;
    for (int i = 0; i < 400; ++i) region.process(pkt, now += 1e-3);
    ASSERT_EQ(dataplane::path_label(region.process(pkt, now += 1e-3)),
              c.path_label);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) region.process(pkt, now += 1e-3);
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << "a warm untraced region packet must not touch the heap";
  }
}

TEST(FastPath, XgwHConstructionAllocatesOnlyItsDeclaredTables) {
  // Each of the two shards owns one VM-NC slot array, which starts at
  // ExactTable::kInitialBuckets x ways slots and grows only as mappings
  // arrive; everything else a device builds (ALPM roots, program,
  // registry) fits in 1 MiB. A slot array allocated at its modeled
  // vm_table_buckets capacity, or a table first built at a default
  // geometry and then replaced, would exceed this.
  using PooledTable = tables::ExactTable<std::uint64_t, tables::VmNcAction>;
  const xgwh::XgwH::Config config;
  const std::uint64_t slot_array =
      std::min(config.vm_table_buckets, PooledTable::kInitialBuckets) *
      tables::DigestVmNcTable::Config{}.ways * PooledTable::slot_bytes();

  const std::uint64_t before =
      g_allocated_bytes.load(std::memory_order_relaxed);
  { const xgwh::XgwH gw(config); }
  const std::uint64_t bytes =
      g_allocated_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(bytes, 2 * slot_array + (std::uint64_t{1} << 20))
      << "constructing an XgwH allocated " << bytes << " bytes";
}

}  // namespace
}  // namespace sf
