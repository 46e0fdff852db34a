// Microbenchmarks (google-benchmark) for the table structures on the
// packet path, plus the digest-width ablation called out in DESIGN.md.
// Not a paper figure: these quantify the building blocks the reproduction
// rests on.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "net/packet.hpp"
#include "tables/alpm.hpp"
#include "tables/digest_table.hpp"
#include "tables/lpm_trie.hpp"
#include "tables/route_table.hpp"
#include "workload/rng.hpp"
#include "x86/rss.hpp"
#include "x86/snat.hpp"

using namespace sf;

namespace {

constexpr std::size_t kRoutes = 50'000;
constexpr std::size_t kVnis = 512;

template <typename Table>
void fill_routes(Table& table, workload::Rng& rng) {
  for (std::size_t i = 0; i < kRoutes; ++i) {
    table.insert(
        static_cast<net::Vni>(rng.uniform(kVnis)),
        net::Ipv4Prefix(
            net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 24),
        static_cast<std::uint32_t>(i));
  }
}

std::vector<std::pair<net::Vni, net::IpAddr>> probes(std::size_t count) {
  workload::Rng rng(99);
  std::vector<std::pair<net::Vni, net::IpAddr>> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back({static_cast<net::Vni>(rng.uniform(kVnis)),
                   net::IpAddr(net::Ipv4Addr(
                       static_cast<std::uint32_t>(rng.next_u64())))});
  }
  return out;
}

void BM_LpmTrieLookup(benchmark::State& state) {
  tables::LpmTrie<std::uint32_t> trie;
  trie.reserve(kRoutes);
  workload::Rng rng(1);
  fill_routes(trie, rng);
  const auto keys = probes(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vni, ip] = keys[i++ & 1023];
    benchmark::DoNotOptimize(trie.lookup(vni, ip));
  }
}
BENCHMARK(BM_LpmTrieLookup);

void BM_SoftwareLpmLookup(benchmark::State& state) {
  tables::SoftwareLpm<std::uint32_t> lpm;
  workload::Rng rng(1);
  fill_routes(lpm, rng);
  const auto keys = probes(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vni, ip] = keys[i++ & 1023];
    benchmark::DoNotOptimize(lpm.lookup(vni, ip));
  }
}
BENCHMARK(BM_SoftwareLpmLookup);

void BM_AlpmLookup(benchmark::State& state) {
  tables::Alpm<std::uint32_t>::Config config;
  config.max_bucket_entries = static_cast<std::size_t>(state.range(0));
  tables::Alpm<std::uint32_t> alpm(config);
  workload::Rng rng(1);
  fill_routes(alpm, rng);
  const auto keys = probes(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vni, ip] = keys[i++ & 1023];
    benchmark::DoNotOptimize(alpm.lookup(vni, ip));
  }
  state.SetLabel("bucket=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_AlpmLookup)->Arg(16)->Arg(32)->Arg(64);

void BM_DigestVmNcLookup(benchmark::State& state) {
  // 2^19 buckets: the geometry this bench has always measured.
  tables::DigestVmNcTable::Config config;
  config.buckets = 1 << 19;
  tables::DigestVmNcTable table(config);
  workload::Rng rng(2);
  std::vector<tables::VmNcKey> keys;
  for (std::size_t i = 0; i < 50'000; ++i) {
    const bool v6 = rng.chance(0.25);
    tables::VmNcKey key{
        static_cast<net::Vni>(rng.uniform(kVnis)),
        v6 ? net::IpAddr(net::Ipv6Addr(rng.next_u64(), rng.next_u64()))
           : net::IpAddr(net::Ipv4Addr(
                 static_cast<std::uint32_t>(rng.next_u64())))};
    table.insert(key, {net::Ipv4Addr(1)});
    keys.push_back(key);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& key = keys[i++ % keys.size()];
    benchmark::DoNotOptimize(table.lookup(key.vni, key.vm_ip));
  }
}
BENCHMARK(BM_DigestVmNcLookup);

void BM_TcamLookup(benchmark::State& state) {
  tables::Tcam<std::uint32_t> tcam;
  workload::Rng rng(3);
  for (std::size_t i = 0; i < 1024; ++i) {
    const net::IpPrefix prefix = net::Ipv4Prefix(
        net::Ipv4Addr(static_cast<std::uint32_t>(rng.next_u64())), 24);
    auto [key, mask] = tables::make_pooled_prefix(
        static_cast<net::Vni>(rng.uniform(kVnis)), prefix);
    tcam.insert(key, mask, 120, static_cast<std::uint32_t>(i));
  }
  const auto keys = probes(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vni, ip] = keys[i++ & 1023];
    benchmark::DoNotOptimize(
        tcam.lookup(tables::make_pooled_key(vni, ip)));
  }
  state.SetLabel("1K rows, linear priority scan");
}
BENCHMARK(BM_TcamLookup);

void BM_SnatTranslate(benchmark::State& state) {
  x86::SnatEngine snat({{net::Ipv4Addr(203, 0, 113, 1),
                         net::Ipv4Addr(203, 0, 113, 2)},
                        1024,
                        65535,
                        300});
  workload::Rng rng(4);
  std::vector<net::FiveTuple> sessions;
  for (int i = 0; i < 10'000; ++i) {
    sessions.push_back(net::FiveTuple{
        net::IpAddr(net::Ipv4Addr(
            static_cast<std::uint32_t>(rng.next_u64()))),
        net::IpAddr(net::Ipv4Addr(93, 184, 216, 34)), 6,
        static_cast<std::uint16_t>(rng.uniform_range(1024, 65535)), 443});
  }
  std::size_t i = 0;
  double now = 0;
  for (auto _ : state) {
    now += 1e-6;
    benchmark::DoNotOptimize(
        snat.translate(sessions[i++ % sessions.size()], now));
  }
}
BENCHMARK(BM_SnatTranslate);

void BM_RssQueueFor(benchmark::State& state) {
  x86::RssIndirection rss(32);
  const auto keys = probes(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [vni, ip] = keys[i++ & 1023];
    net::FiveTuple tuple{ip, ip, 6, static_cast<std::uint16_t>(vni), 80};
    benchmark::DoNotOptimize(rss.queue_for(tuple));
  }
}
BENCHMARK(BM_RssQueueFor);

void BM_PacketEncodeDecode(benchmark::State& state) {
  net::OverlayPacket pkt;
  pkt.vni = 5001;
  pkt.inner.src = net::IpAddr::must_parse("192.168.10.2");
  pkt.inner.dst = net::IpAddr::must_parse("192.168.10.3");
  pkt.inner.proto = 6;
  pkt.payload_size = 256;
  for (auto _ : state) {
    const auto bytes = net::encode(pkt);
    benchmark::DoNotOptimize(net::decode(bytes));
  }
}
BENCHMARK(BM_PacketEncodeDecode);

// Digest-width ablation: conflicts vs SRAM saving (DESIGN.md §4).
void print_digest_ablation() {
  std::printf(
      "\ndigest-width ablation (100k IPv6 mappings): conflicts vs width\n");
  std::printf("%8s %12s %16s %18s\n", "bits", "conflicts",
              "conflict rate", "entry SRAM words");
  for (unsigned bits : {16u, 20u, 24u, 28u, 32u}) {
    tables::DigestVmNcTable::Config config;
    config.digest_bits = bits;
    config.buckets = 1 << 18;
    tables::DigestVmNcTable table(config);
    workload::Rng rng(5);
    for (int i = 0; i < 100'000; ++i) {
      table.insert({1, net::IpAddr(net::Ipv6Addr(rng.next_u64(),
                                                 rng.next_u64()))},
                   {net::Ipv4Addr(1)});
    }
    const auto stats = table.stats();
    std::printf("%8u %12zu %15.4f%% %18zu\n", bits, stats.conflict_entries,
                100.0 * static_cast<double>(stats.conflict_entries) /
                    100'000.0,
                table.entry_words());
  }
  std::printf(
      "(paper uses 32 bits: conflicts are birthday-bound ~n^2/2^33 and "
      "the side table stays tiny)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  print_digest_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
