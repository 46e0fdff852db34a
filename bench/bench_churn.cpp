// Mid-interval table churn: a tenant-onboarding wave plus a VM-migration
// storm applied by a dedicated mutator thread WHILE the sharded engine
// forwards a packet batch (DESIGN.md §13). Every update carries a virtual
// apply_index, so which packets see which table version is a property of
// the stamped op stream — never of thread timing.
//
// Asserted as a side effect (FATAL on violation):
//   * the churn verdict stream is byte-identical at 1 and 8 worker
//     threads (and so are the per-shard table/counter reports);
//   * the flow-cached fleet produces exactly the uncached fleet's
//     verdicts under churn (per-VNI invalidation is coherent);
//   * at least one verdict differs from the static-table run — the
//     migrations really became visible mid-interval.
//
// Measured: sustained update rate (target >= 50k ops/s) and the uncached
// forwarding-rate degradation vs a churn-free run (target < 10%). Numbers
// land in BENCH_churn.json; EXPERIMENTS.md quotes them.

#include <chrono>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "dataplane/shard_engine.hpp"
#include "sim/table_printer.hpp"
#include "x86/xgw_x86.hpp"

using namespace sf;

namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kVnis = 64;
constexpr std::size_t kHosts = 16;        // mapped VMs per tenant
constexpr std::size_t kWorkingSet = 512;  // distinct hot flows
constexpr std::size_t kPackets = 240'000;
// One op per 120 packets — far above the paper's Fig. 23 update:packet
// ratio, but low enough that forwarding is not artificially mutator-bound.
constexpr std::size_t kOps = 2'000;

net::Vni base_vni(std::size_t v) { return static_cast<net::Vni>(100 + v); }

/// Identical tables on every shard node: kVnis tenants, each a local /16
/// and kHosts VM-NC mappings.
void install_tables(dataplane::TableProgrammer& gw) {
  for (std::size_t v = 0; v < kVnis; ++v) {
    gw.install_route(
        base_vni(v),
        net::Ipv4Prefix(net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 0, 0),
                        16),
        tables::VxlanRouteAction{tables::RouteScope::kLocal, 0, {}});
    for (std::size_t host = 1; host <= kHosts; ++host) {
      gw.install_mapping(
          tables::VmNcKey{base_vni(v),
                          net::IpAddr(net::Ipv4Addr(
                              10, static_cast<std::uint8_t>(v), 1,
                              static_cast<std::uint8_t>(host)))},
          tables::VmNcAction{net::Ipv4Addr(
              172, 16, static_cast<std::uint8_t>(v),
              static_cast<std::uint8_t>(host))});
    }
  }
}

std::vector<std::unique_ptr<x86::XgwX86>> make_fleet(
    std::size_t cache_entries) {
  std::vector<std::unique_ptr<x86::XgwX86>> fleet;
  fleet.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    x86::XgwX86::Config config;
    config.flow_cache_entries = cache_entries;
    fleet.push_back(std::make_unique<x86::XgwX86>(config));
    install_tables(*fleet.back());
  }
  return fleet;
}

net::OverlayPacket hot_flow(std::size_t id) {
  const std::size_t v = id % kVnis;
  const std::size_t host = 1 + (id / kVnis) % kHosts;
  net::OverlayPacket pkt;
  pkt.vni = base_vni(v);
  pkt.inner.src = net::IpAddr(
      net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 2,
                    static_cast<std::uint8_t>(1 + id % 250)));
  pkt.inner.dst = net::IpAddr(
      net::Ipv4Addr(10, static_cast<std::uint8_t>(v), 1,
                    static_cast<std::uint8_t>(host)));
  pkt.inner.proto = 6;
  pkt.inner.src_port = static_cast<std::uint16_t>(40000 + id % 1000);
  pkt.inner.dst_port = 80;
  pkt.payload_size = 200;
  return pkt;
}

std::vector<net::OverlayPacket> make_stream() {
  std::vector<net::OverlayPacket> packets;
  packets.reserve(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    packets.push_back(hot_flow(i % kWorkingSet));
  }
  return packets;
}

/// The churn stream. Even ops are VM migrations: an existing tenant's
/// mapping re-targets a new NC (its in-flight flows must follow from the
/// next virtual instant on). Odd ops onboard fresh tenants (route +
/// mapping installs that grow the tables mid-interval). apply_index is
/// spread evenly across the batch.
std::vector<dataplane::TimedTableOp> make_updates() {
  std::vector<dataplane::TimedTableOp> updates;
  updates.reserve(kOps);
  for (std::size_t k = 0; k < kOps; ++k) {
    dataplane::TimedTableOp timed;
    timed.apply_index = k * kPackets / kOps;
    dataplane::TableOp& op = timed.op;
    if (k % 2 == 0) {
      const std::size_t m = k / 2;
      const std::size_t v = m % kVnis;
      const std::size_t host = 1 + (m / kVnis) % kHosts;
      const std::size_t wave = m / (kVnis * kHosts);
      op.kind = dataplane::TableOp::Kind::kAddMapping;
      op.mapping_key =
          tables::VmNcKey{base_vni(v),
                          net::IpAddr(net::Ipv4Addr(
                              10, static_cast<std::uint8_t>(v), 1,
                              static_cast<std::uint8_t>(host)))};
      op.mapping_action = tables::VmNcAction{net::Ipv4Addr(
          172, static_cast<std::uint8_t>(17 + wave),
          static_cast<std::uint8_t>(v), static_cast<std::uint8_t>(host))};
      op.vni = op.mapping_key.vni;
    } else {
      // Onboarding: a brand-new tenant's first route (no traffic in this
      // batch; it stresses the publish path and table growth).
      const std::size_t t = k / 2;
      op.kind = dataplane::TableOp::Kind::kAddRoute;
      op.vni = static_cast<net::Vni>(0x30000 + t);
      op.prefix = net::Ipv4Prefix(
          net::Ipv4Addr(10, static_cast<std::uint8_t>(64 + t % 128), 0, 0),
          16);
      op.route_action =
          tables::VxlanRouteAction{tables::RouteScope::kLocal, 0, {}};
    }
    updates.push_back(timed);
  }
  return updates;
}

using Fleet = std::vector<std::unique_ptr<x86::XgwX86>>;

std::function<dataplane::Gateway&(std::size_t)> gateway_for(Fleet& fleet) {
  return [&fleet](std::size_t shard) -> dataplane::Gateway& {
    return *fleet[shard];
  };
}

/// CPU seconds consumed by the calling thread so far.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/// One interleaved pass: mutator applies the op stream (fanned to every
/// shard node) while the engine forwards. Returns wall seconds; when
/// `mutator_seconds` is non-null it receives the mutator thread's CPU
/// time over the apply stream — its wall span is scheduler noise on an
/// oversubscribed host, CPU time is the work the updates actually cost.
double run_churn(dataplane::ShardEngine& engine, Fleet& fleet,
                 std::span<const net::OverlayPacket> packets,
                 std::span<const dataplane::TimedTableOp> updates,
                 std::span<dataplane::Verdict> out,
                 double* mutator_seconds = nullptr) {
  std::vector<std::uint64_t> base(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    base[s] = fleet[s]->table_version();
  }
  double mutator_cpu_t0 = 0;
  dataplane::ShardEngine::UpdatePlan plan;
  plan.updates = updates;
  plan.apply = [&](std::size_t k) {
    if (k == 0) mutator_cpu_t0 = thread_cpu_seconds();
    const auto batch = dataplane::TableOpBatch::single(updates[k].op);
    for (auto& node : fleet) node->apply(batch);
    if (k + 1 == updates.size() && mutator_seconds != nullptr) {
      *mutator_seconds = thread_cpu_seconds() - mutator_cpu_t0;
    }
  };
  plan.advance = [&](std::size_t shard, std::size_t visible) {
    fleet[shard]->set_lookup_seq(base[shard] + visible);
  };
  const auto t0 = std::chrono::steady_clock::now();
  engine.process_packets(packets, 0.0, gateway_for(fleet), out, plan);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  for (auto& node : fleet) node->set_lookup_seq(std::nullopt);
  return dt.count();
}

bool same_verdict(const dataplane::Verdict& a, const dataplane::Verdict& b) {
  return a.action == b.action && a.drop_reason == b.drop_reason &&
         a.latency_us == b.latency_us &&
         a.packet.outer_src_ip == b.packet.outer_src_ip &&
         a.packet.outer_dst_ip == b.packet.outer_dst_ip;
}

std::size_t first_difference(std::span<const dataplane::Verdict> a,
                             std::span<const dataplane::Verdict> b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_verdict(a[i], b[i])) return i;
  }
  return a.size();
}

/// The per-shard interval report: table versions, table sizes, forwarding
/// counters. Byte-compared across thread counts.
std::string fleet_report(const Fleet& fleet) {
  std::string report;
  for (std::size_t s = 0; s < kShards; ++s) {
    const x86::XgwX86& node = *fleet[s];
    report += sim::format(
        "shard=%zu version=%llu routes=%zu mappings=%zu in=%llu fwd=%llu "
        "drop=%llu\n",
        s, static_cast<unsigned long long>(node.table_version()),
        node.route_count(), node.mapping_count(),
        static_cast<unsigned long long>(node.telemetry().packets_in),
        static_cast<unsigned long long>(node.telemetry().packets_forwarded),
        static_cast<unsigned long long>(node.telemetry().packets_dropped));
  }
  return report;
}

}  // namespace

int main() {
  bench::print_header(
      "Table churn",
      "mid-interval RCU updates vs forwarding, 1 vs 8 threads");

  const auto packets = make_stream();
  const auto updates = make_updates();

  // ---- byte-identity sweeps (fresh fleets, first pass only) --------------
  // Static reference: same batch, no churn.
  std::vector<dataplane::Verdict> reference(kPackets);
  {
    dataplane::ShardEngine engine({kShards, 1});
    auto fleet = make_fleet(0);
    engine.process_packets(packets, 0.0, gateway_for(fleet), reference);
  }

  std::vector<dataplane::Verdict> uncached_1(kPackets), uncached_8(kPackets);
  std::vector<dataplane::Verdict> cached_1(kPackets), cached_8(kPackets);
  std::string report_1, report_8;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    dataplane::ShardEngine engine({kShards, threads});
    auto uncached = make_fleet(0);
    auto cached = make_fleet(1 << 12);
    auto& u_out = threads == 1 ? uncached_1 : uncached_8;
    auto& c_out = threads == 1 ? cached_1 : cached_8;
    run_churn(engine, uncached, packets, updates, u_out);
    run_churn(engine, cached, packets, updates, c_out);
    (threads == 1 ? report_1 : report_8) = fleet_report(uncached);
  }

  if (std::size_t i = first_difference(uncached_1, uncached_8);
      i != kPackets) {
    const auto& a = uncached_1[i];
    const auto& b = uncached_8[i];
    std::fprintf(stderr,
                 "FATAL: churn verdicts diverged between 1 and 8 threads "
                 "at packet %zu\n  1t: action=%d drop=%d lat=%f dst=%s\n"
                 "  8t: action=%d drop=%d lat=%f dst=%s\n",
                 i, static_cast<int>(a.action),
                 static_cast<int>(a.drop_reason), a.latency_us,
                 a.packet.outer_dst_ip.to_string().c_str(),
                 static_cast<int>(b.action), static_cast<int>(b.drop_reason),
                 b.latency_us, b.packet.outer_dst_ip.to_string().c_str());
    return 1;
  }
  if (std::size_t i = first_difference(cached_1, cached_8); i != kPackets) {
    std::fprintf(stderr,
                 "FATAL: cached churn verdicts diverged between 1 and 8 "
                 "threads at packet %zu\n",
                 i);
    return 1;
  }
  if (std::size_t i = first_difference(cached_1, uncached_1);
      i != kPackets) {
    std::fprintf(stderr,
                 "FATAL: flow cache incoherent under churn at packet %zu\n",
                 i);
    return 1;
  }
  if (report_1 != report_8) {
    std::fprintf(stderr,
                 "FATAL: interval reports differ between thread counts:\n"
                 "--- 1 thread ---\n%s--- 8 threads ---\n%s",
                 report_1.c_str(), report_8.c_str());
    return 1;
  }
  std::size_t changed = 0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    if (!same_verdict(uncached_1[i], reference[i])) ++changed;
  }
  if (changed == 0) {
    std::fprintf(stderr,
                 "FATAL: no verdict changed under churn — migrations never "
                 "became visible mid-interval\n");
    return 1;
  }

  // ---- timing (uncached fleets, best of kReps) ---------------------------
  constexpr int kReps = 5;
  struct Point {
    std::size_t threads = 1;
    double static_mpps = 0;
    double churn_mpps = 0;
    double degradation = 0;      // wall-clock: 1 - churn/static
    double fwd_degradation = 0;  // mutator CPU discounted when timesharing
    double ops_per_s = 0;
  };
  std::vector<Point> points;
  std::vector<dataplane::Verdict> sink(kPackets);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    dataplane::ShardEngine engine({kShards, threads});
    auto static_fleet = make_fleet(0);
    auto churn_fleet = make_fleet(0);
    double static_s = 0, churn_s = 0, mutator_s = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto t0 = std::chrono::steady_clock::now();
      engine.process_packets(packets, 0.0, gateway_for(static_fleet), sink);
      const std::chrono::duration<double> st =
          std::chrono::steady_clock::now() - t0;
      double ms = 0;
      const double ct =
          run_churn(engine, churn_fleet, packets, updates, sink, &ms);
      if (rep == 0 || st.count() < static_s) static_s = st.count();
      if (rep == 0 || ct < churn_s) churn_s = ct;
      if (rep == 0 || ms < mutator_s) mutator_s = ms;
    }
    Point point;
    point.threads = threads;
    point.static_mpps = kPackets / static_s / 1e6;
    point.churn_mpps = kPackets / churn_s / 1e6;
    point.degradation = 1.0 - point.churn_mpps / point.static_mpps;
    // When forwarding threads + the mutator timeshare too few CPUs, wall
    // clock charges the mutator's own table work to forwarding. Discount
    // the mutator span to isolate what the paper's claim is about — the
    // read-path overhead of concurrent updates (pins, invalidation).
    const std::size_t hw = std::thread::hardware_concurrency();
    const bool timeshared = hw != 0 && threads + 1 > hw;
    const double fwd_s =
        timeshared && churn_s > mutator_s ? churn_s - mutator_s : churn_s;
    point.fwd_degradation = 1.0 - (kPackets / fwd_s / 1e6) / point.static_mpps;
    // Sustained apply rate over the mutator's own span: the updates all
    // landed mid-interval, so this is the rate the data plane absorbed
    // while forwarding (each op also fans out to all kShards nodes).
    point.ops_per_s = static_cast<double>(kOps) / mutator_s;
    points.push_back(point);
  }

  sim::TablePrinter table({"Threads", "Static Mpps", "Churn Mpps",
                           "Wall degr", "Fwd degr", "Update ops/s"});
  for (const Point& p : points) {
    table.add_row({std::to_string(p.threads),
                   sim::format_double(p.static_mpps, 3),
                   sim::format_double(p.churn_mpps, 3),
                   bench::pct(p.degradation),
                   bench::pct(p.fwd_degradation),
                   sim::format_double(p.ops_per_s / 1e3, 1) + "k"});
  }
  table.print();
  std::printf("verdicts changed by mid-interval migrations: %zu of %zu\n",
              changed, kPackets);
  std::printf("hardware threads: %u (forwarding degradation is "
              "mutator-CPU-adjusted when timeshared)\n",
              std::thread::hardware_concurrency());
  bench::print_note(
      "verdict streams and interval reports byte-matched at 1 vs 8 "
      "threads; cached == uncached under churn. Targets: >= 50k ops/s "
      "sustained, < 10% uncached forwarding degradation.");
  for (const Point& p : points) {
    if (p.ops_per_s < 50'000) {
      std::printf("WARN: %zu-thread update rate %.0f ops/s below 50k "
                  "target\n",
                  p.threads, p.ops_per_s);
    }
    if (p.fwd_degradation >= 0.10) {
      std::printf("WARN: %zu-thread uncached forwarding degradation %.1f%% "
                  "above 10%% target\n",
                  p.threads, 100.0 * p.fwd_degradation);
    }
  }

  std::ofstream json("BENCH_churn.json");
  json << "{\n"
       << "  \"bench\": \"churn\",\n"
       << "  \"shards\": " << kShards << ",\n"
       << "  \"packets\": " << kPackets << ",\n"
       << "  \"update_ops\": " << kOps << ",\n"
       << "  \"verdicts_changed_by_churn\": " << changed << ",\n"
       << "  \"byte_identical_across_threads\": true,\n"
       << "  \"cache_coherent_under_churn\": true,\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    json << "    {\"threads\": " << p.threads
         << ", \"static_mpps\": " << p.static_mpps
         << ", \"churn_mpps\": " << p.churn_mpps
         << ", \"wall_degradation\": " << p.degradation
         << ", \"forwarding_degradation\": " << p.fwd_degradation
         << ", \"update_ops_per_s\": " << p.ops_per_s << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_churn.json\n");
  return 0;
}
