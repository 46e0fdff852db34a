#include "soak/soak.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/sailfish.hpp"
#include "net/hash.hpp"
#include "sim/table_printer.hpp"
#include "workload/rng.hpp"
#include "workload/traffic_pattern.hpp"

namespace sf::soak {

using sim::format;

namespace {

constexpr double kPi = 3.14159265358979323846;

/// Per-tenant diurnal modulation on top of the region envelope: a ±30%
/// sine whose phase is hashed from the VNI, so tenants peak at different
/// local hours and the region mix shifts through the day.
double tenant_envelope(net::Vni vni, double t_seconds) {
  const double phase = static_cast<double>(net::mix64(vni) % 24);
  const double hour = std::fmod(t_seconds / 3600.0, 24.0);
  return 1.0 + 0.3 * std::sin(2.0 * kPi * (hour - phase) / 24.0);
}

/// The region a tenant calls home (same answer in every region — the
/// tenant universe is shared).
std::size_t home_region(net::Vni vni, std::size_t regions) {
  return static_cast<std::size_t>(net::mix64(vni ^ 0x9e3779b9u) % regions);
}

/// Normalized cross-region multiplier: a tenant offers (1-f) of its
/// traffic at home and f spread over the other regions, scaled by the
/// region count so the per-region totals stay at the pattern's base rate.
double region_multiplier(net::Vni vni, std::size_t region,
                         std::size_t regions, double f) {
  if (regions <= 1) return 1.0;
  const double away = f / static_cast<double>(regions - 1);
  const bool home = home_region(vni, regions) == region;
  return static_cast<double>(regions) * (home ? 1.0 - f : away);
}

}  // namespace

struct SoakEngine::RegionState {
  std::size_t index = 0;
  workload::RegionTopology topology;
  std::vector<workload::Flow> flows;
  std::unique_ptr<core::SailfishRegion> region;
  workload::TrafficPattern pattern;
  std::unique_ptr<ChaosTimeline> timeline;
  std::unique_ptr<InvariantAuditor> auditor;
  std::unique_ptr<SloLedger> ledger;
  /// flows with per-interval weights written in place.
  std::vector<workload::Flow> scratch;
  /// Per-flow weight including the cross-region multiplier.
  std::vector<double> base_weight;
  std::uint64_t snat_counter = 0;
  std::uint64_t snat_attempts = 0;
  std::vector<std::string> all_violations;
};

SoakEngine::SoakEngine(Config config) : config_(std::move(config)) {
  if (config_.regions == 0) config_.regions = 1;
  week_intervals_ = static_cast<std::size_t>(
      std::max(1.0, config_.sim_hours * 3600.0 / config_.interval_s));
  for (std::size_t r = 0; r < config_.regions; ++r) build_region(r);
}

SoakEngine::~SoakEngine() = default;

void SoakEngine::build_region(std::size_t index) {
  auto state = std::make_unique<RegionState>();
  state->index = index;

  // One tenant universe: every region builds the same topology; the flow
  // populations (the tuples carrying each tenant's traffic) differ.
  core::SailfishOptions options = core::quickstart_options();
  options.topology.seed = 42;
  options.flows.flow_count = 500;
  // "Top flow is a fraction of a percent of the region" — the make_scenario
  // shape; a 1.25 head would put one flow at ~20% of the region, which no
  // single x86 core (or DPU fallback interval) could ever absorb.
  options.flows.zipf_exponent = 0.5;
  options.flows.seed =
      43 + static_cast<std::uint64_t>(index) + 1000 * (config_.seed % 1000);

  state->topology = workload::generate_topology(options.topology);
  state->flows = workload::generate_flows(state->topology, options.flows);

  // Shuffle VPC admission order (fixed seed: the tenant universe must
  // stay common across regions and soak seeds). Generated order is
  // largest-first, so admitting as-is would fill the squeezed clusters
  // with every tenant that matters and leave only the zero-traffic tail
  // in the software tier — the punt lanes and DPU tier would idle all
  // week. Shuffled, the overflow tier carries a real traffic share.
  workload::Rng shuffle_rng(0x50f7713100d5eedULL);
  for (std::size_t i = state->topology.vpcs.size(); i > 1; --i) {
    std::swap(state->topology.vpcs[i - 1],
              state->topology.vpcs[shuffle_rng.uniform(i)]);
  }

  // Per-tenant offered shares in THIS region (flow weight sums times the
  // cross-region multiplier) — the guard budgets derive from them.
  std::map<net::Vni, double> shares;
  state->base_weight.reserve(state->flows.size());
  for (const workload::Flow& flow : state->flows) {
    const double mult = region_multiplier(
        flow.vni, index, config_.regions, config_.cross_region_fraction);
    state->base_weight.push_back(flow.weight * mult);
    shares[flow.vni] += flow.weight * mult;
  }

  const double base_bps = config_.base_gbps * 1e9;
  auto& rc = options.region;

  // Hardware squeezed so ~25% of the tenant table demand overflows into
  // the software tier: the punt lanes and the DPU tier carry real load
  // all week instead of idling.
  const std::size_t total_routes = state->topology.total_routes();
  const std::size_t total_vms = state->topology.total_vms();
  rc.controller.routes_water_level =
      std::max<std::size_t>(8, total_routes * 3 / 16);
  rc.controller.mappings_water_level =
      std::max<std::size_t>(8, total_vms * 3 / 16);
  rc.controller.admit_overflow = true;
  // Update channel: budget generous enough that the install backlog
  // drains within the warmup intervals, breaker armed so brownouts trip
  // it (half-open probe at the next interval boundary).
  rc.controller.table_op_rate_limit = 2000;
  rc.controller.table_op_burst = 256;
  // The retry queue is strict FIFO, so a brownout produces exactly one
  // refused channel attempt per interval boundary (the head op), plus
  // one from the wave that finds the queue empty. trip_after=2 lets any
  // brownout spanning >= 2 boundaries walk the full breaker ladder:
  // trip, short-circuit, half-open probe, reopen while still degraded,
  // close when the brownout lifts.
  rc.controller.breaker.trip_after = 2;
  rc.controller.breaker.open_cooldown_s = config_.interval_s;
  // The live placement engine rides along in region 0 only — enough to
  // audit placement parity without doubling the cost everywhere.
  rc.controller.placement_enabled = index == 0;
  // Heartbeat thresholds at interval granularity: a crash spanning two
  // boundaries is detected, and one clean interval brings it back.
  rc.recovery.fail_after_missed = 2;
  rc.recovery.recover_after_ok = 1;

  // x86 fleet sized so the overflow tail (everything the DPU tier does
  // not hold) fits with headroom even while a DPU node is dark.
  rc.x86_nodes = 2;
  rc.x86_template.model.cores = 48;
  rc.x86_template.model.cpu_ghz = 3.2;
  rc.x86_template.model.cycles_per_packet = 1600;
  // Deliberately narrow SNAT pool: two public IPs x 4096 ports per node,
  // sessions outliving one interval — block exhaustion and FIFO
  // recycling run continuously instead of never.
  rc.x86_template.snat.public_ips = {net::Ipv4Addr(198, 51, 100, 1),
                                     net::Ipv4Addr(198, 51, 100, 2)};
  rc.x86_template.snat.port_min = 1024;
  rc.x86_template.snat.port_max = 5119;
  rc.x86_template.snat.session_timeout_s = 1.5 * config_.interval_s;

  // Guard: every topology tenant metered at ~1.6x its own lawful peak
  // (diurnal x festival x tenant envelope x jitter), so normal traffic
  // never trips a budget and any 20-50x storm does — in the same
  // interval (escalate_after = 1 clamps the storm before it reaches the
  // dataplane; victims never absorb a storm's overload).
  rc.enable_guard = true;
  rc.guard.escalate_after = 1;
  rc.guard.deescalate_after = 2;
  const double peak_factor = 1.35 * 2.2 * 1.3 * 1.1;
  for (const workload::VpcRecord& vpc : state->topology.vpcs) {
    guard::TenantLimit limit;
    limit.vni = vpc.vni;
    double share = 0;
    if (auto it = shares.find(vpc.vni); it != shares.end()) {
      share = it->second;
    }
    limit.rate_bps = std::max(1e5, 1.6 * share * base_bps * peak_factor);
    rc.guard.tenants.push_back(limit);
  }

  rc.enable_punt_path = true;
  rc.punt_queue.depth_packets = 4096;
  rc.punt_queue.drain_pps = 3e7;

  rc.enable_dpu = true;
  rc.dpu_nodes = 2;
  rc.dpu_template.flow_table_entries = 8192;
  rc.tier_placer.tracker.capacity = 128;
  // Below the biggest per-flow rates (~0.9M pps at zipf 0.5): the
  // overflow tier's elephants really promote, so DPU darkness has
  // something to take away.
  rc.tier_placer.promote_min_pps = 2e5;
  rc.tier_placer.max_promote_per_interval = 256;
  rc.tier_placer.demote_after_idle = 3;

  state->region = std::make_unique<core::SailfishRegion>(rc);
  install_with_live_clock(*state);
  state->region->set_interval_threads(config_.interval_threads);

  state->pattern.base_bps = base_bps;
  state->pattern.peak_hour = 21.0 - 8.0 * static_cast<double>(index);
  state->pattern.festival_start_day = 5.0;
  state->pattern.festival_end_day = 6.0;

  // Chaos: per-region seed, storms drawn from the heaviest local tenants
  // (a storm on a zero-share tenant would be a no-op), VM-migration
  // churn over the first mapped VM of the leading VPCs.
  ChaosTimeline::Config chaos;
  chaos.seed = config_.seed + 7919 * (index + 1);
  chaos.interval_s = config_.interval_s;
  chaos.horizon_s = static_cast<double>(week_intervals_ +
                                        config_.warmup_intervals) *
                    config_.interval_s;
  chaos.events_per_day = config_.chaos_events_per_day;
  std::vector<std::pair<double, net::Vni>> ranked;
  for (const auto& [vni, share] : shares) ranked.emplace_back(share, vni);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; i < ranked.size() && i < 16; ++i) {
    chaos.tenant_vnis.push_back(ranked[i].second);
  }
  std::sort(chaos.tenant_vnis.begin(), chaos.tenant_vnis.end());
  for (const workload::VpcRecord& vpc : state->topology.vpcs) {
    if (chaos.migratable_vms.size() >= 32) break;
    if (vpc.vms.empty()) continue;
    chaos.migratable_vms.push_back(
        tables::VmNcKey{vpc.vni, vpc.vms.front().ip});
  }
  state->timeline =
      std::make_unique<ChaosTimeline>(*state->region, std::move(chaos));

  state->auditor = std::make_unique<InvariantAuditor>(
      *state->region, std::span<const workload::Flow>(state->flows),
      InvariantAuditor::Config{config_.probe_flows});
  state->ledger =
      std::make_unique<SloLedger>(SloLedger::Config{config_.drop_budget});
  state->scratch = state->flows;

  regions_.push_back(std::move(state));
}

void SoakEngine::install_with_live_clock(RegionState& state) {
  // Controller::install_topology admits every VPC at clock 0: the
  // rate-limited channel freezes after its initial burst, so the
  // cluster route counts assign_cluster gates on never reach the water
  // level mid-install and the whole region lands in cluster 0. Admitting
  // with a live clock — each VPC waits out its own ops' channel budget —
  // lets the squeezed water levels actually close clusters, so ~25% of
  // the tenant universe really overflows into the software tier. Same
  // admission order install_topology uses.
  cluster::Controller& controller = state.region->controller();
  const auto& vpcs = state.topology.vpcs;
  const double rate =
      std::max(1.0, state.region->config().controller.table_op_rate_limit);
  double t_install = 0;
  for (std::size_t i : cluster::Controller::admission_order(state.topology)) {
    controller.advance_clock(t_install);
    controller.add_vpc(vpcs[i]);
    const double ops =
        static_cast<double>(vpcs[i].routes.size() + vpcs[i].vms.size());
    t_install += ops / rate;
  }
  // Drain the tail of the backlog before the week starts.
  controller.advance_clock(t_install + 1.0);
}

void SoakEngine::drive_snat(RegionState& region, double t0,
                            double rate_factor) {
  const double interval = config_.interval_s;
  const auto count = static_cast<std::size_t>(
      std::max(0.0, static_cast<double>(config_.snat_sessions_per_interval) *
                        rate_factor));
  for (std::size_t n = 0; n < region.region->x86_node_count(); ++n) {
    x86::SnatEngine& snat = region.region->x86_node(n).snat();
    for (std::size_t i = 0; i < count; ++i) {
      // Deterministic unique session: counter bits spread over the CGNAT
      // source ip and port; dst is a fixed external peer. Tuples recycle
      // only long after their sessions expired.
      const std::uint64_t c = region.snat_counter++;
      net::FiveTuple tuple;
      tuple.src = net::IpAddr(net::Ipv4Addr(
          0x64400000u | (static_cast<std::uint32_t>(n) << 20) |
          static_cast<std::uint32_t>(c & 0xfffffu)));
      tuple.dst = net::IpAddr(net::Ipv4Addr(192, 0, 2, 10));
      tuple.proto = 6;
      tuple.src_port =
          static_cast<std::uint16_t>(1024 + (c >> 20) % 60000);
      tuple.dst_port = 443;
      const double t =
          t0 + interval * (static_cast<double>(i) + 0.5) /
                   static_cast<double>(count);
      ++region.snat_attempts;
      snat.translate(tuple, t);
    }
    snat.expire(t0 + interval);
  }
}

void SoakEngine::handle_violations(
    const std::vector<std::string>& violations, std::size_t region_index,
    double now) {
  if (violations.empty()) return;
  RegionState& region = *regions_[region_index];
  for (const std::string& v : violations) {
    region.all_violations.push_back(
        format("t=%.0f region %zu: ", now, region_index) + v);
  }
  if (config_.fatal_on_violation) {
    for (const std::string& v : region.all_violations) {
      std::fprintf(stderr, "FATAL soak invariant violation: %s\n", v.c_str());
    }
    std::abort();
  }
}

void SoakEngine::run_interval(RegionState& region,
                              std::size_t interval_index, bool record,
                              std::vector<std::string>& violations_out) {
  const double interval = config_.interval_s;
  const double t0 = static_cast<double>(interval_index) * interval;
  const double t1 = t0 + interval;
  const double t_mid = t0 + 0.5 * interval;

  const ChaosTimeline::StepResult step = region.timeline->step(t0);

  std::map<net::Vni, double> storm_mult;
  std::vector<net::Vni> storm_vnis;
  for (const StormSpec& storm : step.active_storms) {
    storm_mult[storm.vni] = storm.multiplier;
    storm_vnis.push_back(storm.vni);
  }

  for (std::size_t i = 0; i < region.scratch.size(); ++i) {
    const net::Vni vni = region.flows[i].vni;
    double w = region.base_weight[i] * tenant_envelope(vni, t_mid);
    if (auto it = storm_mult.find(vni); it != storm_mult.end()) {
      w *= it->second;
    }
    region.scratch[i].weight = w;
  }

  const double total_bps = workload::rate_at(region.pattern, t_mid);
  const core::SailfishRegion::IntervalReport report =
      region.region->simulate_interval(
          region.scratch, total_bps,
          static_cast<std::uint64_t>(interval_index) * config_.regions +
              region.index);

  drive_snat(region, t0, total_bps / region.pattern.base_bps);

  if (record) {
    region.ledger->record_interval(interval, report, storm_vnis);
  }

  // Strict (quiescence) checks only apply when the timeline says nothing
  // is in flight; the light sweep runs every interval.
  const bool strict =
      !step.device_faults_active && !step.control_faults_active;
  violations_out = region.auditor->audit(t1, strict, &report);
}

SoakEngine::Report SoakEngine::run() {
  if (ran_) {
    std::fprintf(stderr, "FATAL: SoakEngine::run() called twice\n");
    std::abort();
  }
  ran_ = true;

  // Warmup, the recorded week, then a fault-free settle in which recovery
  // hysteresis unwinds, storm tenants de-escalate, and the retry queue and
  // breaker finish converging.
  const std::size_t main_intervals =
      config_.warmup_intervals + week_intervals_;
  const std::size_t total_intervals = main_intervals + config_.settle_intervals;
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < total_intervals; ++i) {
    const bool record = i >= config_.warmup_intervals && i < main_intervals;
    for (auto& region : regions_) {
      run_interval(*region, i, record, violations);
      handle_violations(violations, region->index,
                        static_cast<double>(i + 1) * config_.interval_s);
    }
  }
  const double t_end =
      static_cast<double>(total_intervals) * config_.interval_s;
  for (auto& region : regions_) {
    const std::vector<std::string> leaks = region->timeline->final_audit(t_end);
    handle_violations(leaks, region->index, t_end);
  }

  Report report;
  report.seed = config_.seed;
  report.regions = config_.regions;
  report.interval_s = config_.interval_s;
  report.intervals = week_intervals_;
  report.warmup_intervals = config_.warmup_intervals;
  report.settle_intervals = config_.settle_intervals;
  report.sim_hours = config_.sim_hours;
  report.drop_budget = config_.drop_budget;

  for (auto& state : regions_) {
    RegionSummary summary;
    summary.region_index = state->index;
    const SloLedger& ledger = *state->ledger;
    summary.offered_pkts = ledger.offered_pkts();
    summary.dropped_pkts = ledger.dropped_pkts();
    summary.availability =
        summary.offered_pkts > 0
            ? 1.0 - summary.dropped_pkts / summary.offered_pkts
            : 1.0;
    summary.week_p99_latency_us = ledger.week_p99_latency_us();
    summary.week_p999_latency_us = ledger.week_p999_latency_us();
    summary.punt_occupancy_max = ledger.punt_occupancy_max();
    summary.punt_occupancy_mean = ledger.punt_occupancy_mean();
    summary.peak_drop_rate = ledger.peak_drop_rate();
    summary.chaos_events = state->timeline->event_counts();
    if (const guard::CircuitBreaker* breaker =
            state->region->controller().breaker()) {
      summary.breaker_present = true;
      summary.breaker = breaker->stats();
    }
    summary.snat_sessions = state->snat_attempts;
    for (std::size_t n = 0; n < state->region->x86_node_count(); ++n) {
      const x86::SnatEngine::Stats stats =
          state->region->x86_node(n).snat().stats();
      summary.snat_exhaustions += stats.port_block_exhaustions;
      summary.snat_expired += stats.expired_sessions;
      summary.snat_active_end += stats.active_sessions;
    }
    for (const auto& [vni, tenant] : ledger.tenants()) {
      summary.tenants.push_back(tenant);
      for (std::size_t tier = 0; tier < 3; ++tier) {
        summary.guard_tier_seconds[tier] += tenant.tier_seconds[tier];
      }
    }
    summary.audits_run = state->auditor->audits_run();
    summary.strict_audits_run = state->auditor->strict_audits_run();
    summary.budget_violations = ledger.budget_violations();
    summary.violations = state->all_violations;
    report.total_violations += summary.violations.size();
    report.total_budget_violations += summary.budget_violations.size();
    report.region_summaries.push_back(std::move(summary));
  }
  report.pass =
      report.total_violations == 0 && report.total_budget_violations == 0;
  return report;
}

std::string SoakEngine::Report::to_json() const {
  std::string out = "{\n";
  out += "  \"bench\": \"soak\",\n";
  out += format("  \"seed\": %llu,\n",
                static_cast<unsigned long long>(seed));
  out += format("  \"regions\": %zu,\n", regions);
  out += format("  \"interval_s\": %.3f,\n", interval_s);
  out += format("  \"intervals\": %zu,\n", intervals);
  out += format("  \"warmup_intervals\": %zu,\n", warmup_intervals);
  out += format("  \"settle_intervals\": %zu,\n", settle_intervals);
  out += format("  \"sim_hours\": %.3f,\n", sim_hours);
  out += format("  \"drop_budget\": %.3e,\n", drop_budget);
  out += format("  \"total_violations\": %zu,\n", total_violations);
  out += format("  \"total_budget_violations\": %zu,\n",
                total_budget_violations);
  out += format("  \"pass\": %s,\n", pass ? "true" : "false");
  out += "  \"region_reports\": [\n";
  for (std::size_t r = 0; r < region_summaries.size(); ++r) {
    const RegionSummary& s = region_summaries[r];
    out += "    {\n";
    out += format("      \"region\": %zu,\n", s.region_index);
    out += format("      \"offered_pkts\": %.6e,\n", s.offered_pkts);
    out += format("      \"dropped_pkts\": %.6e,\n", s.dropped_pkts);
    out += format("      \"availability\": %.9f,\n", s.availability);
    out += format("      \"week_p99_latency_us\": %.3f,\n",
                  s.week_p99_latency_us);
    out += format("      \"week_p999_latency_us\": %.3f,\n",
                  s.week_p999_latency_us);
    out += format("      \"punt_occupancy_max\": %.6f,\n",
                  s.punt_occupancy_max);
    out += format("      \"punt_occupancy_mean\": %.6f,\n",
                  s.punt_occupancy_mean);
    out += format("      \"peak_drop_rate\": %.9e,\n", s.peak_drop_rate);
    out += "      \"chaos_events\": {";
    std::size_t emitted = 0;
    for (const auto& [kind, count] : s.chaos_events) {
      out += format("%s\"%s\": %zu", emitted++ == 0 ? "" : ", ",
                    kind.c_str(), count);
    }
    out += "},\n";
    if (s.breaker_present) {
      out += format("      \"breaker\": {\"trips\": %llu, \"reopens\": "
                    "%llu, \"closes\": %llu, \"short_circuited\": %llu},\n",
                    static_cast<unsigned long long>(s.breaker.trips),
                    static_cast<unsigned long long>(s.breaker.reopens),
                    static_cast<unsigned long long>(s.breaker.closes),
                    static_cast<unsigned long long>(
                        s.breaker.short_circuited));
    }
    out += format("      \"snat\": {\"sessions\": %llu, \"exhaustions\": "
                  "%llu, \"expired\": %llu, \"active_end\": %llu},\n",
                  static_cast<unsigned long long>(s.snat_sessions),
                  static_cast<unsigned long long>(s.snat_exhaustions),
                  static_cast<unsigned long long>(s.snat_expired),
                  static_cast<unsigned long long>(s.snat_active_end));
    out += format("      \"guard_tier_seconds\": [%.0f, %.0f, %.0f],\n",
                  s.guard_tier_seconds[0], s.guard_tier_seconds[1],
                  s.guard_tier_seconds[2]);
    out += format("      \"audits\": {\"run\": %llu, \"strict\": %llu},\n",
                  static_cast<unsigned long long>(s.audits_run),
                  static_cast<unsigned long long>(s.strict_audits_run));
    out += "      \"violations\": [";
    for (std::size_t v = 0; v < s.violations.size(); ++v) {
      out += format("%s\"%s\"", v == 0 ? "" : ", ",
                    s.violations[v].c_str());
    }
    out += "],\n";
    out += "      \"budget_violations\": [";
    for (std::size_t v = 0; v < s.budget_violations.size(); ++v) {
      out += format("%s%u", v == 0 ? "" : ", ",
                    static_cast<unsigned>(s.budget_violations[v]));
    }
    out += "],\n";
    out += "      \"tenants\": [\n";
    for (std::size_t t = 0; t < s.tenants.size(); ++t) {
      const TenantSlo& tenant = s.tenants[t];
      out += format(
          "        {\"vni\": %u, \"offered_pkts\": %.6e, "
          "\"dropped_pkts\": %.6e, \"shed_pkts\": %.6e, "
          "\"availability\": %.9f, \"storm_intervals\": %zu, "
          "\"tier1_s\": %.0f, \"tier2_s\": %.0f, \"in_budget\": %s}",
          static_cast<unsigned>(tenant.vni), tenant.offered_pkts,
          tenant.dropped_pkts, tenant.shed_pkts, tenant.availability(),
          tenant.storm_intervals, tenant.tier_seconds[1],
          tenant.tier_seconds[2],
          tenant.in_budget(drop_budget) ? "true" : "false");
      out += t + 1 < s.tenants.size() ? ",\n" : "\n";
    }
    out += "      ]\n";
    out += r + 1 < region_summaries.size() ? "    },\n" : "    }\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace sf::soak
