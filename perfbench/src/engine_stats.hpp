// Shared timing and span accounting for the workloads that drive
// ShardEngine::process_packets (fwd_cold, fwd_hot, x86_churn).

#pragma once

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "dataplane/flow_cache.hpp"
#include "trace.hpp"

namespace pb {

constexpr std::size_t kShards = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kRxVector = 4096;

/// Rates are medians of per-call rates: a host stall inflates the mean of
/// every block it lands in, but moves the median only when most calls
/// stall.
constexpr std::size_t kRateBlock = 1;

/// Wall time of the process_packets calls, split by tracing mode.
struct CallLedger {
  Samples call_us;  // untraced calls (the end-to-end samples)
  std::vector<double> call_s, call_pkts;
  double untraced_s = 0;
  double untraced_pkts = 0;
  double traced_s = 0;
  double traced_pkts = 0;
  std::size_t steps = 0;

  CallLedger() {
    // Reserved, not touched: the samples' pages count toward peak_rss_mb
    // only as they fill, with no doubling steps.
    call_s.reserve(1 << 17);
    call_pkts.reserve(1 << 17);
  }

  void add(bool traced, double seconds, std::size_t packets) {
    if (traced) {
      traced_s += seconds;
      traced_pkts += static_cast<double>(packets);
    } else {
      untraced_s += seconds;
      untraced_pkts += static_cast<double>(packets);
      call_us.add(seconds * 1e6);
      call_s.push_back(seconds);
      call_pkts.push_back(static_cast<double>(packets));
    }
    ++steps;
  }
};

/// End-to-end packet metrics from the untraced calls. Rates are medians of
/// per-call rates, p99s medians over kP99Block-call blocks; a step of these
/// workloads is one rx vector.
inline void report_packet_path(Report& report, const CallLedger& ledger) {
  const std::vector<double> ones(ledger.call_s.size(), 1.0);
  const double p90 = ledger.call_us.quantile(0.90);
  const double p99 = blocked_quantile(ledger.call_us, 0.99, kP99Block);
  report.set("fwd_mpps",
             blocked_rate(ledger.call_pkts, ledger.call_s, kRateBlock) / 1e6,
             "Mpkt/s");
  report.set("rx_vec_p50_us", ledger.call_us.median(), "us");
  report.set("rx_vec_p90_us", p90, "us");
  report.set("rx_vec_p99_us", p99, "us");
  report.set("steps_per_s", blocked_rate(ones, ledger.call_s, kRateBlock),
             "1/s");
  report.set("step_p90_us", p90, "us");
  report.set("step_p99_us", p99, "us");
  report.note("rx_vec_samples", static_cast<double>(ledger.call_us.count()));
}

/// Per-layer numbers of the engine and its gateways from the spans.
/// `gateway_layer` names the gateway kind the decorators wrapped.
inline void report_engine_spans(Report& report, const std::vector<Span>& spans,
                                Layer gateway_layer,
                                const std::string& gateway_prefix) {
  struct Step {
    double call_ns = 0;
    double pkts = 0;
    double child_ns = 0;
    std::map<std::uint32_t, double> shard_ns;
  };
  std::map<std::uint64_t, Step> steps;
  double gw_ns = 0, gw_pkts = 0, gw_calls = 0;
  for (const Span& s : spans) {
    if (s.layer == Layer::kEngineCall) {
      steps[s.step].call_ns += s.ns();
      steps[s.step].pkts += s.items;
    } else if (s.layer == gateway_layer) {
      Step& step = steps[s.step];
      step.child_ns += s.ns();
      step.shard_ns[s.shard] += s.ns();
      gw_ns += s.ns();
      gw_pkts += s.items;
      gw_calls += 1;
    }
  }
  double call_ns = 0, pkts = 0, child_ns = 0;
  Samples skew;
  for (const auto& [id, step] : steps) {
    if (step.call_ns == 0) continue;  // gateway spans outside a traced call
    call_ns += step.call_ns;
    pkts += step.pkts;
    child_ns += step.child_ns;
    double max_ns = 0, sum_ns = 0;
    for (const auto& [shard, ns] : step.shard_ns) {
      max_ns = std::max(max_ns, ns);
      sum_ns += ns;
    }
    if (sum_ns > 0) {
      skew.add(max_ns / (sum_ns / static_cast<double>(kShards)));
    }
  }
  const double safe_pkts = pkts > 0 ? pkts : 1;
  report.set("dataplane.engine.ns_per_pkt", call_ns / safe_pkts, "ns");
  report.set("dataplane.engine.self_ns_per_pkt",
             (call_ns * static_cast<double>(kWorkers) - child_ns) / safe_pkts,
             "ns");
  report.set("dataplane.engine.shard_skew", skew.median(), "ratio");
  report.set("dataplane.engine.calls", static_cast<double>(skew.count()),
             "count");
  report.set("dataplane.engine.pkts", pkts, "count");
  report.set(gateway_prefix + ".ns_per_pkt",
             gw_pkts > 0 ? gw_ns / gw_pkts : 0, "ns");
  report.set(gateway_prefix + ".calls", gw_calls, "count");
  if (gateway_layer == Layer::kXgwhBatch) {
    report.set("xgwh.batch.pkts_per_call", gw_calls > 0 ? gw_pkts / gw_calls : 0,
               "pkt");
  }
}

/// Flow-cache counters summed over a fleet, as deltas between two reads.
struct CacheTotals {
  double hits = 0, misses = 0, insertions = 0, evictions = 0,
         stale_reclaims = 0;

  template <typename Fleet>
  static CacheTotals of(const Fleet& fleet) {
    CacheTotals t;
    for (const auto& device : fleet) {
      const sf::dataplane::FlowCacheStats& s = device->flow_cache_stats();
      t.hits += static_cast<double>(s.hits);
      t.misses += static_cast<double>(s.misses);
      t.insertions += static_cast<double>(s.insertions);
      t.evictions += static_cast<double>(s.evictions);
      t.stale_reclaims += static_cast<double>(s.stale_reclaims);
    }
    return t;
  }
  CacheTotals operator-(const CacheTotals& o) const {
    return {hits - o.hits, misses - o.misses, insertions - o.insertions,
            evictions - o.evictions, stale_reclaims - o.stale_reclaims};
  }
};

inline void report_cache(Report& report, const CacheTotals& d,
                         double packets) {
  const double lookups = d.hits + d.misses;
  const double mpkt = packets / 1e6;
  report.set("dataplane.flow_cache.hit_ratio",
             lookups > 0 ? d.hits / lookups : 0, "ratio");
  report.set("dataplane.flow_cache.hits_per_insert",
             d.insertions > 0 ? d.hits / d.insertions : 0, "ratio");
  report.set("dataplane.flow_cache.evictions_per_mpkt",
             mpkt > 0 ? d.evictions / mpkt : 0, "1/Mpkt");
  report.set("dataplane.flow_cache.stale_reclaims_per_mpkt",
             mpkt > 0 ? d.stale_reclaims / mpkt : 0, "1/Mpkt");
  report.set("dataplane.flow_cache.lookups", lookups, "count");
  report.set("dataplane.flow_cache.insertions", d.insertions, "count");
}

}  // namespace pb
