// The Sailfish benchmark binary (built and run by perfbench/run.py).
//
//   sf_perfbench --workload <fwd_cold|fwd_hot|x86_churn|region_day>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--size full|small] [--git <describe>]
//
// Prints one report line (host/build/seed stamp, every metric with its
// unit, sample counts and notes), then as the last line the result object
// {"correct", "attempted", "failed", "metrics"} whose metrics are the
// end-to-end set (--trace 0) or the per-layer set (--trace 1) declared in
// BENCHMARK.json. Metrics a workload has no layer for read 0 in the
// per-layer set and null in the report line.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the smoke check compares them).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"fwd_mpps", "Mpkt/s"}, {"rx_vec_p50_us", "us"},
    {"steps_per_s", "1/s"}, {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"setup.generate_s", "s"},
    {"setup.construct_s", "s"},
    {"setup.install_s", "s"},
    {"setup.sys_s", "s"},
    {"setup.minflt", "count"},
    {"proc.run.user_s", "s"},
    {"proc.run.sys_s", "s"},
    {"proc.run.minflt", "count"},
    {"proc.run.ctx_switches", "count"},
    {"dataplane.engine.ns_per_pkt", "ns"},
    {"dataplane.engine.self_ns_per_pkt", "ns"},
    {"dataplane.engine.shard_skew", "ratio"},
    {"dataplane.engine.calls", "count"},
    {"dataplane.engine.pkts", "count"},
    {"dataplane.flow_cache.hit_ratio", "ratio"},
    {"dataplane.flow_cache.hits_per_insert", "ratio"},
    {"dataplane.flow_cache.evictions_per_mpkt", "1/Mpkt"},
    {"dataplane.flow_cache.stale_reclaims_per_mpkt", "1/Mpkt"},
    {"dataplane.flow_cache.lookups", "count"},
    {"dataplane.flow_cache.insertions", "count"},
    {"xgwh.batch.ns_per_pkt", "ns"},
    {"xgwh.batch.pkts_per_call", "pkt"},
    {"xgwh.batch.calls", "count"},
    {"x86.batch.ns_per_pkt", "ns"},
    {"x86.batch.calls", "count"},
    {"x86.apply.us_per_op", "us"},
    {"x86.apply.calls", "count"},
    {"rcu.reader_ahead_share", "ratio"},
    {"rcu.advances", "count"},
    {"rcu.limbo_nodes_max", "count"},
    {"rcu.mutator_cpu_s", "s"},
    {"oracle.midstream_changes", "count"},
    {"cluster.controller.apply_us_per_op", "us"},
    {"cluster.controller.ops", "count"},
    {"cluster.controller.deferred_ops", "count"},
    {"cluster.controller.retries", "count"},
    {"asic.placement.delta_applies", "count"},
    {"asic.placement.full_recomputes", "count"},
    {"asic.placement.recompute_share", "ratio"},
    {"core.region.sw_path_share", "ratio"},
    {"core.region.probe_pkts", "count"},
    {"core.region.simulate_us", "us"},
    {"core.region.process_ns_per_pkt", "ns"},
    {"telemetry.snapshot_us", "us"},
    {"telemetry.snapshots", "count"},
    {"rx_vec_p90_us", "us"},
    {"rx_vec_p99_us", "us"},
    {"step_p90_us", "us"},
    {"step_p99_us", "us"},
    {"update_ops_per_s", "ops/s"},
    {"update_apply_p99_us", "us"},
    {"intervals_per_s", "1/s"},
    {"interval_p99_us", "us"},
    {"probe_mpps", "Mpkt/s"},
    {"error_rate", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.untraced_rate", "1/s"},
    {"trace.traced_rate", "1/s"},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Cache size string of cpu0's cache at `level` ("2048K"), or "unknown".
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string lvl = read_first_line(dir + "/level");
    if (lvl.empty()) break;
    if (std::atoi(lvl.c_str()) == level &&
        read_first_line(dir + "/type") != "Instruction") {
      return read_first_line(dir + "/size");
    }
  }
  return "unknown";
}

std::string host_stamp(const pb::RunArgs& args) {
  std::string out = "{";
  out += "\"cpu_model\": " + json_string(cpu_model());
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"l2\": " + json_string(cache_size(2));
  out += ", \"l3\": " + json_string(cache_size(3));
  out += ", \"build_type\": " + json_string(PB_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__);
  out += ", \"git_describe\": " + json_string(args.git_describe);
  out += "}";
  return out;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sf_perfbench: %s\nusage: sf_perfbench --workload "
               "<fwd_cold|fwd_hot|x86_churn|region_day> --seed <n> "
               "--seconds <s> --trace <0|1> [--size full|small] "
               "[--git <describe>]\n",
               why);
  std::exit(2);
}

pb::RunArgs parse(int argc, char** argv) {
  pb::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--size") {
        if (value != "full" && value != "small") usage("bad --size");
        args.size = value == "full" ? pb::Size::kFull : pb::Size::kSmall;
      } else if (flag == "--git") {
        args.git_describe = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0) || args.seconds > 600) usage("bad --seconds");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::RunArgs args = parse(argc, argv);
  pb::Report report;
  try {
    if (args.workload == "fwd_cold" || args.workload == "fwd_hot") {
      pb::run_fwd(args, args.workload == "fwd_hot", report);
    } else if (args.workload == "x86_churn") {
      pb::run_x86_churn(args, report);
    } else if (args.workload == "region_day") {
      pb::run_region_day(args, report);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sf_perfbench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  const double attempted = static_cast<double>(report.attempted());
  report.set("error_rate",
             attempted > 0 ? static_cast<double>(report.failed()) / attempted
                           : 1.0,
             "ratio");

  // Report line: everything measured, stamped.
  std::string line = "{\"report\": {\"workload\": " + json_string(args.workload);
  line += ", \"seed\": " + std::to_string(args.seed);
  line += ", \"seconds\": " + json_number(args.seconds);
  line += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  line += ", \"size\": " +
          json_string(args.size == pb::Size::kFull ? "full" : "small");
  line += ", \"host\": " + host_stamp(args);
  line += ", \"attempted\": " + std::to_string(report.attempted());
  line += ", \"failed\": " + std::to_string(report.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    line += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : report.notes()) {
    line += (first ? "" : ", ") + json_string(key) + ": " + json_number(value);
    first = false;
  }
  line += "}}}";
  std::printf("%s\n", line.c_str());

  // Result line: the declared metric set for this mode.
  bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string result = "{\"correct\": ";
  std::string metrics;
  first = true;
  const auto emit = [&](const MetricSpec& spec, bool required) {
    const auto value = report.get(spec.name);
    double v = value.value_or(0.0);
    if (!std::isfinite(v) || (required && !(value && v > 0))) {
      correct = false;
      if (!std::isfinite(v)) v = 0;
    }
    metrics += (first ? "" : ", ") + json_string(spec.name) +
               ": {\"value\": " + json_number(v) +
               ", \"unit\": " + json_string(spec.unit) + "}";
    first = false;
  };
  if (args.trace) {
    for (const auto& spec : kPerLayer) emit(spec, false);
  } else {
    for (const auto& spec : kEndToEnd) emit(spec, true);
  }
  result += correct ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(report.attempted());
  result += ", \"failed\": " + std::to_string(report.failed());
  result += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}
