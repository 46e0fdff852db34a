// Shared measurement plumbing for the benchmark: clocks, sample sets,
// getrusage ledgers, the host stamp and the metric record every workload
// fills in. Nothing here touches the library under test.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(now_ns() - t0_ns);
}

/// CPU seconds consumed by the calling thread.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A set of timings; quantiles use the nearest-rank rule on a sorted copy.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t count() const { return values_.size(); }
  double quantile(double q) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  }
  double median() const { return quantile(0.5); }
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// A latency distribution in constant memory: log-spaced buckets 1% wide
/// from 1 ns to ~1000 s, for streams too long to keep every sample (the
/// benchmark's own growth would show in peak_rss_mb). Quantiles are read
/// at bucket midpoints, so they carry up to 0.5% error.
class LogHistogram {
 public:
  void add(double us) {
    const double ns = std::max(us * 1e3, 1.0);
    const auto b = static_cast<std::size_t>(std::log(ns) / std::log(kRatio));
    ++counts_[std::min(b, kBuckets - 1)];
    ++total_;
  }
  std::uint64_t count() const { return total_; }
  /// Quantile q in microseconds.
  double quantile(double q) const {
    if (total_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) {
        return std::pow(kRatio, static_cast<double>(b) + 0.5) * 1e-3;
      }
    }
    return std::pow(kRatio, static_cast<double>(kBuckets)) * 1e-3;
  }

 private:
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBuckets = 2800;  // 1.01^2800 ns ~ 1.2e12 ns
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t total_ = 0;
};

/// Samples per block for a blocked p99: the most a block can hold and
/// still leave ten samples beyond its p99.
constexpr std::size_t kP99Block = 1000;

/// Quantile `q` of each consecutive block of `block` samples (in arrival
/// order), then the median over blocks. A burst of host noise moves one
/// block, not the reported figure. Fewer samples than a block: one block.
inline double blocked_quantile(const Samples& samples, double q,
                               std::size_t block) {
  const std::vector<double>& v = samples.values();
  if (v.size() < 2 * block) return samples.quantile(q);
  Samples per_block;
  for (std::size_t b = 0; b + block <= v.size(); b += block) {
    Samples chunk;
    for (std::size_t i = b; i < b + block; ++i) chunk.add(v[i]);
    per_block.add(chunk.quantile(q));
  }
  return per_block.median();
}

/// Work per second as the median over consecutive blocks of `block` timed
/// calls: `work[i]` items took `seconds[i]`.
inline double blocked_rate(const std::vector<double>& work,
                           const std::vector<double>& seconds,
                           std::size_t block) {
  Samples rates;
  double w = 0, s = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    w += work[i];
    s += seconds[i];
    if (++n == block) {
      rates.add(w / s);
      w = s = 0;
      n = 0;
    }
  }
  if (rates.count() == 0 && s > 0) rates.add(w / s);
  return rates.median();
}

/// Process-wide getrusage reading; subtract two to get a phase's ledger.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
  double ctx_switches = 0;  // voluntary + involuntary

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec);
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
    u.minflt = static_cast<double>(ru.ru_minflt);
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  Usage operator-(const Usage& o) const {
    return {user_s - o.user_s, sys_s - o.sys_s, minflt - o.minflt,
            ctx_switches - o.ctx_switches};
  }
};

/// Peak resident set of the process so far, in MiB (ru_maxrss is KiB).
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Current resident set in bytes, from /proc/self/statm.
inline double current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long pages = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) * 4096.0;
}

/// Sizes of a workload: `full` is what the benchmark measures; `small`
/// is the seconds-long smoke-check shape.
enum class Size { kFull, kSmall };

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string git_describe = "unknown";
};

/// Every number one run produces, in insertion order, plus free-form
/// notes (sample counts, table sizes) for the report line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back({name, value, unit});
  }
  std::optional<double> get(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return m.value;
    }
    return std::nullopt;
  }
  void note(const std::string& key, double value) { notes_[key] = value; }

  /// Oracle ledger: `attempted` checked outputs, `failed` mismatches or
  /// unexpected table-op statuses.
  void check(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void checks(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::map<std::string, double>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, double> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Records the getrusage ledger of a set-up phase and of the timed phase.
inline void report_usage(Report& report, const std::string& prefix,
                         const Usage& delta) {
  report.set(prefix + ".user_s", delta.user_s, "s");
  report.set(prefix + ".sys_s", delta.sys_s, "s");
  report.set(prefix + ".minflt", delta.minflt, "count");
  report.set(prefix + ".ctx_switches", delta.ctx_switches, "count");
}

/// Set-up repetitions: the median is setup_s, and the kernel ledger of
/// the set-up phase is the median over the same repetitions.
struct SetupLedger {
  Samples wall_s, generate_s, construct_s, install_s, sys_s, minflt;

  /// One repetition: created when generation starts; the workload stamps
  /// the ends of generation and construction, and record() ends install.
  struct Rep {
    Usage u0 = Usage::now();
    double rss0 = current_rss_bytes();
    std::int64_t t0 = now_ns();
    std::int64_t generated = 0;
    std::int64_t constructed = 0;
  };

  /// Adds a repetition whose install just finished. The first one also
  /// notes the resident bytes its tables took.
  void record(const Rep& rep, Report& report) {
    const std::int64_t t3 = now_ns();
    const Usage du = Usage::now() - rep.u0;
    generate_s.add(1e-9 * static_cast<double>(rep.generated - rep.t0));
    construct_s.add(1e-9 * static_cast<double>(rep.constructed - rep.generated));
    install_s.add(1e-9 * static_cast<double>(t3 - rep.constructed));
    wall_s.add(1e-9 * static_cast<double>(t3 - rep.t0));
    sys_s.add(du.sys_s);
    minflt.add(du.minflt);
    if (wall_s.count() == 1) {
      report.note("table_rss_bytes", current_rss_bytes() - rep.rss0);
    }
  }

  void report(Report& report) const {
    report.set("setup_s", wall_s.median(), "s");
    report.set("setup.generate_s", generate_s.median(), "s");
    report.set("setup.construct_s", construct_s.median(), "s");
    report.set("setup.install_s", install_s.median(), "s");
    report.set("setup.sys_s", sys_s.median(), "s");
    report.set("setup.minflt", minflt.median(), "count");
    report.note("setup_reps", static_cast<double>(wall_s.count()));
  }
};

}  // namespace pb
