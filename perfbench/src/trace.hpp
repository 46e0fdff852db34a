// Benchmark-owned tracing: spans recorded around calls into the library,
// kept in per-thread memory and collected once at the end of a run.
//
// A span has a layer, the closed-loop step it belongs to (on the engine
// workloads the step's process_packets span is the parent of its gateway
// and callback spans), the shard or node it ran for, an item count and
// steady-clock start/end. Untraced runs never touch any of this: they pass
// the real gateways and skip every span site.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common.hpp"
#include "dataplane/gateway.hpp"

namespace pb {

enum class Layer : std::uint8_t {
  kEngineCall,         // root: one ShardEngine::process_packets call
  kXgwhBatch,          // XgwH::process_batch_indexed
  kX86Batch,           // XgwX86::process_batch_indexed
  kX86Apply,           // XgwX86::apply inside the UpdatePlan apply callback
  kRcuAdvance,         // the UpdatePlan advance callback
  kControllerApply,    // Controller::apply
  kSimulateInterval,   // SailfishRegion::simulate_interval
  kRegionProcess,      // one probe sample through SailfishRegion::process
  kTelemetrySnapshot,  // SailfishRegion::telemetry_snapshot
};

struct Span {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::uint64_t step = 0;  // the root span this one belongs to
  std::uint32_t shard = 0;
  std::uint32_t items = 0;
  Layer layer = Layer::kEngineCall;
  bool flag = false;  // kRcuAdvance: the reader got ahead of the mutator

  double ns() const { return static_cast<double>(t1 - t0); }
};

/// Process-wide span store. Each thread appends to its own buffer
/// (registered once under the lock); collect() must run after every
/// recording thread has quiesced — the engine's barrier and the mutator
/// join order that for us.
class Tracer {
 public:
  static Tracer& instance() {
    static Tracer tracer;
    return tracer;
  }

  void record(const Span& span) { local().push_back(span); }

  std::vector<Span> collect() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (auto& buffer : buffers_) {
      all.insert(all.end(), buffer->begin(), buffer->end());
      buffer->clear();
    }
    return all;
  }

 private:
  std::vector<Span>& local() {
    thread_local std::vector<Span>* buffer = nullptr;
    if (buffer == nullptr) {
      std::lock_guard<std::mutex> lock(mutex_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      buffer = buffers_.back().get();
      buffer->reserve(1 << 16);
    }
    return *buffer;
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// Times one scope into the tracer.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t step, std::uint32_t shard = 0,
             std::uint32_t items = 0) {
    span_.layer = layer;
    span_.step = step;
    span_.shard = shard;
    span_.items = items;
    span_.t0 = now_ns();
  }
  ~ScopedSpan() {
    span_.t1 = now_ns();
    Tracer::instance().record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
};

/// Length of one traced (or untraced) block in a --trace 1 run: the two
/// modes alternate so host noise lands on both sides of the overhead.
constexpr double kTraceBlockS = 0.25;

/// Whether the step starting at `now` is traced: in a --trace 1 run the
/// modes alternate every kTraceBlockS, starting traced; otherwise never.
class TraceBlocks {
 public:
  TraceBlocks(bool enabled, std::int64_t start)
      : enabled_(enabled), next_(start) {}
  bool at(std::int64_t now) {
    if (enabled_ && now >= next_) {
      on_ = !on_;
      next_ = now + static_cast<std::int64_t>(kTraceBlockS * 1e9);
    }
    return on_;
  }

 private:
  bool enabled_;
  bool on_ = false;
  std::int64_t next_;
};

/// Tracing overhead of a --trace 1 run: untraced rate over traced rate,
/// minus one, from the alternating blocks' work and wall seconds.
inline void report_trace_overhead(Report& report, double untraced_work,
                                  double untraced_s, double traced_work,
                                  double traced_s) {
  const double untraced_rate = untraced_s > 0 ? untraced_work / untraced_s : 0;
  const double traced_rate = traced_s > 0 ? traced_work / traced_s : 0;
  report.set("trace.overhead",
             traced_rate > 0 ? untraced_rate / traced_rate - 1.0 : 0.0,
             "ratio");
  report.set("trace.untraced_rate", untraced_rate, "1/s");
  report.set("trace.traced_rate", traced_rate, "1/s");
}

/// The step every span recorded from now on belongs to. Set by the main
/// thread before it hands work to the engine; the pool's dispatch lock
/// orders the store before the workers' loads.
inline std::uint64_t& current_step() {
  static std::uint64_t step = 0;
  return step;
}

/// Decorator the traced runs return from `gateway_for`: forwards every
/// call to the real gateway and spans the indexed-burst call the sharded
/// engine makes.
class TracedGateway final : public sf::dataplane::Gateway {
 public:
  TracedGateway(sf::dataplane::Gateway& inner, Layer layer,
                std::uint32_t shard)
      : inner_(inner), layer_(layer), shard_(shard) {}

  sf::dataplane::Verdict process(const sf::net::OverlayPacket& packet,
                                 double now) override {
    return inner_.process(packet, now);
  }
  void process_batch(std::span<const sf::net::OverlayPacket> packets,
                     double now,
                     std::span<sf::dataplane::Verdict> out) override {
    inner_.process_batch(packets, now, out);
  }
  void process_batch(std::span<const sf::net::OverlayPacket> packets,
                     std::span<const std::uint64_t> flow_hashes, double now,
                     std::span<sf::dataplane::Verdict> out) override {
    inner_.process_batch(packets, flow_hashes, now, out);
  }
  void process_batch_indexed(std::span<const sf::net::OverlayPacket> packets,
                             std::span<const std::uint64_t> flow_hashes,
                             std::span<const std::uint32_t> indices,
                             double now,
                             std::span<sf::dataplane::Verdict> out) override {
    ScopedSpan span(layer_, current_step(), shard_,
                    static_cast<std::uint32_t>(indices.size()));
    inner_.process_batch_indexed(packets, flow_hashes, indices, now, out);
  }
  using sf::dataplane::Gateway::process_batch;

 private:
  sf::dataplane::Gateway& inner_;
  Layer layer_;
  std::uint32_t shard_;
};

}  // namespace pb
