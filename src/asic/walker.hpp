// The packet walker: executes a PipelineProgram over the SfChip structure,
// enforcing the architectural constraints that shaped the paper's design:
//
//   * metadata does not survive a gress crossing unless bridged (the
//     bridged bits are charged as wire overhead);
//   * a loopback egress pipe sends the packet back through that pipe's
//     ingress (pipeline folding) — each extra pass adds a pass latency;
//   * the walk aborts defensively after kMaxPasses to catch misconfigured
//     loopback cycles.
//
// The walker runs bursts. At each gress visit it groups the live packets
// by their current pipe — pipes bound to one program form one group — and
// runs each of the group's stages once, dropping out the packets a stage
// dropped before the next stage runs. Every per-packet rule above holds
// for each packet as if it walked alone. A single packet is a burst of one.

#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/pipeline.hpp"
#include "telemetry/registry.hpp"

namespace sf::asic {

class Walker {
 public:
  static constexpr unsigned kMaxPasses = 8;

  /// The walker borrows both the chip model and the program: the caller
  /// (the gateway owning both) must keep them alive for the walker's
  /// lifetime. Binding to a temporary ChipConfig is a compile error.
  Walker(const ChipConfig& chip, const PipelineProgram* program)
      : chip_(&chip), program_(program) {}
  Walker(ChipConfig&&, const PipelineProgram*) = delete;

  /// Registers the registry the walk records into: per-pipe/per-gress
  /// packet counts ("asic.pipeN.ingress.packets"), total packets, drops,
  /// and a pass-count histogram. Counter handles are resolved here once, so
  /// a walk pays pointer bumps, not name lookups.
  void set_registry(telemetry::Registry* registry);

  /// Walks a burst. Each context enters pointing at its packet and with
  /// its ingress pipe in `pipe`; the walk resets the rest of the context
  /// (plain data: a walk never allocates for it). The surviving metadata
  /// and the walk's summary are left in each context. A single packet is a
  /// burst of one.
  /// When `record_pass_hist` is false the per-packet "asic.passes" record
  /// is skipped — batch callers record it later in packet-index order so
  /// histogram streams keep the scalar path's ordering (counters commute;
  /// histogram samples do not).
  void run(std::span<PacketContext* const> burst,
           bool record_pass_hist = true);

 private:
  /// The packets arriving for a visit: whether they all run one program
  /// (then the visit need not group them).
  struct Arrivals {
    const GressProgram* program = nullptr;  // the first arrival's
    bool one_program = true;
  };
  /// Runs one gress visit of pass `pass` over live_: groups it by the
  /// program each packet's pipe runs, runs each group's stages and moves
  /// the packets still walking to their next gress, leaving them in live_.
  /// `arrivals` describes the packets arriving for this visit on entry and
  /// for the next visit on return.
  void visit(Gress gress, unsigned pass, Arrivals& arrivals);
  /// A packet arrives at `gress` of its pipe: counts the visit and notes
  /// its program in `arrivals`.
  void arrive(PacketContext& ctx, Gress gress, Arrivals& arrivals);

  const ChipConfig* chip_;
  const PipelineProgram* program_;
  std::vector<telemetry::Counter*> ingress_packets_;  // per pipe
  std::vector<telemetry::Counter*> egress_packets_;   // per pipe
  telemetry::Counter* packets_ = nullptr;
  telemetry::Counter* drops_ = nullptr;
  telemetry::Histogram* passes_ = nullptr;

  std::vector<PacketContext*> live_;  // burst scratch: contexts walking
};

}  // namespace sf::asic
