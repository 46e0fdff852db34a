// Pipeline structure: per-(pipeline, gress) programs and loopback ports.
//
// A program is an ordered list of stage functions (match-action lookups a
// gateway binds when it builds its program, e.g. XgwH::build_program()).
// The walker runs packets through Ingress(pipe) -> [traffic manager] ->
// Egress(egress_pipe); when the egress pipe is in loopback mode a packet
// re-enters that pipe's ingress — the §4.4 "pipeline folding" datapath of
// Fig. 13. A stage runs once per group of packets whose pipes share its
// program at a gress visit, over the group's live contexts.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/phv.hpp"
#include "net/packet.hpp"

namespace sf::asic {

enum class Gress : std::uint8_t { kIngress, kEgress };

/// The scalar observables of one walk — everything a walk reports except
/// the rewritten packet and the surviving Phv. The walk's drop state lives
/// here and only here.
struct WalkSummary {
  /// Human-readable drop label (null when not dropped). Always a pointer
  /// to a string with static storage duration (a literal or a static
  /// to_string table entry) — the hot path never allocates a reason string
  /// per packet.
  const char* drop_note = nullptr;
  bool dropped = false;
  /// Machine-readable drop classifier set alongside drop_note. The asic
  /// layer itself is gateway-agnostic, so codes are opaque here; the
  /// gateway that programmed the stages maps them back to its typed drop
  /// taxonomy (0 = "stage gave no code").
  std::uint8_t drop_code = 0;
  /// Pipeline passes (ingress+egress pairs) the packet made.
  unsigned passes = 0;
  /// Pipe whose egress finally emitted the packet.
  unsigned egress_pipe = 0;
  /// Metadata bits bridged across gress boundaries (wire overhead).
  unsigned bridged_bits = 0;
  /// Modeled forwarding latency: ChipConfig::latency_us(passes, wire size
  /// + bridged_bits / 8). The walk leaves it to callers that need it.
  double latency_us = 0;
};

/// Mutable state a packet carries through the chip: plain data, owning no
/// heap storage.
struct PacketContext {
  /// The parsed headers the stages match on. The walk reads the packet in
  /// place and never copies it; what the stages decide lives in `meta`
  /// and in the gateway's own per-walk records.
  const net::OverlayPacket* packet = nullptr;
  Phv meta;
  unsigned pipe = 0;
  /// The pipe whose egress the traffic manager sends the packet to. Each
  /// arrival at an ingress sets it to that pipe; an ingress stage steers
  /// the packet by changing it.
  unsigned egress_pipe = 0;
  /// What the walk reports for this packet, filled in as it walks.
  WalkSummary summary;

  /// `note` must have static storage duration (string literal / static
  /// table entry); the summary stores the pointer, not a copy.
  void drop(const char* note, std::uint8_t code = 0) {
    summary.dropped = true;
    summary.drop_note = note;
    summary.drop_code = code;
  }
};

/// The live contexts of one group at a gress visit.
using ContextGroup = std::span<PacketContext* const>;

/// One stage of a gress program: a plain function the walker runs once
/// per group, over its contexts, on the gateway that bound it.
struct StageFn {
  void (*run)(void* gateway, ContextGroup group) = nullptr;
  void* gateway = nullptr;
  void operator()(ContextGroup group) const { run(gateway, group); }
};

/// Binds `Stage`, a member function of `Gateway` taking a ContextGroup, to
/// the gateway `self`.
template <auto Stage, typename Gateway>
StageFn bind_stage(Gateway* self) {
  return {[](void* gateway, ContextGroup group) {
            (static_cast<Gateway*>(gateway)->*Stage)(group);
          },
          self};
}

struct GressProgram {
  std::vector<StageFn> stages;
};

/// The chip's program binding: who runs where, and which egress ports are
/// looped back. Pipes bound to one GressProgram together share it; the
/// walker runs their packets as one group at that gress.
class PipelineProgram {
 public:
  explicit PipelineProgram(unsigned pipelines = 4)
      : ingress_(pipelines, std::make_shared<const GressProgram>()),
        egress_(ingress_),
        loopback_(pipelines, false) {}

  void set_ingress(std::span<const unsigned> pipes, GressProgram program) {
    bind(ingress_, pipes, std::move(program));
  }
  void set_egress(std::span<const unsigned> pipes, GressProgram program) {
    bind(egress_, pipes, std::move(program));
  }
  /// Puts a pipe's egress ports in loopback mode (folding).
  void set_loopback(unsigned pipe, bool enabled) {
    loopback_.at(pipe) = enabled;
  }

  /// The program a pipe runs at `gress` (`pipe` below pipelines()).
  const GressProgram& program(unsigned pipe, Gress gress) const {
    return *(gress == Gress::kIngress ? ingress_ : egress_)[pipe];
  }
  bool loopback(unsigned pipe) const { return loopback_.at(pipe); }
  unsigned pipelines() const {
    return static_cast<unsigned>(ingress_.size());
  }

 private:
  using Binding = std::vector<std::shared_ptr<const GressProgram>>;
  static void bind(Binding& gress, std::span<const unsigned> pipes,
                   GressProgram program) {
    const auto shared =
        std::make_shared<const GressProgram>(std::move(program));
    for (const unsigned pipe : pipes) gress.at(pipe) = shared;
  }

  Binding ingress_;  // per pipe
  Binding egress_;
  std::vector<bool> loopback_;
};

}  // namespace sf::asic
