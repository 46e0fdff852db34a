#include "asic/walker.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::asic {

void Walker::set_registry(telemetry::Registry* registry) {
  ingress_packets_.clear();
  egress_packets_.clear();
  packets_ = nullptr;
  drops_ = nullptr;
  passes_ = nullptr;
  if (registry == nullptr) return;
  for (unsigned pipe = 0; pipe < program_->pipelines(); ++pipe) {
    const std::string base = "asic.pipe" + std::to_string(pipe);
    ingress_packets_.push_back(
        &registry->counter(base + ".ingress.packets"));
    egress_packets_.push_back(
        &registry->counter(base + ".egress.packets"));
  }
  packets_ = &registry->counter("asic.packets");
  drops_ = &registry->counter("asic.drops");
  passes_ = &registry->histogram(
      "asic.passes", telemetry::Histogram::Config{
                         /*min_value=*/1.0, /*growth=*/2.0,
                         /*buckets=*/4, /*reservoir=*/128});
}

void Walker::run(std::span<PacketContext* const> burst,
                 bool record_pass_hist) {
  live_.resize(burst.size());
  Arrivals arrivals;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    PacketContext* ctx = burst[i];
    if (ctx->pipe >= program_->pipelines()) {
      throw std::out_of_range("Walker::run: ingress pipe out of range");
    }
    ctx->meta = Phv(chip_->phv_metadata_bits);
    ctx->summary = WalkSummary{};
    arrive(*ctx, Gress::kIngress, arrivals);
    live_[i] = ctx;
  }
  if (packets_ != nullptr) packets_->add(burst.size());

  for (unsigned pass = 0; pass < kMaxPasses && !live_.empty(); ++pass) {
    visit(Gress::kIngress, pass, arrivals);
    visit(Gress::kEgress, pass, arrivals);
  }

  std::uint64_t dropped = 0;
  for (const PacketContext* ctx : burst) {
    dropped += ctx->summary.dropped ? 1 : 0;
    if (passes_ != nullptr && record_pass_hist) {
      passes_->record(static_cast<double>(ctx->summary.passes));
    }
  }
  if (drops_ != nullptr) drops_->add(dropped);
}

void Walker::arrive(PacketContext& ctx, Gress gress, Arrivals& arrivals) {
  const bool ingress = gress == Gress::kIngress;
  if (ingress) ctx.egress_pipe = ctx.pipe;
  const std::vector<telemetry::Counter*>& visits =
      ingress ? ingress_packets_ : egress_packets_;
  if (!visits.empty()) visits[ctx.pipe]->add();
  const GressProgram* program = &program_->program(ctx.pipe, gress);
  if (arrivals.program == nullptr) arrivals.program = program;
  arrivals.one_program = arrivals.one_program && program == arrivals.program;
}

void Walker::visit(Gress gress, unsigned pass, Arrivals& arrivals) {
  const bool ingress = gress == Gress::kIngress;
  const bool one_program = arrivals.one_program;
  arrivals = Arrivals{};

  // Group by program: partition the rest of live_ around the program of
  // its first packet and walk that group, keeping the packets still
  // walking at the front of live_. Usually every live packet runs one
  // program and the burst is one group.
  std::size_t kept = 0;
  for (auto rest = live_.begin(); rest != live_.end();) {
    const GressProgram& program = program_->program((*rest)->pipe, gress);
    const auto end =
        one_program ? live_.end()
                    : std::partition(rest, live_.end(), [&](PacketContext* c) {
                        return &program_->program(c->pipe, gress) == &program;
                      });
    // Run the stages, dropping out dropped contexts between them (the
    // last stage's drops leave in the sweep below).
    auto live = end;
    const std::size_t stages = program.stages.size();
    for (std::size_t s = 0; s < stages && live != rest; ++s) {
      program.stages[s](std::span<PacketContext* const>(rest, live));
      if (s + 1 < stages) {
        live = std::remove_if(rest, live, [](PacketContext* c) {
          return c->summary.dropped;
        });
      }
    }
    // Move each packet still walking to its next gress.
    for (auto it = rest; it != live; ++it) {
      PacketContext& ctx = **it;
      WalkSummary& summary = ctx.summary;
      if (summary.dropped) continue;
      if (ingress) {
        // Traffic manager: move to the egress pipe; metadata must be
        // bridged to survive. A pass completes at egress.
        ctx.pipe = ctx.egress_pipe;
        if (ctx.pipe >= program_->pipelines()) {
          throw std::out_of_range("Walker::run: egress pipe out of range");
        }
        summary.bridged_bits += ctx.meta.cross_gress();
        ++summary.passes;
        arrive(ctx, Gress::kEgress, arrivals);
      } else {
        // After egress a packet leaves, unless its pipe loops back: then
        // it re-enters that pipe's ingress parser, and metadata again
        // survives only if bridged.
        if (!program_->loopback(ctx.pipe)) {
          summary.egress_pipe = ctx.pipe;
          continue;
        }
        summary.bridged_bits += ctx.meta.cross_gress();
        if (pass + 1 == kMaxPasses) {
          ctx.drop("loopback cycle: exceeded max pipeline passes");
          continue;
        }
        arrive(ctx, Gress::kIngress, arrivals);
      }
      live_[kept++] = &ctx;
    }
    rest = end;
  }
  live_.resize(kept);
}

}  // namespace sf::asic
