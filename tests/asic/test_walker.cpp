#include "asic/walker.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace sf::asic {
namespace {

/// A stage that runs `fn` once per context of its group. The StageFn
/// points at a copy of `fn` kept for the test binary's lifetime (deque
/// elements never move), so it outlives every program it is bound into.
template <typename F>
StageFn each(F fn) {
  static std::deque<F> bodies;
  return {[](void* body, ContextGroup group) {
            for (PacketContext* ctx : group) (*static_cast<F*>(body))(*ctx);
          },
          &bodies.emplace_back(std::move(fn))};
}

/// The PHV fields the stages below write, as a program's field enum names
/// them.
enum Field : FieldId { kTag, kTmp, kSeen, kOut };

/// A one-pipe binding for set_ingress/set_egress.
std::array<unsigned, 1> only(unsigned pipe) { return {pipe}; }

net::OverlayPacket sample_packet() {
  net::OverlayPacket pkt;
  pkt.vni = 100;
  pkt.inner.src = net::IpAddr::must_parse("10.0.0.1");
  pkt.inner.dst = net::IpAddr::must_parse("10.0.0.2");
  pkt.payload_size = 64;
  return pkt;
}

/// Walks `packet` alone from `pipe` (a burst of one) and returns the
/// context: its summary and surviving metadata.
PacketContext walk_one(Walker& walker, const net::OverlayPacket& packet,
                       unsigned pipe) {
  PacketContext ctx;
  ctx.packet = &packet;
  ctx.pipe = pipe;
  PacketContext* const burst[] = {&ctx};
  walker.run(burst);
  return ctx;
}

TEST(Walker, SinglePassWithoutLoopback) {
  PipelineProgram program(4);
  int ingress_runs = 0;
  int egress_runs = 0;
  program.set_ingress(only(0),
                      {{each([&](PacketContext&) { ++ingress_runs; })}});
  program.set_egress(only(0),
                     {{each([&](PacketContext&) { ++egress_runs; })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_FALSE(result.dropped);
  EXPECT_EQ(result.passes, 1u);
  EXPECT_EQ(result.egress_pipe, 0u);
  EXPECT_EQ(ingress_runs, 1);
  EXPECT_EQ(egress_runs, 1);
}

TEST(Walker, SteeringToAnotherEgressPipe) {
  PipelineProgram program(4);
  program.set_ingress(
      only(0),
      {{each([](PacketContext& ctx) { ctx.egress_pipe = 3; })}});
  int pipe3_egress = 0;
  program.set_egress(only(3),
                     {{each([&](PacketContext&) { ++pipe3_egress; })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_EQ(result.egress_pipe, 3u);
  EXPECT_EQ(pipe3_egress, 1);
}

TEST(Walker, FoldedPathMakesTwoPasses) {
  PipelineProgram program(4);
  std::vector<std::string> trace;
  program.set_ingress(only(0), {{each([&](PacketContext& ctx) {
                                  trace.push_back("I0");
                                  ctx.egress_pipe = 1;
                                })}});
  program.set_egress(only(1), {{each([&](PacketContext&) {
                                 trace.push_back("E1");
                               })}});
  program.set_loopback(1, true);
  program.set_ingress(only(1), {{each([&](PacketContext& ctx) {
                                  trace.push_back("I1");
                                  ctx.egress_pipe = 0;
                                })}});
  program.set_egress(only(0), {{each([&](PacketContext&) {
                                 trace.push_back("E0");
                               })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_FALSE(result.dropped);
  EXPECT_EQ(result.passes, 2u);
  EXPECT_EQ(result.egress_pipe, 0u);
  EXPECT_EQ(trace, (std::vector<std::string>{"I0", "E1", "I1", "E0"}));
  // Folded latency is roughly twice the single-pass latency.
  EXPECT_GT(chip.latency_us(result.passes, 0), 1.9 * chip.latency_us(1, 0));
}

TEST(Walker, MetadataDoesNotCrossGressUnbridged) {
  PipelineProgram program(4);
  std::optional<std::uint64_t> seen;
  program.set_ingress(only(0), {{each([](PacketContext& ctx) {
                                  ctx.meta.set(kTmp, 42, 8);  // not bridged
                                })}});
  program.set_egress(only(0), {{each([&](PacketContext& ctx) {
                                 seen = ctx.meta.get(kTmp);
                               })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  walk_one(walker, sample_packet(), 0);
  EXPECT_FALSE(seen.has_value());
}

TEST(Walker, BridgedMetadataSurvivesAndIsCharged) {
  PipelineProgram program(4);
  std::optional<std::uint64_t> seen;
  program.set_ingress(only(0), {{each([](PacketContext& ctx) {
                                  ctx.meta.set(kTag, 7, 24,
                                               /*bridged=*/true);
                                })}});
  program.set_egress(only(0), {{each([&](PacketContext& ctx) {
                                 seen = ctx.meta.get(kTag);
                               })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(result.bridged_bits, 24u);
}

TEST(Walker, DropInIngressSkipsEgress) {
  PipelineProgram program(4);
  int egress_runs = 0;
  program.set_ingress(
      only(0),
      {{each([](PacketContext& ctx) { ctx.drop("test drop"); })}});
  program.set_egress(only(0),
                     {{each([&](PacketContext&) { ++egress_runs; })}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_TRUE(result.dropped);
  EXPECT_STREQ(result.drop_note, "test drop");
  EXPECT_EQ(egress_runs, 0);
}

TEST(Walker, LoopbackCycleIsBounded) {
  PipelineProgram program(4);
  // Every pipe loops back forever: the walker must abort.
  for (unsigned p = 0; p < 4; ++p) program.set_loopback(p, true);
  const ChipConfig chip;
  Walker walker{chip, &program};
  const WalkSummary result = walk_one(walker, sample_packet(), 0).summary;
  EXPECT_TRUE(result.dropped);
  ASSERT_NE(result.drop_note, nullptr);
  EXPECT_NE(std::string(result.drop_note).find("loopback"),
            std::string::npos);
  EXPECT_LE(result.passes, Walker::kMaxPasses);
}

TEST(Walker, StagesRunInOrder) {
  PipelineProgram program(4);
  std::vector<int> order;
  program.set_ingress(only(0),
                      {{each([&](PacketContext&) { order.push_back(1); }),
                        each([&](PacketContext&) { order.push_back(2); }),
                        each([&](PacketContext&) { order.push_back(3); })}});
  program.set_egress(only(0), {{}});
  const ChipConfig chip;
  Walker walker{chip, &program};
  walk_one(walker, sample_packet(), 0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

/// A folded program with every rule the walker enforces in play: entry
/// pipes 0 and 2 share one ingress program that drops some packets and
/// steers the rest to loopback pipe 1 or straight to egress pipe 3; pipe
/// 1 loops back, and its ingress sends some packets round again forever.
/// Fields are read in later gresses so unbridged metadata shows.
struct BurstFixture {
  PipelineProgram program{4};
  ChipConfig chip;
  telemetry::Registry registry;
  Walker walker{chip, &program};

  BurstFixture() {
    constexpr std::array<unsigned, 2> kEntry = {0, 2};
    program.set_ingress(
        kEntry,
        {{each([](PacketContext& ctx) {
            ctx.meta.set(kTag, ctx.packet->vni, 24, /*bridged=*/true);
            ctx.meta.set(kTmp, 1, 8);  // not bridged: gone at egress
            if (ctx.packet->vni % 5 == 0) ctx.drop("vni % 5", 7);
          }),
          each([](PacketContext& ctx) {
            ctx.egress_pipe = ctx.packet->vni % 3 == 0 ? 3u : 1u;
          })}});
    program.set_egress(only(1), {{each([](PacketContext& ctx) {
                                   ctx.meta.bridge(kTag);
                                   ctx.meta.set(kSeen,
                                                ctx.meta.has(kTmp) ? 2 : 1, 4,
                                                /*bridged=*/true);
                                 })}});
    program.set_loopback(1, true);
    program.set_ingress(only(1), {{each([](PacketContext& ctx) {
                                    ctx.meta.bridge(kTag);
                                    // VNIs % 7 == 1 circle until the pass
                                    // cap.
                                    if (ctx.packet->vni % 7 != 1) {
                                      ctx.egress_pipe = 0;
                                    }
                                  })}});
    // The exit egress writes what the walk carried to the end.
    const auto exit_stage = each([](PacketContext& ctx) {
      ctx.meta.set(kOut, ctx.meta.get_or(kTag, 0xdead), 32);
    });
    program.set_egress(only(0), {{exit_stage}});
    program.set_egress(only(3), {{exit_stage}});
    walker.set_registry(&registry);
  }

  std::map<std::string, std::uint64_t> counters() const {
    std::map<std::string, std::uint64_t> out;
    registry.for_each_counter(
        [&](const std::string& name, const telemetry::Counter& counter) {
          out[name] = counter.value();
        });
    return out;
  }
};

TEST(Walker, BurstMatchesWalkingOneAtATime) {
  // Mixed entry pipes; VNI 10 drops in ingress, VNIs 3/9/... steer to
  // egress 3, VNI 8 and 15 hit the loopback cycle, the rest fold.
  std::vector<net::OverlayPacket> packets(16, sample_packet());
  std::vector<PacketContext> burst(packets.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    packets[i].vni = static_cast<net::Vni>(6 + i);
    packets[i].payload_size = static_cast<std::uint16_t>(64 + 10 * i);
    burst[i].packet = &packets[i];
    burst[i].pipe = i % 2 == 0 ? 0 : 2;
  }
  std::vector<PacketContext> alone = burst;

  BurstFixture batched;
  std::vector<PacketContext*> pointers;
  for (PacketContext& ctx : burst) pointers.push_back(&ctx);
  batched.walker.run(pointers);

  BurstFixture single;
  for (PacketContext& ctx : alone) {
    PacketContext* const one[] = {&ctx};
    single.walker.run(one);
  }

  std::map<std::string, int> outcomes;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "packet " << i);
    const WalkSummary& got = burst[i].summary;
    const WalkSummary& want = alone[i].summary;
    EXPECT_EQ(got.dropped, want.dropped);
    EXPECT_EQ(got.drop_code, want.drop_code);
    EXPECT_STREQ(got.drop_note, want.drop_note);
    EXPECT_EQ(got.passes, want.passes);
    EXPECT_EQ(got.egress_pipe, want.egress_pipe);
    EXPECT_EQ(got.bridged_bits, want.bridged_bits);
    for (const Field field : {kTag, kTmp, kSeen, kOut}) {
      EXPECT_EQ(burst[i].meta.get(field), alone[i].meta.get(field)) << field;
    }
    ++outcomes[want.dropped ? want.drop_note : want.egress_pipe == 3
                                                   ? "steered"
                                                   : "folded"];
  }
  // The burst reached every case it is meant to mix.
  EXPECT_GT(outcomes["vni % 5"], 0);
  EXPECT_GT(outcomes["loopback cycle: exceeded max pipeline passes"], 0);
  EXPECT_GT(outcomes["steered"], 0);
  EXPECT_GT(outcomes["folded"], 0);

  EXPECT_EQ(batched.counters(), single.counters());
  const telemetry::Histogram& got = batched.registry.histogram("asic.passes");
  const telemetry::Histogram& want = single.registry.histogram("asic.passes");
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.sum(), want.sum());
  EXPECT_EQ(got.percentile(0.5), want.percentile(0.5));
}

}  // namespace
}  // namespace sf::asic
