#include "cluster/update_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sf::cluster {
namespace {

using dataplane::TableOp;
using dataplane::TableOpStatus;

/// A programmable target: refuses the next `reject_next` calls with
/// kRateLimited, and records the order entries land in.
struct ScriptedTarget : dataplane::TableProgrammer {
  std::size_t reject_next = 0;   // reject this many calls, then accept
  std::size_t calls = 0;
  std::vector<std::string> landed;

  TableOpStatus answer(const std::string& label) {
    ++calls;
    if (reject_next > 0) {
      --reject_next;
      return TableOpStatus::kRateLimited;
    }
    landed.push_back(label);
    return TableOpStatus::kOk;
  }

  dataplane::BatchResult apply(const dataplane::TableOpBatch& batch) override {
    dataplane::BatchResult result;
    for (const TableOp& op : batch.ops) {
      switch (op.kind) {
        case TableOp::Kind::kAddRoute:
          result.record(answer("add-route:" + std::to_string(op.vni)));
          break;
        case TableOp::Kind::kDelRoute:
          result.record(answer("del-route:" + std::to_string(op.vni)));
          break;
        case TableOp::Kind::kAddMapping:
          result.record(
              answer("add-map:" + std::to_string(op.mapping_key.vni)));
          break;
        case TableOp::Kind::kDelMapping:
          result.record(
              answer("del-map:" + std::to_string(op.mapping_key.vni)));
          break;
      }
    }
    return result;
  }
};

TableOp route_op(TableOp::Kind kind, net::Vni vni) {
  TableOp op;
  op.kind = kind;
  op.vni = vni;
  return op;
}

TEST(UpdateQueue, AppliesDirectlyWhenChannelClear) {
  ScriptedTarget target;
  UpdateQueue queue(target, UpdateQueue::Config{});
  EXPECT_EQ(queue.submit(route_op(TableOp::Kind::kAddRoute, 7), 0.0),
            TableOpStatus::kOk);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(target.landed, std::vector<std::string>{"add-route:7"});
}

TEST(UpdateQueue, RateLimitedOpIsParkedNotLost) {
  ScriptedTarget target;
  target.reject_next = 1;
  UpdateQueue queue(target, UpdateQueue::Config{});
  EXPECT_EQ(queue.submit(route_op(TableOp::Kind::kAddRoute, 7), 0.0),
            TableOpStatus::kRateLimited);
  EXPECT_EQ(queue.pending(), 1u);
  // Not due yet: nothing happens.
  EXPECT_EQ(queue.advance(0.1), 0u);
  // Due: the retry lands it.
  EXPECT_EQ(queue.advance(0.5), 1u);
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_EQ(target.landed, std::vector<std::string>{"add-route:7"});
  EXPECT_EQ(queue.stats().deferred, 1u);
  EXPECT_EQ(queue.stats().applied, 1u);
}

TEST(UpdateQueue, PreservesSubmissionOrderAcrossRetries) {
  // The poster-child inversion: "remove A" gets rate limited, then
  // "add A" arrives while the channel is clear again. Were later ops
  // allowed to overtake parked ones, the add would land first and the
  // delayed remove would then wipe the entry — the opposite final state.
  ScriptedTarget target;
  target.reject_next = 1;
  UpdateQueue queue(target, UpdateQueue::Config{});
  EXPECT_EQ(queue.submit(route_op(TableOp::Kind::kDelRoute, 7), 0.0),
            TableOpStatus::kRateLimited);
  EXPECT_EQ(queue.submit(route_op(TableOp::Kind::kAddRoute, 7), 0.0),
            TableOpStatus::kRateLimited);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.advance(1.0), 2u);
  const std::vector<std::string> want{"del-route:7", "add-route:7"};
  EXPECT_EQ(target.landed, want);
}

TEST(UpdateQueue, BackoffGrowsAndCaps) {
  ScriptedTarget target;
  target.reject_next = 100;  // keep rejecting
  UpdateQueue queue(target, UpdateQueue::Config{});
  queue.submit(route_op(TableOp::Kind::kAddRoute, 7), 0.0);
  ASSERT_EQ(queue.pending(), 1u);
  double due = 0.25;
  EXPECT_DOUBLE_EQ(queue.next_retry_at(), due);
  // Each refused retry doubles the wait, up to 8 s.
  for (double wait : {0.5, 1.0, 2.0, 4.0, 8.0, 8.0}) {
    queue.advance(due);
    due += wait;
    EXPECT_DOUBLE_EQ(queue.next_retry_at(), due);
  }
  EXPECT_EQ(queue.pending(), 1u);
  // Channel finally clears: the op still lands — never silently dropped.
  target.reject_next = 0;
  EXPECT_EQ(queue.advance(due), 1u);
  EXPECT_EQ(target.landed, std::vector<std::string>{"add-route:7"});
}

TEST(UpdateQueue, OverflowRejectsBeyondMaxPending) {
  ScriptedTarget target;
  target.reject_next = 100;  // the first op parks, the rest queue behind
  UpdateQueue::Config config;
  config.max_pending = 2;
  UpdateQueue queue(target, config);
  queue.submit(route_op(TableOp::Kind::kAddRoute, 1), 0.0);
  queue.submit(route_op(TableOp::Kind::kAddRoute, 2), 0.0);
  queue.submit(route_op(TableOp::Kind::kAddRoute, 3), 0.0);
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_EQ(queue.stats().overflowed, 1u);
}

TEST(UpdateQueue, DeferParksWithoutAttemptingTheChannel) {
  ScriptedTarget target;
  UpdateQueue queue(target, UpdateQueue::Config{});
  EXPECT_EQ(queue.defer(route_op(TableOp::Kind::kAddRoute, 7), 0.0),
            TableOpStatus::kRateLimited);
  // Parked straight away: the target never saw a call.
  EXPECT_EQ(target.calls, 0u);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.stats().submitted, 1u);
  EXPECT_EQ(queue.stats().deferred, 1u);
  EXPECT_EQ(queue.advance(1.0), 1u);
  EXPECT_EQ(target.landed, std::vector<std::string>{"add-route:7"});
}

TEST(UpdateQueue, OverflowKeepsFifoOfTheAdmittedPrefix) {
  // Bounded-queue overflow at capacity: the ops that fit drain strictly
  // in arrival order, the overflowed one is reported, not reordered in.
  ScriptedTarget target;
  target.reject_next = 100;
  UpdateQueue::Config config;
  config.max_pending = 3;
  UpdateQueue queue(target, config);
  for (net::Vni vni = 1; vni <= 5; ++vni) {
    queue.submit(route_op(TableOp::Kind::kAddRoute, vni), 0.0);
  }
  EXPECT_EQ(queue.pending(), 3u);
  EXPECT_EQ(queue.stats().overflowed, 2u);
  target.reject_next = 0;
  EXPECT_EQ(queue.advance(1.0), 3u);
  const std::vector<std::string> want{"add-route:1", "add-route:2",
                                      "add-route:3"};
  EXPECT_EQ(target.landed, want);
}

TEST(UpdateQueue, BackwardClockNeverRetriesEarlyOrLosesOps) {
  // Non-monotonic clock against the backoff: a clock that steps backwards
  // must not fire retries early, must not corrupt the due times, and the
  // parked op still lands once real time passes the deadline.
  ScriptedTarget target;
  target.reject_next = 2;
  UpdateQueue queue(target, UpdateQueue::Config{});
  queue.submit(route_op(TableOp::Kind::kAddRoute, 7), 10.0);  // due 10.25
  EXPECT_EQ(queue.advance(5.0), 0u);   // clock went backwards: nothing
  EXPECT_EQ(queue.advance(0.0), 0u);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_DOUBLE_EQ(queue.next_retry_at(), 10.25);
  EXPECT_EQ(queue.advance(10.25), 0u);  // refused: due 10.25 + backoff 0.5
  EXPECT_DOUBLE_EQ(queue.next_retry_at(), 10.75);
  EXPECT_EQ(queue.advance(4.0), 0u);   // backwards again: still parked
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.advance(10.75), 1u);
  EXPECT_EQ(target.landed, std::vector<std::string>{"add-route:7"});
}

}  // namespace
}  // namespace sf::cluster
