#include "dataplane/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "dataplane/shard_engine.hpp"

namespace sf::dataplane {
namespace {

TEST(ThreadPool, InlineModeRunsEveryTask) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int ran = 0;
  pool.run_all({[&] { ++ran; }, [&] { ++ran; }, [&] { ++ran; }});
  EXPECT_EQ(ran, 3);
}

TEST(ThreadPool, ZeroThreadsAlsoMeansInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  bool ran = false;
  pool.run_all({[&] { ran = true; }});
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, WorkersRunAllTasksExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run_all(std::move(tasks));
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.run_all({[&] { total.fetch_add(1); }, [&] { total.fetch_add(1); }});
  }
  EXPECT_EQ(total.load(), 40);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  pool.run_all({});
}

/// Stateful test gateway: each verdict's latency is a running sum over the
/// packets this gateway has seen, so it depends on their exact sequence.
class SequenceGateway : public Gateway {
 public:
  Verdict process(const net::OverlayPacket& packet, double) override {
    ports.push_back(packet.inner.src_port);
    sum_ += 0.1 * static_cast<double>(packet.inner.src_port);
    Verdict verdict;
    verdict.action = Action::kForwardToNc;
    verdict.latency_us = sum_;
    return verdict;
  }

  std::vector<std::uint16_t> ports;

 private:
  double sum_ = 0;
};

TEST(ShardEngine, SetThreadsPreservesResults) {
  std::vector<net::OverlayPacket> packets(200);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].inner.proto = 17;
    packets[i].inner.src_port = static_cast<std::uint16_t>(i);
    packets[i].inner.dst_port = 4789;
  }
  ShardEngine engine(ShardPlan{4, 1, 8});
  auto run = [&] {
    std::vector<SequenceGateway> fleet(4);
    const std::vector<Verdict> verdicts = engine.process_packets(
        packets, 0.0, [&](std::size_t s) -> Gateway& { return fleet[s]; });
    std::vector<double> latencies;
    for (const Verdict& verdict : verdicts) {
      latencies.push_back(verdict.latency_us);
    }
    // Each shard sees exactly the packets its tuple hash picks, in input
    // order.
    for (std::size_t s = 0; s < fleet.size(); ++s) {
      EXPECT_TRUE(std::is_sorted(fleet[s].ports.begin(), fleet[s].ports.end()));
      for (const std::uint16_t port : fleet[s].ports) {
        EXPECT_EQ(packets[port].inner.hash() % 4, s) << port;
      }
    }
    return latencies;
  };
  const std::vector<double> single = run();
  engine.set_threads(8);
  EXPECT_EQ(engine.plan().shards, 4u);
  EXPECT_EQ(run(), single);  // bit-identical, not just close
}

}  // namespace
}  // namespace sf::dataplane
