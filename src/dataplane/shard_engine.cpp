#include "dataplane/shard_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/runtime_config.hpp"

namespace sf::dataplane {

ShardEngine::ShardEngine(ShardPlan plan)
    : plan_(plan),
      pool_(std::make_unique<ThreadPool>(std::max<std::size_t>(
          1, plan.threads))) {
  if (plan_.shards == 0) plan_.shards = 1;
}

void ShardEngine::set_threads(std::size_t threads) {
  plan_.threads = std::max<std::size_t>(1, threads);
  pool_ = std::make_unique<ThreadPool>(plan_.threads);
}

std::vector<std::vector<std::uint32_t>> ShardEngine::partition(
    std::span<const net::OverlayPacket> packets,
    std::span<std::uint64_t> hashes) {
  const std::size_t count = packets.size();
  const std::size_t shards = plan_.shards;

  // Contiguous chunks across the pool. Each chunk first hashes its packets
  // in a tight loop (independent per-packet mix chains overlap in the
  // out-of-order window), then buckets them by hash modulo the FIXED shard
  // count. Per-(chunk, shard) buckets concatenated in chunk order keep
  // each shard's index list ascending for ANY chunk count, so the chunk
  // count (a throughput knob) cannot influence results.
  const std::size_t chunks =
      count == 0 ? 0 : std::min(count, pool_->thread_count() * 4);
  std::vector<std::vector<std::vector<std::uint32_t>>> buckets(chunks);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    buckets[c].resize(shards);
    const std::size_t begin = count * c / chunks;
    const std::size_t end = count * (c + 1) / chunks;
    tasks.push_back([&, c, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        hashes[i] = packets[i].inner.hash();
      }
      // Pre-size for the uniform-hash expectation (plus slack) so the
      // partition loop almost never reallocates mid-run.
      const std::size_t expect = (end - begin) / shards + 8;
      for (auto& bucket : buckets[c]) bucket.reserve(expect);
      for (std::size_t i = begin; i < end; ++i) {
        buckets[c][static_cast<std::size_t>(hashes[i]) % shards].push_back(
            static_cast<std::uint32_t>(i));
      }
    });
  }
  pool_->run_all(std::move(tasks));

  std::vector<std::vector<std::uint32_t>> shard_items(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    std::size_t total = 0;
    for (std::size_t c = 0; c < chunks; ++c) total += buckets[c][s].size();
    shard_items[s].reserve(total);
    for (std::size_t c = 0; c < chunks; ++c) {
      shard_items[s].insert(shard_items[s].end(), buckets[c][s].begin(),
                            buckets[c][s].end());
    }
  }
  return shard_items;
}

void ShardEngine::run_tasks(std::vector<std::function<void()>> tasks) {
  pool_->run_all(std::move(tasks));
}

void ShardEngine::process_packets(
    std::span<const net::OverlayPacket> packets, double now,
    const std::function<Gateway&(std::size_t)>& gateway_for,
    std::span<Verdict> out) {
  // One implementation for every shape: an empty update plan has no
  // visibility boundaries, so the burst loop below never splits a burst.
  process_packets(packets, now, gateway_for, out, UpdatePlan{});
}

std::vector<Verdict> ShardEngine::process_packets(
    std::span<const net::OverlayPacket> packets, double now,
    const std::function<Gateway&(std::size_t)>& gateway_for) {
  std::vector<Verdict> verdicts(packets.size());
  process_packets(packets, now, gateway_for, verdicts);
  return verdicts;
}

void ShardEngine::process_packets(
    std::span<const net::OverlayPacket> packets, double now,
    const std::function<Gateway&(std::size_t)>& gateway_for,
    std::span<Verdict> out, const UpdatePlan& updates) {
  if (out.size() != packets.size()) {
    throw std::invalid_argument(
        "process_packets: out.size() must equal packets.size()");
  }
  for (std::size_t k = 1; k < updates.updates.size(); ++k) {
    if (updates.updates[k].apply_index < updates.updates[k - 1].apply_index) {
      throw std::invalid_argument(
          "process_packets: updates must be ascending by apply_index");
    }
  }

  // Every shard's visibility floor is announced BEFORE the mutator
  // starts: gateways reclaim table versions below their announced floor,
  // so a mutator racing ahead of a shard's first advance() could
  // otherwise collect versions that shard is about to pin.
  if (updates.advance) {
    for (std::size_t s = 0; s < plan_.shards; ++s) updates.advance(s, 0);
  }

  // The mutator is a real concurrent thread even at threads == 1: the
  // whole point is that worker/mutator scheduling CANNOT matter. It
  // publishes versions as fast as it likes; each packet's visibility is
  // fixed by the stamped apply_index, enforced by the advance() pin.
  std::thread mutator;
  if (!updates.updates.empty() && updates.apply) {
    mutator = std::thread([&updates] {
      for (std::size_t k = 0; k < updates.updates.size(); ++k) {
        updates.apply(k);
      }
    });
  }

  const std::span<const TimedTableOp> stream = updates.updates;
  const auto& advance = updates.advance;
  const std::size_t batch = std::max<std::size_t>(
      1, plan_.batch != 0 ? plan_.batch
                          : core::RuntimeConfig::process().batch_size);

  // The 5-tuple hash is computed exactly once per packet, in partition(),
  // and the same values thread into every gateway's hash-aware batch path
  // for cache keys and pipe picks.
  std::vector<std::uint64_t> hashes(packets.size());
  const std::vector<std::vector<std::uint32_t>> shard_items =
      partition(packets, hashes);

  std::vector<std::function<void()>> tasks;
  tasks.reserve(plan_.shards);
  for (std::size_t shard = 0; shard < plan_.shards; ++shard) {
    tasks.push_back([&, shard] {
      const std::span<const std::uint32_t> indices = shard_items[shard];
      Gateway& gateway = gateway_for(shard);
      std::size_t cursor = 0;
      // Feed the gateway sub-spans of this shard's (ascending) index
      // list — whole bursts, no per-burst gather/scatter copies. The
      // gateway's stateful pieces (meters, caches) see the same packet
      // sequence regardless of thread count or burst size, so verdicts
      // and telemetry are byte-identical at any ShardPlan.
      std::size_t start = 0;
      const auto flush = [&](std::size_t end_pos) {
        if (start >= end_pos) return;
        gateway.process_batch_indexed(
            packets, hashes, indices.subspan(start, end_pos - start), now,
            out);
        start = end_pos;
      };

      for (std::size_t k = 0; k < indices.size(); ++k) {
        const std::uint32_t i = indices[k];
        // Monotone per-shard cursor: `visible` for packet i is the
        // count of updates with apply_index < i. A table-visibility
        // boundary splits the burst — every packet inside one
        // process_batch_indexed call reads one table version.
        if (cursor < stream.size() && stream[cursor].apply_index < i) {
          flush(k);
          while (cursor < stream.size() &&
                 stream[cursor].apply_index < i) {
            ++cursor;
          }
          if (advance) advance(shard, cursor);
        }
        if (k - start + 1 >= batch) flush(k + 1);
      }
      flush(indices.size());
    });
  }
  pool_->run_all(std::move(tasks));

  if (mutator.joinable()) mutator.join();
}

}  // namespace sf::dataplane
