#include "dpu/tier_placer.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/hash.hpp"

namespace sf::dpu {

TierPlacer::TierPlacer(Config config, std::size_t shards, std::size_t nodes)
    : config_(config), nodes_(nodes) {
  if (shards == 0) throw std::invalid_argument("placer needs >= 1 shard");
  if (nodes_ == 0) throw std::invalid_argument("placer needs >= 1 node");
  if (config_.demote_after_idle == 0) config_.demote_after_idle = 1;
  trackers_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    // Distinct seeds per shard: two shards must not share hash collisions,
    // or one tenant's noise would alias into another shard's estimates.
    auto tracker = config_.tracker;
    tracker.sketch.seed = net::hash_combine(tracker.sketch.seed, i + 1);
    trackers_.emplace_back(tracker);
  }
}

telemetry::HeavyHitterTracker& TierPlacer::tracker_for(net::Vni vni) {
  return trackers_[static_cast<std::size_t>(net::mix64(vni)) %
                   trackers_.size()];
}

void TierPlacer::begin_interval() {
  for (auto& tracker : trackers_) tracker.decay(config_.decay);
}

void TierPlacer::observe(const telemetry::FlowKey& key, std::uint64_t pps) {
  tracker_for(key.vni).add(key, pps);
}

TierPlacer::ApplyResult TierPlacer::apply(const InstallFn& install,
                                          const RemoveFn& remove) {
  ApplyResult result;

  // Demotion first: freed entries are available to this interval's
  // promotions. placements_ iterates in key order — deterministic.
  for (auto it = placements_.begin(); it != placements_.end();) {
    const telemetry::FlowKey key{it->first.first, it->first.second};
    const std::uint64_t estimate = tracker_for(key.vni).estimate(key);
    if (estimate >= config_.promote_min_pps) {
      it->second.idle_intervals = 0;
      ++it;
      continue;
    }
    if (++it->second.idle_intervals < config_.demote_after_idle) {
      ++it;
      continue;
    }
    remove(key, it->second.node);
    it = placements_.erase(it);
    ++result.demoted;
  }

  // Gather every shard's candidates, heaviest first. Ties broken by key so
  // the order is a pure function of the tracker state.
  std::vector<telemetry::HeavyHitterTracker::Entry> candidates;
  for (const auto& tracker : trackers_) {
    const auto top = tracker.top(tracker.tracked());
    candidates.insert(candidates.end(), top.begin(), top.end());
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (a.estimate != b.estimate) return a.estimate > b.estimate;
              if (a.key.vni != b.key.vni) return a.key.vni < b.key.vni;
              return a.key.tuple < b.key.tuple;
            });

  for (const auto& candidate : candidates) {
    if (result.promoted >= config_.max_promote_per_interval) break;
    if (candidate.estimate < config_.promote_min_pps) break;  // sorted
    const FlowId id{candidate.key.vni, candidate.key.tuple};
    if (placements_.contains(id)) continue;
    const std::size_t node =
        static_cast<std::size_t>(net::mix64(candidate.key.vni)) % nodes_;
    if (!install(candidate.key, node)) {
      ++result.refused;
      continue;
    }
    placements_.emplace(id, Placement{node, 0});
    ++result.promoted;
  }
  return result;
}

std::optional<std::size_t> TierPlacer::placement(
    const telemetry::FlowKey& key) const {
  auto it = placements_.find({key.vni, key.tuple});
  if (it == placements_.end()) return std::nullopt;
  return it->second.node;
}

std::size_t TierPlacer::placed_on(std::size_t node) const {
  std::size_t count = 0;
  for (const auto& [id, placement] : placements_) {
    if (placement.node == node) ++count;
  }
  return count;
}

std::size_t TierPlacer::evict_node(std::size_t node) {
  return std::erase_if(placements_, [node](const auto& entry) {
    return entry.second.node == node;
  });
}

std::size_t TierPlacer::evict_vni(net::Vni vni) {
  return std::erase_if(placements_, [vni](const auto& entry) {
    return entry.first.first == vni;
  });
}

}  // namespace sf::dpu
