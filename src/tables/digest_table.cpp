#include "tables/digest_table.hpp"

namespace sf::tables {

DigestVmNcTable::DigestVmNcTable(Config config)
    : config_(config),
      main_(typename decltype(main_)::Config{config.buckets, config.ways}) {
  if (config_.digest_bits == 0 || config_.digest_bits > 32) {
    throw std::invalid_argument("digest width must be in (0, 32]");
  }
}

std::uint32_t DigestVmNcTable::ip32(const net::IpAddr& ip) const {
  if (ip.is_v4()) return ip.v4().value();
  return static_cast<std::uint32_t>(
      net::digest(ip.v6().hi(), ip.v6().lo(), config_.digest_bits,
                  config_.digest_seed));
}

std::uint64_t DigestVmNcTable::pooled_key(const VmNcKey& key) const {
  return pooled_key(key.vni, key.vm_ip);
}

std::uint64_t DigestVmNcTable::pooled_key(net::Vni vni,
                                          const net::IpAddr& ip) const {
  std::uint64_t label = ip.is_v6() ? 1 : 0;
  return (label << 56) | (std::uint64_t{vni} << 32) | ip32(ip);
}

bool DigestVmNcTable::insert(const VmNcKey& key, VmNcAction action) {
  const std::uint64_t pooled = pooled_key(key);

  if (key.vm_ip.is_v6()) {
    // Replacing an existing conflict entry stays in the conflict table.
    if (auto it = conflicts_.find(key); it != conflicts_.end()) {
      it->second = action;
      return true;
    }
    auto owner = owners_.find(pooled);
    if (owner != owners_.end() && owner->second != key) {
      // A different v6 key already owns this digest slot: divert to the
      // conflict table (keeps the full 128-bit key).
      ++collision_events_;
      conflicts_.emplace(key, action);
      return true;
    }
    if (!main_.insert(pooled, action)) return false;
    owners_[pooled] = key;
    return true;
  }
  return main_.insert(pooled, action);
}

bool DigestVmNcTable::erase(const VmNcKey& key) {
  const std::uint64_t pooled = pooled_key(key);

  if (key.vm_ip.is_v6()) {
    if (conflicts_.erase(key) > 0) return true;
    auto owner = owners_.find(pooled);
    if (owner == owners_.end() || owner->second != key) return false;
    main_.erase(pooled);
    owners_.erase(owner);
    // Promote a conflict entry that collided on this digest slot, if any.
    for (auto it = conflicts_.begin(); it != conflicts_.end(); ++it) {
      if (pooled_key(it->first) == pooled) {
        if (main_.insert(pooled, it->second)) {
          owners_[pooled] = it->first;
          conflicts_.erase(it);
        }
        break;
      }
    }
    return true;
  }
  return main_.erase(pooled);
}

std::optional<VmNcAction> DigestVmNcTable::lookup(
    net::Vni vni, const net::IpAddr& ip) const {
  if (ip.is_v6()) {
    // Paper's order: the full-key conflict table first, then the pooled
    // digest table.
    if (auto it = conflicts_.find(VmNcKey{vni, ip}); it != conflicts_.end()) {
      return it->second;
    }
  }
  return main_.lookup(pooled_key(vni, ip));
}

void DigestVmNcTable::prefetch(net::Vni vni, const net::IpAddr& ip) const {
  main_.prefetch(pooled_key(vni, ip));
}

DigestVmNcTable::Stats DigestVmNcTable::stats() const {
  return Stats{main_.size(), conflicts_.size(), main_.stats().insert_failures,
               collision_events_};
}

std::size_t DigestVmNcTable::entry_words() const {
  // Pooled entries: 1+24+32 key + 32 action + meta < 128 bits -> 1 word.
  // Conflict entries: 152-bit key -> wide-key cost, 4 words (DESIGN.md).
  return main_.size() + 4 * conflicts_.size();
}

}  // namespace sf::tables
