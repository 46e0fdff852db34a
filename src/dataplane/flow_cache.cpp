#include "dataplane/flow_cache.hpp"

#include "core/runtime_config.hpp"
#include "net/hash.hpp"

namespace sf::dataplane {

FlowKey make_flow_key(std::uint32_t vni, std::uint64_t tuple_hash) {
  // Two independently seeded 64-bit digests derived from the flow's RSS
  // hash; both halves must collide for two flows to alias in the cache.
  // Deriving from the hash (instead of re-digesting the tuple) lets the
  // batch path reuse the shard-steering hash — the tuple is hashed exactly
  // once per packet anywhere in the system.
  FlowKey key;
  key.hi = net::hash_combine(0x5a11f15bf10c4a1eULL ^ vni, tuple_hash);
  key.lo = net::hash_combine(0xc0ffee0ddfa57e57ULL + vni,
                             net::mix64(tuple_hash ^ 0x9e3779b97f4a7c15ULL));
  return key;
}

FlowKey make_flow_key(std::uint32_t vni, const net::FiveTuple& tuple) {
  return make_flow_key(vni, tuple.hash());
}

std::size_t default_flow_cache_entries() {
  // SF_FLOW_CACHE, latched once per process.
  return core::RuntimeConfig::process().flow_cache_entries;
}

}  // namespace sf::dataplane
