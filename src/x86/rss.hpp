// Receive-side scaling: the NIC hashes each flow's 5-tuple (CRC32-C) into
// an indirection table that picks the RX queue / CPU core. Flow-based
// hashing keeps packets of one flow in order on one core — and is exactly
// why a heavy-hitter flow can pin a single core at 100% while its 31
// neighbors idle (§2.3).

#pragma once

#include <cstdint>
#include <vector>

#include "net/headers.hpp"

namespace sf::x86 {

class RssIndirection {
 public:
  /// `queues` RX queues served round-robin by a 128-entry table (the
  /// common NIC default).
  explicit RssIndirection(unsigned queues, unsigned table_size = 128,
                          std::uint32_t hash_seed = 0);

  unsigned queue_for(const net::FiveTuple& tuple) const;

  unsigned queues() const { return queues_; }
  const std::vector<unsigned>& table() const { return table_; }

 private:
  unsigned queues_;
  std::uint32_t seed_;
  std::vector<unsigned> table_;
};

}  // namespace sf::x86
