// Ternary CAM model.
//
// A TCAM row stores a (value, mask) pair; a search key matches a row when
// (key & mask) == (value & mask), and the highest-priority matching row
// wins. Physical TCAMs are built from fixed-width slices (44 bits on
// SfChip, asic/chip_config.hpp); a logical entry wider than one slice
// consumes several, which is exactly why the paper's IPv6 routes are so
// expensive (Table 2) and why ALPM (tables/alpm.hpp) moves route bulk into
// SRAM.
//
// The model favors obviousness over speed: lookup is a priority-ordered
// scan. That is plenty for first-level ALPM directories (thousands of
// rows); nothing in the repository scans a million-row TCAM per packet.
//
// Update cost: physical TCAMs resolve priority by *row position*, so
// inserting an entry between existing priorities shifts rows — the classic
// TCAM update problem, and part of why §5.2 cares that the VXLAN table
// updates slowly. The model charges each insert min(rows above, rows
// below) moves (shift toward the nearer end) and accumulates the total in
// stats().

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/ip.hpp"
#include "net/packet.hpp"
#include "tables/entry.hpp"

namespace sf::tables {

/// A key of up to 192 bits, as three 64-bit words (word 0 holds the most
/// significant bits).
struct TcamKey {
  std::array<std::uint64_t, 3> w{};

  friend bool operator==(const TcamKey&, const TcamKey&) = default;

  TcamKey masked(const TcamKey& mask) const {
    return TcamKey{{w[0] & mask.w[0], w[1] & mask.w[1], w[2] & mask.w[2]}};
  }
};

/// Layout of the pooled routing key (label ‖ VNI ‖ 128-bit address):
///   bits [0,1)    family label (0 = v4-pooled, 1 = v6)
///   bits [1,25)   VNI
///   bits [25,153) address, v4 zero-extended (§4.4 IPv4/IPv6 table pooling)
inline constexpr unsigned kPooledRouteKeyBits = 1 + 24 + 128;

/// Builds the pooled search key for an address within a VNI.
TcamKey make_pooled_key(net::Vni vni, const net::IpAddr& ip);

/// Builds the pooled (value, mask) pair for a route prefix within a VNI.
std::pair<TcamKey, TcamKey> make_pooled_prefix(net::Vni vni,
                                               const net::IpPrefix& prefix);

/// Builds an unpooled IPv4-only search key / prefix pair (VNI ‖ 32-bit
/// address, 56 bits) — the "straightforward" Table 2 layout.
TcamKey make_v4_key(net::Vni vni, net::Ipv4Addr ip);
std::pair<TcamKey, TcamKey> make_v4_prefix(net::Vni vni,
                                           const net::Ipv4Prefix& prefix);

/// A mask with the `bits` most significant logical bits set.
TcamKey tcam_mask(unsigned bits);

/// Logical bit `index` of a key (0 = most significant).
inline bool tcam_bit(const TcamKey& key, unsigned index) {
  return ((key.w[index / 64] >> (63 - index % 64)) & 1u) != 0;
}

/// Lexicographic compare of the 192-bit value.
inline bool tcam_less(const TcamKey& a, const TcamKey& b) {
  return a.w < b.w;
}

/// Returns key with logical bit `index` set.
inline TcamKey tcam_set_bit(TcamKey key, unsigned index) {
  key.w[index / 64] |= std::uint64_t{1} << (63 - index % 64);
  return key;
}

/// 64-bit hash of a key (for hash-probe directories).
std::uint64_t tcam_hash(const TcamKey& key);

template <typename Value>
class Tcam {
 public:
  struct Config {
    unsigned key_bits = kPooledRouteKeyBits;
    unsigned slice_bits = 44;
    /// 0 means unbounded (model-only use, no capacity accounting).
    std::size_t capacity_slices = 0;
  };

  struct Row {
    TcamKey value;
    TcamKey mask;
    std::int32_t priority = 0;  // higher wins
    Value action{};
  };

  explicit Tcam(Config config = {}) : config_(config) {
    if (config_.slice_bits == 0) {
      throw std::invalid_argument("Tcam slice width must be positive");
    }
  }

  unsigned slices_per_entry() const {
    return (config_.key_bits + config_.slice_bits - 1) / config_.slice_bits;
  }

  /// Inserts a row; replaces an existing row with identical value/mask.
  /// Returns false when the TCAM is out of slices.
  bool insert(const TcamKey& value, const TcamKey& mask,
              std::int32_t priority, Value action) {
    for (Row& row : rows_) {
      if (row.value == value && row.mask == mask) {
        row.priority = priority;
        row.action = std::move(action);
        sort_rows();
        return true;
      }
    }
    if (config_.capacity_slices != 0 &&
        used_slices() + slices_per_entry() > config_.capacity_slices) {
      return false;
    }
    // Charge the physical update: the row lands at its priority position
    // and rows between there and the nearer end shift by one.
    const std::size_t index = static_cast<std::size_t>(
        std::lower_bound(rows_.begin(), rows_.end(), priority,
                         [](const Row& row, std::int32_t p) {
                           return row.priority > p;
                         }) -
        rows_.begin());
    ++update_stats_.inserts;
    update_stats_.entry_moves += moves_for_insert_at(index);
    rows_.push_back(Row{value.masked(mask), mask, priority,
                        std::move(action)});
    sort_rows();
    return true;
  }

  bool erase(const TcamKey& value, const TcamKey& mask) {
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].value == value.masked(mask) && rows_[i].mask == mask) {
        rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Highest-priority match, or nullopt.
  std::optional<Value> lookup(const TcamKey& key) const {
    for (const Row& row : rows_) {
      if (key.masked(row.mask) == row.value) return row.action;
    }
    return std::nullopt;
  }

  std::size_t size() const { return rows_.size(); }
  std::size_t used_slices() const { return rows_.size() * slices_per_entry(); }
  const Config& config() const { return config_; }
  const std::vector<Row>& rows() const { return rows_; }

  struct UpdateStats {
    std::size_t inserts = 0;
    /// Physical row shifts charged across all inserts (TCAM update cost).
    std::size_t entry_moves = 0;
  };
  const UpdateStats& update_stats() const { return update_stats_; }

  void clear() { rows_.clear(); }

 private:
  void sort_rows() {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [](const Row& a, const Row& b) {
                       return a.priority > b.priority;
                     });
  }

  /// Rows a physical TCAM would shift to open a slot at `index`.
  std::size_t moves_for_insert_at(std::size_t index) const {
    return std::min(index, rows_.size() - index);
  }

  Config config_;
  std::vector<Row> rows_;
  UpdateStats update_stats_;
};

}  // namespace sf::tables
