// Packet header vector / metadata model.
//
// Metadata written in one gress is invisible in the next unless *bridged*
// — appended to the packet, which costs wire bytes and therefore
// throughput (§3.2, §4.4). Pipeline folding turns one possible bridge into
// three, which is why the gateway program groups tables that share
// metadata into the same gress. The Phv enforces a per-gress bit budget so
// programs feel the "PHV resources are scarce" constraint (§6.2).
//
// Fields are fixed when the program is written, as an RMT compiler fixes
// PHV containers: a gateway names its fields with an enum and that value
// indexes a slot held inline in the Phv (DESIGN.md §9). Presence and
// bridging are one bit per field, so resetting the vector and crossing a
// gress cost the same at any field count.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>

namespace sf::asic {

/// A program's own index of a PHV field (its field enum's value).
using FieldId = unsigned;
/// Fields one Phv can hold: field ids run below this.
inline constexpr std::size_t kMaxPhvFields = 8;

class Phv {
 public:
  explicit Phv(unsigned budget_bits = 1536) : budget_bits_(budget_bits) {}

  /// Writes a field (creating it on first write). Throws
  /// std::invalid_argument for a width outside 1..64, std::out_of_range
  /// for an id at or past kMaxPhvFields, and std::length_error when the
  /// budget would be exceeded.
  void set(FieldId id, std::uint64_t value, unsigned bits,
           bool bridged = false) {
    if (bits == 0 || bits > 64 || id >= kMaxPhvFields) reject(id, bits);
    const std::uint64_t bit = std::uint64_t{1} << id;
    const unsigned old_bits = present_ & bit ? bits_[id] : 0;
    if (used_bits_ - old_bits + bits > budget_bits_) over_budget(id);
    used_bits_ = used_bits_ - old_bits + bits;
    values_[id] = value;
    bits_[id] = static_cast<std::uint8_t>(bits);
    present_ |= bit;
    if (bridged_ & bit) {
      bridged_width_ = bridged_width_ - old_bits + bits;  // keeps its mark
    } else if (bridged) {
      bridged_ |= bit;
      bridged_width_ += bits;
    }
  }

  std::optional<std::uint64_t> get(FieldId id) const {
    if (!has(id)) return std::nullopt;
    return values_[id];
  }

  /// get() without the optional, for stages that know the field exists.
  std::uint64_t get_or(FieldId id, std::uint64_t fallback = 0) const {
    return has(id) ? values_[id] : fallback;
  }

  bool has(FieldId id) const {
    return id < kMaxPhvFields && (present_ >> id & 1) != 0;
  }

  /// Marks an existing field for bridging across the next gress boundary.
  void bridge(FieldId id) {
    if (!has(id) || (bridged_ >> id & 1) != 0) return;
    bridged_ |= std::uint64_t{1} << id;
    bridged_width_ += bits_[id];
  }

  // ---- gress semantics ---------------------------------------------------

  /// Crosses a gress boundary: non-bridged fields are dropped; returns the
  /// number of bits appended to the packet for the bridged ones.
  unsigned cross_gress() {
    // Bridged fields survive exactly one crossing; re-bridge to carry
    // again.
    const unsigned bridged_bits = bridged_width_;
    present_ &= bridged_;
    bridged_ = 0;
    bridged_width_ = 0;
    used_bits_ = bridged_bits;
    bridged_bits_total_ += bridged_bits;
    return bridged_bits;
  }

  unsigned used_bits() const { return used_bits_; }

  /// Total bits bridged so far (wire overhead accounting).
  unsigned bridged_bits_total() const { return bridged_bits_total_; }

 private:
  // set()'s cold paths: a bad width or id, a full budget.
  [[noreturn]] static void reject(FieldId id, unsigned bits);
  [[noreturn]] static void over_budget(FieldId id);

  unsigned budget_bits_;
  unsigned bridged_bits_total_ = 0;
  unsigned used_bits_ = 0;
  unsigned bridged_width_ = 0;  // summed widths of the marked fields
  std::uint64_t present_ = 0;   // bit per field id
  std::uint64_t bridged_ = 0;   // present fields marked for the next crossing
                                // (a field that is not present has no mark)
  std::array<std::uint64_t, kMaxPhvFields> values_{};
  std::array<std::uint8_t, kMaxPhvFields> bits_{};
};

}  // namespace sf::asic
