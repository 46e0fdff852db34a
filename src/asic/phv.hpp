// Packet header vector / metadata model.
//
// Metadata written in one gress is invisible in the next unless *bridged*
// — appended to the packet, which costs wire bytes and therefore
// throughput (§3.2, §4.4). Pipeline folding turns one possible bridge into
// three, which is why the gateway program groups tables that share
// metadata into the same gress. The Phv enforces a per-gress bit budget so
// programs feel the "PHV resources are scarce" constraint (§6.2).
//
// Field access is compiled: a PhvLayout interns every field name to a
// dense FieldId at program-build time, and the per-packet hot path indexes
// a flat slot array — no string hashing or comparisons per packet
// (DESIGN.md §9). Presence and bridging are one bit per field, so clearing
// the vector and crossing a gress cost the same at any field count. The
// string overloads survive for tests and ad-hoc use; they resolve through
// the layout and count against string_lookups() so a regression test can
// assert the walker hot loop never takes them.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sf::asic {

/// Dense index of a PHV field within a PhvLayout.
using FieldId = std::uint16_t;
inline constexpr FieldId kInvalidFieldId = 0xFFFF;
/// Fields one layout can hold (one presence bit each).
inline constexpr std::size_t kMaxPhvFields = 64;

/// The compile-time name -> FieldId interner. One layout per
/// PipelineProgram; every Phv walked under that program indexes fields by
/// id. Interning is append-only, so sharing a layout between Phv copies is
/// safe; freeze() locks it once the program is fully bound so a stray
/// runtime intern (a per-packet string) becomes a hard error.
class PhvLayout {
 public:
  /// Returns the id for `name`, interning it on first sight. Throws
  /// std::logic_error once frozen, std::length_error past kMaxPhvFields.
  FieldId intern(std::string_view name);

  /// Returns the id for `name`, or kInvalidFieldId when unknown.
  FieldId find(std::string_view name) const;

  const std::string& name(FieldId id) const { return names_.at(id); }
  std::size_t size() const { return names_.size(); }

  /// Locks the layout: further intern() calls throw. Called when a
  /// pipeline program finishes binding its stages.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  std::vector<std::string> names_;
  std::map<std::string, FieldId, std::less<>> index_;
  bool frozen_ = false;
};

class Phv {
 public:
  /// `layout` is the program's field interner; when null the Phv creates a
  /// private layout so the string API keeps working standalone (tests,
  /// ad-hoc metadata). The layout is shared, not copied: ids stay stable
  /// across Phv copies and across packets walked under the same program.
  explicit Phv(unsigned budget_bits = 1536,
               std::shared_ptr<PhvLayout> layout = nullptr);

  // ---- compiled (hot-path) API: no string traffic ------------------------

  /// Writes a field (creating it on first write). Throws std::length_error
  /// when the budget would be exceeded.
  void set(FieldId id, std::uint64_t value, unsigned bits,
           bool bridged = false) {
    if (bits == 0 || bits > 64 || id >= slots_.size()) {
      return set_slow(id, value, bits, bridged);
    }
    const std::uint64_t bit = std::uint64_t{1} << id;
    Slot& slot = slots_[id];
    const unsigned old_bits = present_ & bit ? slot.bits : 0;
    if (used_bits_ - old_bits + bits > budget_bits_) over_budget(id);
    used_bits_ = used_bits_ - old_bits + bits;
    slot.value = value;
    slot.bits = static_cast<std::uint16_t>(bits);
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
    return slots_[id].value;
  }

  /// get() without the optional, for stages that know the field exists.
  std::uint64_t get_or(FieldId id, std::uint64_t fallback = 0) const {
    return has(id) ? slots_[id].value : fallback;
  }

  bool has(FieldId id) const {
    return id < slots_.size() && (present_ >> id & 1) != 0;
  }

  /// Marks an existing field for bridging across the next gress boundary.
  void bridge(FieldId id) {
    if (!has(id) || (bridged_ >> id & 1) != 0) return;
    bridged_ |= std::uint64_t{1} << id;
    bridged_width_ += slots_[id].bits;
  }

  // ---- string API (cold path: tests, ad-hoc) -----------------------------

  void set(const std::string& name, std::uint64_t value, unsigned bits,
           bool bridged = false);
  std::optional<std::uint64_t> get(const std::string& name) const;
  bool has(const std::string& name) const { return get(name).has_value(); }
  void bridge(const std::string& name);

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
  unsigned budget_bits() const { return budget_bits_; }

  /// Total bits bridged so far (wire overhead accounting).
  unsigned bridged_bits_total() const { return bridged_bits_total_; }

  void clear() {
    present_ = 0;
    bridged_ = 0;
    bridged_width_ = 0;
    bridged_bits_total_ = 0;
    used_bits_ = 0;
  }

  const PhvLayout& layout() const { return *layout_; }

  /// Thread-local count of string-keyed lookups since process start. The
  /// fastpath test asserts this stays flat across Walker::run.
  static std::uint64_t string_lookups();

 private:
  struct Slot {
    std::uint64_t value = 0;
    std::uint16_t bits = 0;
  };

  FieldId resolve_for_write(const std::string& name);
  void check_width(unsigned bits) const;
  // set()'s cold paths: a bad width, a slot array still to grow, a full
  // budget.
  void set_slow(FieldId id, std::uint64_t value, unsigned bits,
                bool bridged);
  [[noreturn]] void over_budget(FieldId id) const;

  unsigned budget_bits_;
  unsigned bridged_bits_total_ = 0;
  unsigned used_bits_ = 0;
  std::shared_ptr<PhvLayout> layout_;
  std::vector<Slot> slots_;
  std::uint64_t present_ = 0;  // bit per field id
  std::uint64_t bridged_ = 0;  // present fields marked for the next crossing
                               // (a field that is not present has no mark)
  unsigned bridged_width_ = 0;  // summed widths of the marked fields
};

}  // namespace sf::asic
