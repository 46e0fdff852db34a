#include "asic/phv.hpp"

namespace sf::asic {

namespace {

thread_local std::uint64_t g_string_lookups = 0;

}  // namespace

FieldId PhvLayout::intern(std::string_view name) {
  if (auto it = index_.find(name); it != index_.end()) return it->second;
  if (frozen_) {
    throw std::logic_error("PhvLayout frozen: cannot intern new field \"" +
                           std::string(name) + "\" at runtime");
  }
  if (names_.size() >= kMaxPhvFields) {
    throw std::length_error("PhvLayout: too many PHV fields");
  }
  const FieldId id = static_cast<FieldId>(names_.size());
  names_.emplace_back(name);
  index_.emplace(names_.back(), id);
  return id;
}

FieldId PhvLayout::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? kInvalidFieldId : it->second;
}

Phv::Phv(unsigned budget_bits, std::shared_ptr<PhvLayout> layout)
    : budget_bits_(budget_bits), layout_(std::move(layout)) {
  if (layout_ == nullptr) layout_ = std::make_shared<PhvLayout>();
  slots_.resize(layout_->size());
}

void Phv::check_width(unsigned bits) const {
  if (bits == 0 || bits > 64) {
    throw std::invalid_argument("PHV field width must be 1..64 bits");
  }
}

void Phv::set_slow(FieldId id, std::uint64_t value, unsigned bits,
                   bool bridged) {
  check_width(bits);
  if (id >= layout_->size()) {
    throw std::out_of_range("PHV field id not in layout");
  }
  slots_.resize(layout_->size());
  set(id, value, bits, bridged);
}

void Phv::over_budget(FieldId id) const {
  throw std::length_error("PHV budget exceeded: " + layout_->name(id));
}

void Phv::set(const std::string& name, std::uint64_t value, unsigned bits,
              bool bridged) {
  check_width(bits);
  ++g_string_lookups;
  set(resolve_for_write(name), value, bits, bridged);
}

std::optional<std::uint64_t> Phv::get(const std::string& name) const {
  ++g_string_lookups;
  return get(layout_->find(name));
}

void Phv::bridge(const std::string& name) {
  ++g_string_lookups;
  bridge(layout_->find(name));
}

FieldId Phv::resolve_for_write(const std::string& name) {
  const FieldId id = layout_->find(name);
  return id != kInvalidFieldId ? id : layout_->intern(name);
}

std::uint64_t Phv::string_lookups() { return g_string_lookups; }

}  // namespace sf::asic
