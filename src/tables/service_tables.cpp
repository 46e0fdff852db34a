#include "tables/service_tables.hpp"

#include <algorithm>

#include "tables/range_expansion.hpp"

namespace sf::tables {

bool AclRule::matches(net::Vni vni_in, const net::FiveTuple& tuple) const {
  if (vni && *vni != vni_in) return false;
  if (src && !src->contains(tuple.src)) return false;
  if (dst && !dst->contains(tuple.dst)) return false;
  if (proto && *proto != tuple.proto) return false;
  if (src_port && *src_port != tuple.src_port) return false;
  if (dst_port && *dst_port != tuple.dst_port) return false;
  if (src_port_range && (tuple.src_port < src_port_range->first ||
                         tuple.src_port > src_port_range->second)) {
    return false;
  }
  if (dst_port_range && (tuple.dst_port < dst_port_range->first ||
                         tuple.dst_port > dst_port_range->second)) {
    return false;
  }
  return true;
}

std::size_t AclRule::tcam_rows() const {
  std::size_t rows = 1;
  if (src_port_range) {
    rows *= port_range_expansion_cost(src_port_range->first,
                                      src_port_range->second);
  }
  if (dst_port_range) {
    rows *= port_range_expansion_cost(dst_port_range->first,
                                      dst_port_range->second);
  }
  return rows;
}

void AclTable::add(AclRule rule) {
  auto at = std::upper_bound(rules_.begin(), rules_.end(), rule,
                             [](const AclRule& a, const AclRule& b) {
                               return a.priority > b.priority;
                             });
  rules_.insert(at, std::move(rule));
}

std::size_t AclTable::tcam_rows() const {
  std::size_t rows = 0;
  for (const AclRule& rule : rules_) rows += rule.tcam_rows();
  return rows;
}

AclVerdict AclTable::evaluate(net::Vni vni,
                              const net::FiveTuple& tuple) const {
  for (const AclRule& rule : rules_) {
    if (rule.matches(vni, tuple)) return rule.verdict;
  }
  return default_verdict_;
}

}  // namespace sf::tables
