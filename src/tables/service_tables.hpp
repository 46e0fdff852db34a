// QoS / policy service tables (§3.3 "Handling diverse cloud services"):
// the ACL table installed per the SLAs signed with customers. It rides in
// the same pipelines as the two major tables; with the meter and counter
// memory the placer bills, it is what Table 4's "all the actual tables"
// occupancy adds on top of Table 3. XGW-H's one meter, the fallback rate
// limiter, is a tables::TokenBucket.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "tables/entry.hpp"

namespace sf::tables {

/// Verdict of an ACL match.
enum class AclVerdict : std::uint8_t { kPermit, kDeny };

/// One ternary ACL rule over (VNI, inner 5-tuple). Unset fields wildcard.
/// Port fields may be exact values or inclusive ranges; a range costs
/// multiple TCAM rows (tables/range_expansion.hpp).
struct AclRule {
  std::optional<net::Vni> vni;
  std::optional<net::IpPrefix> src;
  std::optional<net::IpPrefix> dst;
  std::optional<std::uint8_t> proto;
  std::optional<std::uint16_t> src_port;
  std::optional<std::uint16_t> dst_port;
  std::optional<std::pair<std::uint16_t, std::uint16_t>> src_port_range;
  std::optional<std::pair<std::uint16_t, std::uint16_t>> dst_port_range;
  std::int32_t priority = 0;  // higher wins
  AclVerdict verdict = AclVerdict::kPermit;

  bool matches(net::Vni vni_in, const net::FiveTuple& tuple) const;

  /// TCAM rows this rule occupies after range expansion (the product of
  /// the two port-range covers; 1 for exact/wildcard fields).
  std::size_t tcam_rows() const;
};

/// Priority-ordered ternary ACL. Default verdict applies when nothing
/// matches (cloud ACLs default-permit inside a VPC).
class AclTable {
 public:
  explicit AclTable(AclVerdict default_verdict = AclVerdict::kPermit)
      : default_verdict_(default_verdict) {}

  void add(AclRule rule);
  std::size_t size() const { return rules_.size(); }

  /// Physical TCAM rows across all rules, range expansion included.
  std::size_t tcam_rows() const;

  AclVerdict evaluate(net::Vni vni, const net::FiveTuple& tuple) const;

  /// Ternary key width for the occupancy model: VNI + v4 5-tuple.
  static constexpr unsigned kKeyBits = 24 + 32 + 32 + 8 + 16 + 16;

 private:
  AclVerdict default_verdict_;
  std::vector<AclRule> rules_;  // kept sorted by descending priority
};
}  // namespace sf::tables
