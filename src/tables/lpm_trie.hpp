// A longest-prefix-match binary trie keyed by (VNI, family, IP prefix).
//
// This is the reference LPM structure of the repository: the ALPM
// implementation (tables/alpm.hpp, which partitions its subtrees) and the
// RCU route table XGW-x86 reads (rcu/rcu_lpm.hpp) are both checked
// against it. The VNI is always matched exactly (routes
// never wildcard the tenant), so the trie keeps one root per (VNI, family)
// and runs the binary descent only over the IP bits.
//
// Nodes live in a single arena vector for cache locality and cheap subtree
// walks. Depth is bounded by the address width (<= 128), so recursion is
// safe.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ip.hpp"
#include "net/packet.hpp"

namespace sf::tables {

/// Bit accessor in the per-family address space: index 0 is the most
/// significant bit of the (32- or 128-bit) address.
inline bool address_bit(net::IpFamily family, const net::Ipv6Addr& widened,
                        unsigned index) {
  return family == net::IpFamily::kV4 ? widened.bit(96 + index)
                                      : widened.bit(index);
}

inline unsigned address_width(net::IpFamily family) {
  return family == net::IpFamily::kV4 ? 32u : 128u;
}

template <typename Value>
class LpmTrie {
 public:
  struct Entry {
    net::Vni vni = 0;
    net::IpPrefix prefix;
    Value value{};
  };

  LpmTrie() = default;

  /// Inserts or replaces. Returns true when the prefix was new.
  bool insert(net::Vni vni, const net::IpPrefix& prefix, Value value) {
    int node = descend_or_create(vni, prefix);
    bool was_new = !nodes_[static_cast<size_t>(node)].value.has_value();
    nodes_[static_cast<size_t>(node)].value = std::move(value);
    if (was_new) ++size_;
    return was_new;
  }

  /// Removes an exact prefix. Returns true when it existed.
  bool remove(net::Vni vni, const net::IpPrefix& prefix) {
    int node = descend(vni, prefix);
    if (node < 0 || !nodes_[static_cast<size_t>(node)].value.has_value()) {
      return false;
    }
    nodes_[static_cast<size_t>(node)].value.reset();
    --size_;
    return true;
  }

  /// Exact-prefix fetch (not longest match).
  const Value* find(net::Vni vni, const net::IpPrefix& prefix) const {
    int node = descend(vni, prefix);
    if (node < 0) return nullptr;
    const auto& slot = nodes_[static_cast<size_t>(node)].value;
    return slot.has_value() ? &*slot : nullptr;
  }

  /// Longest-prefix match for an address within a VNI.
  std::optional<Value> lookup(net::Vni vni, const net::IpAddr& ip) const {
    auto root = roots_.find(root_key(vni, ip.family()));
    if (root == roots_.end()) return std::nullopt;
    const net::Ipv6Addr widened = ip.widened();
    const unsigned width = address_width(ip.family());
    std::optional<Value> best;
    int node = root->second;
    for (unsigned depth = 0; node >= 0; ++depth) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      if (n.value.has_value()) best = *n.value;
      if (depth >= width) break;
      node = n.child[address_bit(ip.family(), widened, depth) ? 1 : 0];
    }
    return best;
  }

  /// As lookup(), but also reports the matched prefix length. Used by the
  /// ALPM cross-check tests.
  std::optional<std::pair<Value, unsigned>> lookup_with_length(
      net::Vni vni, const net::IpAddr& ip) const {
    auto root = roots_.find(root_key(vni, ip.family()));
    if (root == roots_.end()) return std::nullopt;
    const net::Ipv6Addr widened = ip.widened();
    const unsigned width = address_width(ip.family());
    std::optional<std::pair<Value, unsigned>> best;
    int node = root->second;
    for (unsigned depth = 0; node >= 0; ++depth) {
      const Node& n = nodes_[static_cast<size_t>(node)];
      if (n.value.has_value()) best = {{*n.value, depth}};
      if (depth >= width) break;
      node = n.child[address_bit(ip.family(), widened, depth) ? 1 : 0];
    }
    return best;
  }

  /// Pre-sizes the node arena ahead of a bulk load of roughly
  /// `prefix_count` prefixes. Dense loads share long spines, so the
  /// estimate budgets ~8 fresh arena nodes per prefix (plus slack for the
  /// cold spine of the first few); an under-estimate only means the arena
  /// grows the normal way later.
  void reserve(std::size_t prefix_count) {
    nodes_.reserve(nodes_.size() + prefix_count * 8 + 64);
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every stored entry. Order: per (VNI, family) root, preorder.
  void for_each(
      const std::function<void(net::Vni, const net::IpPrefix&, const Value&)>&
          visit) const {
    for (const auto& [key, root] : roots_) {
      net::Vni vni = static_cast<net::Vni>(key >> 8);
      net::IpFamily family = static_cast<net::IpFamily>(key & 1);
      net::Ipv6Addr path(0, 0);
      walk(root, vni, family, path, 0, visit);
    }
  }

  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(size_);
    for_each([&](net::Vni vni, const net::IpPrefix& prefix, const Value& v) {
      out.push_back(Entry{vni, prefix, v});
    });
    return out;
  }

  void clear() {
    nodes_.clear();
    roots_.clear();
    size_ = 0;
  }

 private:
  struct Node {
    int child[2] = {-1, -1};
    std::optional<Value> value;
  };

  static std::uint64_t root_key(net::Vni vni, net::IpFamily family) {
    return (std::uint64_t{vni} << 8) |
           static_cast<std::uint64_t>(family == net::IpFamily::kV6 ? 1 : 0);
  }

  int new_node() {
    nodes_.emplace_back();
    return static_cast<int>(nodes_.size() - 1);
  }

  int descend_or_create(net::Vni vni, const net::IpPrefix& prefix) {
    auto [it, inserted] =
        roots_.try_emplace(root_key(vni, prefix.family()), -1);
    if (inserted) it->second = new_node();
    int node = it->second;
    const net::Ipv6Addr addr = prefix.widened_address();
    for (unsigned depth = 0; depth < prefix.length(); ++depth) {
      int branch = address_bit(prefix.family(), addr, depth) ? 1 : 0;
      int next = nodes_[static_cast<size_t>(node)].child[branch];
      if (next < 0) {
        next = new_node();
        nodes_[static_cast<size_t>(node)].child[branch] = next;
      }
      node = next;
    }
    return node;
  }

  int descend(net::Vni vni, const net::IpPrefix& prefix) const {
    auto it = roots_.find(root_key(vni, prefix.family()));
    if (it == roots_.end()) return -1;
    int node = it->second;
    const net::Ipv6Addr addr = prefix.widened_address();
    for (unsigned depth = 0; depth < prefix.length() && node >= 0; ++depth) {
      int branch = address_bit(prefix.family(), addr, depth) ? 1 : 0;
      node = nodes_[static_cast<size_t>(node)].child[branch];
    }
    return node;
  }

  static net::Ipv6Addr set_path_bit(net::IpFamily family,
                                    const net::Ipv6Addr& path,
                                    unsigned depth) {
    unsigned index = family == net::IpFamily::kV4 ? 96 + depth : depth;
    if (index < 64) {
      return net::Ipv6Addr(path.hi() | (std::uint64_t{1} << (63 - index)),
                           path.lo());
    }
    return net::Ipv6Addr(path.hi(),
                         path.lo() | (std::uint64_t{1} << (127 - index)));
  }

  static net::IpPrefix make_prefix(net::IpFamily family,
                                   const net::Ipv6Addr& path, unsigned depth) {
    if (family == net::IpFamily::kV4) {
      return net::Ipv4Prefix(
          net::Ipv4Addr(static_cast<std::uint32_t>(path.lo())), depth);
    }
    return net::Ipv6Prefix(path, depth);
  }

  void walk(int node, net::Vni vni, net::IpFamily family,
            const net::Ipv6Addr& path, unsigned depth,
            const std::function<void(net::Vni, const net::IpPrefix&,
                                     const Value&)>& visit) const {
    if (node < 0) return;
    const Node& n = nodes_[static_cast<size_t>(node)];
    if (n.value.has_value()) {
      visit(vni, make_prefix(family, path, depth), *n.value);
    }
    if (depth >= address_width(family)) return;
    walk(n.child[0], vni, family, path, depth + 1, visit);
    walk(n.child[1], vni, family, set_path_bit(family, path, depth),
         depth + 1, visit);
  }

  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, int> roots_;
  std::size_t size_ = 0;
};

}  // namespace sf::tables
