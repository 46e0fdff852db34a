#include "x86/snat.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::x86 {

SnatEngine::SnatEngine(Config config) : config_(std::move(config)) {
  if (config_.public_ips.empty()) {
    throw std::invalid_argument("SNAT needs at least one public IP");
  }
  if (config_.port_min > config_.port_max) {
    throw std::invalid_argument("SNAT port range is inverted");
  }
  free_ports_.resize(config_.public_ips.size());
  for (std::size_t i = 0; i < config_.public_ips.size(); ++i) {
    if (!ip_index_.emplace(config_.public_ips[i].value(), i).second) {
      throw std::invalid_argument("SNAT public IPs must be distinct");
    }
    for (std::uint32_t port = config_.port_min; port <= config_.port_max;
         ++port) {
      free_ports_[i].push_back(static_cast<std::uint16_t>(port));
    }
  }
}

std::size_t SnatEngine::ip_index_for(const net::FiveTuple& session) const {
  return static_cast<std::size_t>(session.hash()) % config_.public_ips.size();
}

net::Ipv4Addr SnatEngine::ip_for(const net::FiveTuple& session) const {
  return config_.public_ips[ip_index_for(session)];
}

std::size_t SnatEngine::free_ports(net::Ipv4Addr public_ip) const {
  auto it = ip_index_.find(public_ip.value());
  return it == ip_index_.end() ? 0 : free_ports_[it->second].size();
}

std::optional<SnatBinding> SnatEngine::allocate(
    const net::FiveTuple& session) {
  std::deque<std::uint16_t>& block = free_ports_[ip_index_for(session)];
  if (block.empty()) return std::nullopt;  // no cross-IP spill by design
  const std::uint16_t port = block.front();
  block.pop_front();
  return SnatBinding{ip_for(session), port};
}

void SnatEngine::release(const SnatBinding& binding) {
  free_ports_[ip_index_.at(binding.public_ip.value())].push_back(
      binding.public_port);
}

std::optional<SnatBinding> SnatEngine::translate(const net::FiveTuple& session,
                                                 double now,
                                                 AllocFailure* failure) {
  if (failure != nullptr) *failure = AllocFailure::kNone;
  if (auto it = by_tuple_.find(session); it != by_tuple_.end()) {
    Session& s = sessions_[it->second];
    // A replayed/backward timestamp must not rewind the idle stamp, or a
    // later expire() pass would reclaim a session that was just touched.
    s.last_used = std::max(s.last_used, now);
    return s.binding;
  }
  auto binding = allocate(session);
  if (!binding) {
    ++allocation_failures_;
    ++port_block_exhaustions_;
    if (failure != nullptr) *failure = AllocFailure::kPortBlockExhausted;
    return std::nullopt;
  }
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    sessions_[slot] = Session{*binding, session, now};
  } else {
    slot = sessions_.size();
    sessions_.push_back(Session{*binding, session, now});
  }
  by_tuple_.emplace(session, slot);
  by_binding_.emplace(BindingKey{*binding}, slot);
  return binding;
}

std::optional<net::FiveTuple> SnatEngine::reverse(const SnatBinding& binding,
                                                  const net::IpAddr& peer_ip,
                                                  std::uint16_t peer_port,
                                                  double now) {
  auto it = by_binding_.find(BindingKey{binding});
  if (it == by_binding_.end()) return std::nullopt;
  Session& s = sessions_[it->second];
  // The response must come from the session's remote endpoint.
  if (s.tuple.dst != peer_ip || s.tuple.dst_port != peer_port) {
    return std::nullopt;
  }
  s.last_used = std::max(s.last_used, now);
  return s.tuple;
}

std::size_t SnatEngine::expire(double now) {
  // Release in ascending slot order, not in the hash map's iteration order
  // (which each standard library defines differently), so the free-port
  // blocks and free slots refill in one defined order everywhere.
  std::vector<std::size_t> expired;
  for (const auto& [tuple, slot] : by_tuple_) {
    if (now - sessions_[slot].last_used > config_.session_timeout_s) {
      expired.push_back(slot);
    }
  }
  std::sort(expired.begin(), expired.end());
  for (const std::size_t slot : expired) {
    by_binding_.erase(BindingKey{sessions_[slot].binding});
    release(sessions_[slot].binding);
    free_slots_.push_back(slot);
    by_tuple_.erase(sessions_[slot].tuple);
  }
  expired_ += expired.size();
  return expired.size();
}

SnatEngine::Stats SnatEngine::stats() const {
  return Stats{by_tuple_.size(), allocation_failures_, expired_,
               port_block_exhaustions_};
}

std::size_t SnatEngine::capacity() const {
  return config_.public_ips.size() *
         (static_cast<std::size_t>(config_.port_max) - config_.port_min + 1);
}

}  // namespace sf::x86
