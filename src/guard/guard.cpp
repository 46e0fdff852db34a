#include "guard/guard.hpp"

#include <algorithm>
#include <stdexcept>

namespace sf::guard {

const char* name(Tier tier) {
  switch (tier) {
    case Tier::kFull:
      return "full-service";
    case Tier::kShedNewFlows:
      return "shed-new-flows";
    case Tier::kShedTenant:
      return "shed-tenant";
  }
  return "?";
}

std::string to_string(Tier tier) { return name(tier); }

TenantGuard::TenantGuard(Config config) : config_(std::move(config)) {
  if (config_.burst_seconds <= 0) {
    throw std::invalid_argument("guard burst_seconds must be positive");
  }
  if (config_.escalate_after == 0 || config_.deescalate_after == 0) {
    throw std::invalid_argument("guard ladder thresholds must be >= 1");
  }
  has_default_limit_ =
      config_.default_rate_bps > 0 || config_.default_rate_pps > 0;
  for (const TenantLimit& limit : config_.tenants) set_limit(limit);
}

void TenantGuard::set_limit(const TenantLimit& limit) {
  TenantState state;
  state.rate_bps = limit.rate_bps;
  state.rate_pps = limit.rate_pps;
  tenants_[limit.vni] = state;
}

bool TenantGuard::any_limits() const {
  if (has_default_limit_) return true;
  for (const auto& [vni, state] : tenants_) {
    if (state.rate_bps > 0 || state.rate_pps > 0) return true;
  }
  return false;
}

TenantGuard::TenantState* TenantGuard::state_for(net::Vni vni) {
  auto it = tenants_.find(vni);
  if (it != tenants_.end()) return &it->second;
  if (!has_default_limit_) return nullptr;
  TenantState state;
  state.rate_bps = config_.default_rate_bps;
  state.rate_pps = config_.default_rate_pps;
  return &tenants_.emplace(vni, state).first->second;
}

const TenantGuard::TenantState* TenantGuard::state_for(net::Vni vni) const {
  auto it = tenants_.find(vni);
  return it == tenants_.end() ? nullptr : &it->second;
}

bool TenantGuard::metered(net::Vni vni) const {
  const TenantState* state = state_for(vni);
  if (state != nullptr) return state->rate_bps > 0 || state->rate_pps > 0;
  return has_default_limit_;
}

Tier TenantGuard::tier_of(net::Vni vni) const {
  const TenantState* state = state_for(vni);
  return state == nullptr ? Tier::kFull : state->tier;
}

int TenantGuard::observe(TenantState& state, bool over) {
  if (over) {
    state.conform_streak = 0;
    if (++state.over_streak >= config_.escalate_after &&
        state.tier != Tier::kShedTenant) {
      state.tier = static_cast<Tier>(static_cast<std::uint8_t>(state.tier) + 1);
      state.over_streak = 0;
      return +1;
    }
    return 0;
  }
  state.over_streak = 0;
  if (++state.conform_streak >= config_.deescalate_after &&
      state.tier != Tier::kFull) {
    state.tier = static_cast<Tier>(static_cast<std::uint8_t>(state.tier) - 1);
    state.conform_streak = 0;
    return -1;
  }
  return 0;
}

TenantGuard::PacketDecision TenantGuard::admit_packet(
    net::Vni vni, std::size_t wire_bytes, double now,
    const std::function<bool()>& established) {
  PacketDecision decision;
  TenantState* state = state_for(vni);
  if (state == nullptr || (state->rate_bps <= 0 && state->rate_pps <= 0)) {
    ++stats_.admitted;
    return decision;  // unmetered tenant: full service, no ladder
  }

  // Refill the token buckets. The clock may step backwards in replayed
  // scenarios; a negative dt refills nothing rather than draining.
  if (!state->primed) {
    state->byte_tokens = state->rate_bps / 8.0 * config_.burst_seconds;
    state->packet_tokens = state->rate_pps * config_.burst_seconds;
    state->tokens_time = now;
    state->primed = true;
  }
  const double dt = std::max(0.0, now - state->tokens_time);
  state->tokens_time = std::max(state->tokens_time, now);
  if (state->rate_bps > 0) {
    state->byte_tokens =
        std::min(state->byte_tokens + dt * state->rate_bps / 8.0,
                 state->rate_bps / 8.0 * config_.burst_seconds);
  }
  if (state->rate_pps > 0) {
    state->packet_tokens =
        std::min(state->packet_tokens + dt * state->rate_pps,
                 state->rate_pps * config_.burst_seconds);
  }

  const bool over =
      (state->rate_bps > 0 &&
       state->byte_tokens < static_cast<double>(wire_bytes)) ||
      (state->rate_pps > 0 && state->packet_tokens < 1.0);
  if (!over) {
    if (state->rate_bps > 0) {
      state->byte_tokens -= static_cast<double>(wire_bytes);
    }
    if (state->rate_pps > 0) state->packet_tokens -= 1.0;
  }
  const int moved = observe(*state, over);
  if (moved > 0) ++stats_.escalations;
  if (moved < 0) ++stats_.deescalations;

  decision.tier = state->tier;
  switch (state->tier) {
    case Tier::kFull:
      // Full service — the ladder, not the packet, absorbs the first
      // over-limit observations.
      decision.admit = true;
      ++stats_.admitted;
      return decision;
    case Tier::kShedNewFlows:
      if (established && established()) {
        decision.admit = true;
        ++stats_.established_served;
        return decision;
      }
      decision.admit = false;
      decision.punt = true;
      decision.drop_reason = dataplane::DropReason::kTenantNewFlowShed;
      ++stats_.punted;
      return decision;
    case Tier::kShedTenant:
      decision.admit = false;
      decision.drop_reason = dataplane::DropReason::kTenantShed;
      ++stats_.shed_tenant;
      return decision;
  }
  return decision;
}

std::map<net::Vni, double> TenantGuard::interval_step(
    const std::map<net::Vni, Offered>& offered,
    std::vector<TenantInterval>& out, telemetry::Registry& registry) {
  std::map<net::Vni, double> fractions;
  // A tenant metered only by the default budget has no state until it is
  // first seen; an interval that offers its load is that first sight.
  if (has_default_limit_) {
    for (const auto& [vni, load] : offered) state_for(vni);
  }
  if (tenants_.empty()) return fractions;

  telemetry::Counter& ctr_over = registry.counter("guard.interval.over");
  telemetry::Counter& ctr_esc =
      registry.counter("guard.interval.escalations");
  telemetry::Counter& ctr_deesc =
      registry.counter("guard.interval.deescalations");
  telemetry::Counter& ctr_shed_kpps =
      registry.counter("guard.interval.shed_kpps_sum");

  for (auto& [vni, state] : tenants_) {
    if (state.rate_bps <= 0 && state.rate_pps <= 0) continue;
    Offered load;
    if (auto it = offered.find(vni); it != offered.end()) load = it->second;

    const bool over = (state.rate_bps > 0 && load.bps > state.rate_bps) ||
                      (state.rate_pps > 0 && load.pps > state.rate_pps);
    const int moved = observe(state, over);
    if (over) ctr_over.add();
    if (moved > 0) ctr_esc.add();
    if (moved < 0) ctr_deesc.add();

    double fraction = 1.0;
    switch (state.tier) {
      case Tier::kFull:
        break;
      case Tier::kShedNewFlows: {
        // Clamp the tenant to its budget: the excess models the new-flow
        // setup load tier 1 sheds while established flows keep flowing.
        double f_bps = 1.0;
        double f_pps = 1.0;
        if (state.rate_bps > 0 && load.bps > state.rate_bps) {
          f_bps = state.rate_bps / load.bps;
        }
        if (state.rate_pps > 0 && load.pps > state.rate_pps) {
          f_pps = state.rate_pps / load.pps;
        }
        fraction = std::min(f_bps, f_pps);
        break;
      }
      case Tier::kShedTenant:
        fraction = 0.0;
        break;
    }
    fractions[vni] = fraction;

    TenantInterval summary;
    summary.vni = vni;
    summary.offered_pps = load.pps;
    summary.offered_bps = load.bps;
    summary.shed_pps = load.pps * (1.0 - fraction);
    summary.tier = state.tier;
    out.push_back(summary);
    ctr_shed_kpps.add(static_cast<std::uint64_t>(summary.shed_pps / 1e3));
  }
  return fractions;
}

}  // namespace sf::guard
