// sf::guard — per-tenant overload protection (DESIGN.md §10).
//
// One ASIC serves millions of tenants; nothing in the hardware stops a
// single tenant from flooding the region and starving everyone else.
// TenantGuard is the noisy-neighbor defense in front of Gateway::process:
// token-bucket byte/pps meters per tenant (VNI) driving a three-tier
// degradation ladder —
//
//   tier 0 (full service)     every packet served normally;
//   tier 1 (shed new flows)   packets of ESTABLISHED flows (present in the
//                             serving device's FlowCache) are served;
//                             everything else is punted to the paired
//                             XGW-x86 or, with no punt path, shed with a
//                             typed reason;
//   tier 2 (shed tenant)      the tenant is shed outright.
//
// Escalation is hysteretic: `escalate_after` consecutive over-limit
// observations move a tenant one tier up, `deescalate_after` consecutive
// conforming observations move it one tier down. On the functional path an
// observation is a packet against the token buckets; on the interval path
// it is one simulate_interval() step comparing the tenant's offered rate
// to its budget.
//
// Determinism: every ladder is per tenant, kept in one ordered map, so the
// interval step walks tenants in ascending VNI order and its summaries and
// counters come out in one fixed order at any thread count. The region
// calls it once per interval, from one thread.
//
// A region builds a guard only when SailfishRegion::Config::enable_guard
// asks for one; without it nothing is constructed and no counters
// register.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataplane/verdict.hpp"
#include "net/headers.hpp"
#include "telemetry/registry.hpp"

namespace sf::guard {

/// The degradation ladder.
enum class Tier : std::uint8_t {
  kFull = 0,
  kShedNewFlows = 1,
  kShedTenant = 2,
};

const char* name(Tier tier);
std::string to_string(Tier tier);

/// One tenant's sustained budget. A zero rate means "unlimited" on that
/// axis; a tenant with both rates zero is never metered (the guard is
/// transparent for it).
struct TenantLimit {
  net::Vni vni = 0;
  double rate_bps = 0;
  double rate_pps = 0;
};

class TenantGuard {
 public:
  struct Config {
    /// Budgets applied to every tenant not listed in `tenants` (0 = that
    /// axis unlimited; both zero = unlisted tenants unmetered).
    double default_rate_bps = 0;
    double default_rate_pps = 0;
    /// Token-bucket depth, in seconds of sustained budget.
    double burst_seconds = 0.1;
    /// Consecutive over-limit observations before a tenant climbs one
    /// tier, and consecutive conforming observations before it descends
    /// one. Functional path: packets; interval path: intervals.
    unsigned escalate_after = 1;
    unsigned deescalate_after = 2;
    /// Explicit per-tenant budgets.
    std::vector<TenantLimit> tenants;
  };

  /// What to do with one packet (functional path).
  struct PacketDecision {
    Tier tier = Tier::kFull;
    /// Serve on the normal (hardware-first) path.
    bool admit = true;
    /// Tier-1 non-established packet: serve via the punt path instead.
    bool punt = false;
    /// Set when neither admitted nor punted.
    dataplane::DropReason drop_reason = dataplane::DropReason::kNone;
  };

  /// One metered tenant's interval summary (interval path).
  struct TenantInterval {
    net::Vni vni = 0;
    double offered_pps = 0;
    double offered_bps = 0;
    double shed_pps = 0;
    Tier tier = Tier::kFull;
  };

  /// Offered rate of one tenant inside one interval.
  struct Offered {
    double pps = 0;
    double bps = 0;
  };

  /// Plain-struct observability (functional path). Kept outside any
  /// registry so an idle guard never perturbs telemetry snapshots.
  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t established_served = 0;
    std::uint64_t punted = 0;
    std::uint64_t shed_new_flow = 0;
    std::uint64_t shed_tenant = 0;
    std::uint64_t escalations = 0;
    std::uint64_t deescalations = 0;
  };

  explicit TenantGuard(Config config);

  /// Adds or replaces one tenant's budget at runtime (chaos storms arm the
  /// storm tenant this way). Ladder state for the VNI is reset.
  void set_limit(const TenantLimit& limit);

  /// True when any tenant could ever be metered — false means the guard is
  /// fully transparent and callers skip it outright.
  bool any_limits() const;

  bool metered(net::Vni vni) const;

  /// Functional path: meters one packet. `established` is consulted only
  /// when a tier-1 decision needs it (it probes the serving device's flow
  /// cache, which costs a hash).
  PacketDecision admit_packet(net::Vni vni, std::size_t wire_bytes,
                              double now,
                              const std::function<bool()>& established);

  /// Interval path, called once per simulate_interval. `offered` carries
  /// this interval's offered rates per tenant; a tenant it names that only
  /// the default budget meters gets its ladder here, as admit_packet would
  /// give it one. Known tenants absent from the map are stepped as
  /// conforming (that is how a storm tenant walks back down the ladder
  /// after its flows vanish). Appends one
  /// TenantInterval per metered tenant to `out` (ascending VNI), records
  /// ladder moves and shed totals into `registry` ("guard.*" counters),
  /// and returns each tenant's admit fraction in [0, 1].
  std::map<net::Vni, double> interval_step(
      const std::map<net::Vni, Offered>& offered,
      std::vector<TenantInterval>& out, telemetry::Registry& registry);

  Tier tier_of(net::Vni vni) const;
  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }

 private:
  struct TenantState {
    double rate_bps = 0;
    double rate_pps = 0;
    // Functional-path token buckets.
    double byte_tokens = 0;
    double packet_tokens = 0;
    double tokens_time = 0;
    bool primed = false;
    Tier tier = Tier::kFull;
    unsigned over_streak = 0;
    unsigned conform_streak = 0;
  };

  TenantState* state_for(net::Vni vni);
  const TenantState* state_for(net::Vni vni) const;
  /// Steps the ladder with one observation; returns +1/-1/0 tier delta.
  int observe(TenantState& state, bool over);

  Config config_;
  std::map<net::Vni, TenantState> tenants_;  // ordered: stable iteration
  bool has_default_limit_ = false;
  Stats stats_;
};

}  // namespace sf::guard
