// The controller-facing table-programming interface, v2.
//
// v1 declared four install/remove virtuals; every layer (device, cluster
// fan-out, controller) re-implemented the same dispatch, and callers had
// no way to learn *when* an op became visible to forwarding. v2 narrows
// the virtual surface to a single `apply(TableOpBatch) -> BatchResult`:
// one override per implementation, typed per-op `TableOpStatus`, and the
// publish epoch — the table version at which the op took effect — so the
// epoch/RCU read path (rcu/epoch.hpp, DESIGN.md §13) can pin exactly the
// version a replay requires. Batching also matches the real control
// plane: the update channel moves coalesced transactions, not single
// entries (§2.3's install-speed pain).
//
// The v1 methods stay as thin non-virtual wrappers that build a one-op
// batch: the single-op convenience most call sites use. Implementations
// override only `apply`.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "net/ip.hpp"
#include "tables/entry.hpp"

namespace sf::dataplane {

enum class TableOpStatus : std::uint8_t {
  kOk = 0,            // state changed as requested
  kDuplicate,         // entry already present; action refreshed in place
  kNotFound,          // remove/update target absent (or unknown VNI)
  kCapacityExceeded,  // table full / digest conflict unresolvable
  kRateLimited,       // update channel budget exhausted; retry later
  kUnknownTarget,     // install target does not exist (decommission drift)
};

std::string to_string(TableOpStatus status);

/// True when the desired entry is present (install) or absent (remove)
/// after the call — the idempotent notion of success callers usually want.
constexpr bool succeeded(TableOpStatus status) {
  return status == TableOpStatus::kOk || status == TableOpStatus::kDuplicate;
}

/// One table operation, as the controller fans it out to install targets
/// (devices, mirrors, recovery replays).
struct TableOp {
  enum class Kind : std::uint8_t {
    kAddRoute,
    kDelRoute,
    kAddMapping,
    kDelMapping,
  };
  Kind kind = Kind::kAddRoute;
  net::Vni vni = 0;
  net::IpPrefix prefix;                    // routes
  tables::VxlanRouteAction route_action;   // routes
  tables::VmNcKey mapping_key;             // mappings
  tables::VmNcAction mapping_action;       // mappings
};

/// A table op stamped with its virtual apply-time: the index of the last
/// packet that must NOT yet observe it. Replaying the same stamped stream
/// yields the same per-packet table version at any thread count — the
/// deterministic mid-interval interleave (DESIGN.md §13).
struct TimedTableOp {
  TableOp op;
  std::uint64_t apply_index = 0;  // op visible to packets with index > this
};

/// An ordered transaction of table operations.
struct TableOpBatch {
  std::vector<TableOp> ops;

  TableOpBatch() = default;
  static TableOpBatch single(TableOp op) {
    TableOpBatch batch;
    batch.ops.push_back(std::move(op));
    return batch;
  }

  TableOpBatch& add(TableOp op) {
    ops.push_back(std::move(op));
    return *this;
  }
  TableOpBatch& add_route(net::Vni vni, const net::IpPrefix& prefix,
                          tables::VxlanRouteAction action) {
    TableOp op;
    op.kind = TableOp::Kind::kAddRoute;
    op.vni = vni;
    op.prefix = prefix;
    op.route_action = action;
    return add(op);
  }
  TableOpBatch& del_route(net::Vni vni, const net::IpPrefix& prefix) {
    TableOp op;
    op.kind = TableOp::Kind::kDelRoute;
    op.vni = vni;
    op.prefix = prefix;
    return add(op);
  }
  TableOpBatch& add_mapping(const tables::VmNcKey& key,
                            tables::VmNcAction action) {
    TableOp op;
    op.kind = TableOp::Kind::kAddMapping;
    op.vni = key.vni;
    op.mapping_key = key;
    op.mapping_action = action;
    return add(op);
  }
  TableOpBatch& del_mapping(const tables::VmNcKey& key) {
    TableOp op;
    op.kind = TableOp::Kind::kDelMapping;
    op.vni = key.vni;
    op.mapping_key = key;
    return add(op);
  }

  std::size_t size() const { return ops.size(); }
  bool empty() const { return ops.empty(); }
};

/// Outcome of one op within a batch.
struct TableOpResult {
  TableOpStatus status = TableOpStatus::kOk;
  /// Table version at which the op became visible to forwarding; 0 for
  /// targets without a versioned read path.
  std::uint64_t publish_epoch = 0;
};

/// Outcome of a whole batch, op-by-op in submission order.
struct BatchResult {
  std::vector<TableOpResult> results;
  /// Latest table version the batch published (0 when unversioned).
  std::uint64_t publish_epoch = 0;
  /// Count of ops whose status did not satisfy succeeded().
  std::size_t failed = 0;

  bool all_succeeded() const { return failed == 0; }

  /// Appends one op outcome, tracking failure count and publish epoch.
  void record(TableOpStatus status, std::uint64_t epoch = 0) {
    results.push_back(TableOpResult{status, epoch});
    if (!dataplane::succeeded(status)) ++failed;
    if (epoch > publish_epoch) publish_epoch = epoch;
  }

  /// Status of the only op of a single-op batch.
  TableOpStatus status() const {
    return results.empty() ? TableOpStatus::kNotFound
                           : results.front().status;
  }
};

/// The controller-facing table API every gateway implements. The two
/// tables are the paper's Fig. 2 pair: VXLAN routes (LPM) and VM-NC
/// mappings (exact). Implementations override `apply` only; the batch is
/// applied in order and never stops early — per-op statuses report
/// partial failure.
class TableProgrammer {
 public:
  virtual ~TableProgrammer() = default;

  virtual BatchResult apply(const TableOpBatch& batch) = 0;

  // ---- single-op wrappers (a batch of one through apply()) ----------

  TableOpStatus install_route(net::Vni vni, const net::IpPrefix& prefix,
                              tables::VxlanRouteAction action) {
    return apply(TableOpBatch().add_route(vni, prefix, action)).status();
  }
  TableOpStatus remove_route(net::Vni vni, const net::IpPrefix& prefix) {
    return apply(TableOpBatch().del_route(vni, prefix)).status();
  }
  TableOpStatus install_mapping(const tables::VmNcKey& key,
                                tables::VmNcAction action) {
    return apply(TableOpBatch().add_mapping(key, action)).status();
  }
  TableOpStatus remove_mapping(const tables::VmNcKey& key) {
    return apply(TableOpBatch().del_mapping(key)).status();
  }
};

/// Applies one fanned-out op to a target through the interface.
TableOpStatus apply(TableProgrammer& target, const TableOp& op);

}  // namespace sf::dataplane
