#include "dpu/xgw_dpu.hpp"

namespace sf::dpu {

XgwDpu::XgwDpu(Config config)
    : config_(config), registry_(std::make_unique<telemetry::Registry>()) {
  if (config_.flow_table_entries == 0) config_.flow_table_entries = 1;
  ctr_packets_in_ = &registry_->counter("dpu.packets_in");
  ctr_bytes_in_ = &registry_->counter("dpu.bytes_in");
  ctr_forwarded_ = &registry_->counter("dpu.packets_forwarded");
  ctr_misses_ = &registry_->counter("dpu.misses");
  ctr_flow_installs_ = &registry_->counter("dpu.flow_installs");
  ctr_flow_removes_ = &registry_->counter("dpu.flow_removes");
  ctr_invalidations_ = &registry_->counter("dpu.invalidations");
  hist_latency_ = &registry_->histogram(
      "dpu.latency_us", telemetry::Histogram::Config{
                            /*min_value=*/1.0, /*growth=*/2.0,
                            /*buckets=*/16, /*reservoir=*/256});
}

dataplane::Verdict XgwDpu::process(const net::OverlayPacket& packet,
                                   double /*now*/) {
  ctr_packets_in_->add();
  ctr_bytes_in_->add(packet.wire_size());
  if (!failed_) {
    auto it = flows_.find({packet.vni, packet.inner});
    if (it != flows_.end()) {
      dataplane::Verdict verdict;
      verdict.action = it->second.action;
      verdict.packet = packet;
      verdict.packet.outer_src_ip = net::IpAddr(config_.device_ip);
      verdict.packet.outer_dst_ip = it->second.outer_dst;
      verdict.latency_us = config_.base_latency_us;
      ctr_forwarded_->add();
      hist_latency_->record(verdict.latency_us);
      return verdict;
    }
  }
  // Miss (or dead box): hand the packet back to the region, which
  // continues down the punt path as if this tier did not exist.
  ctr_misses_->add();
  dataplane::Verdict verdict;
  verdict.action = dataplane::Action::kFallbackToX86;
  verdict.packet = packet;
  return verdict;
}

dataplane::TableOpStatus XgwDpu::install_flow(net::Vni vni,
                                              const net::FiveTuple& tuple,
                                              FlowEntry entry) {
  if (failed_) return dataplane::TableOpStatus::kRateLimited;
  auto it = flows_.find({vni, tuple});
  if (it != flows_.end()) {
    it->second = entry;  // refresh in place
    return dataplane::TableOpStatus::kDuplicate;
  }
  if (flows_.size() >= config_.flow_table_entries) {
    return dataplane::TableOpStatus::kCapacityExceeded;
  }
  flows_.emplace(FlowId{vni, tuple}, entry);
  ctr_flow_installs_->add();
  return dataplane::TableOpStatus::kOk;
}

dataplane::TableOpStatus XgwDpu::remove_flow(net::Vni vni,
                                             const net::FiveTuple& tuple) {
  if (flows_.erase({vni, tuple}) == 0) {
    return dataplane::TableOpStatus::kNotFound;
  }
  ctr_flow_removes_->add();
  return dataplane::TableOpStatus::kOk;
}

bool XgwDpu::has_flow(net::Vni vni, const net::FiveTuple& tuple) const {
  return !failed_ && flows_.contains({vni, tuple});
}

double XgwDpu::occupancy() const {
  return static_cast<double>(flows_.size()) /
         static_cast<double>(config_.flow_table_entries);
}

std::size_t XgwDpu::evict_vni(net::Vni vni) {
  std::size_t evicted = 0;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (it->first.first == vni) {
      it = flows_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) ctr_invalidations_->add(evicted);
  return evicted;
}

dataplane::BatchResult XgwDpu::apply(const dataplane::TableOpBatch& batch) {
  dataplane::BatchResult result;
  for (const dataplane::TableOp& op : batch.ops) {
    evict_vni(op.kind == dataplane::TableOp::Kind::kAddMapping ||
                      op.kind == dataplane::TableOp::Kind::kDelMapping
                  ? op.mapping_key.vni
                  : op.vni);
    result.record(dataplane::TableOpStatus::kOk);
  }
  return result;
}

void XgwDpu::set_failed(bool failed) {
  if (failed && !failed_) flows_.clear();  // SRAM state is gone
  failed_ = failed;
}

}  // namespace sf::dpu
