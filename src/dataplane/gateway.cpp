#include "dataplane/gateway.hpp"

#include <stdexcept>

namespace sf::dataplane {

namespace {

std::vector<std::uint32_t> identity_indices(std::size_t n) {
  std::vector<std::uint32_t> indices(n);
  for (std::size_t i = 0; i < n; ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  return indices;
}

}  // namespace

void Gateway::process_batch(std::span<const net::OverlayPacket> packets,
                            double now, std::span<Verdict> out) {
  process_batch_indexed(packets, {}, identity_indices(packets.size()), now,
                        out);
}

void Gateway::process_batch(std::span<const net::OverlayPacket> packets,
                            std::span<const std::uint64_t> flow_hashes,
                            double now, std::span<Verdict> out) {
  if (flow_hashes.size() != packets.size()) {
    throw std::invalid_argument(
        "process_batch: flow_hashes.size() must equal packets.size()");
  }
  process_batch_indexed(packets, flow_hashes,
                        identity_indices(packets.size()), now, out);
}

void Gateway::process_batch_indexed(
    std::span<const net::OverlayPacket> packets,
    std::span<const std::uint64_t> flow_hashes,
    std::span<const std::uint32_t> indices, double now,
    std::span<Verdict> out) {
  (void)flow_hashes;
  if (out.size() < packets.size()) {
    throw std::invalid_argument(
        "process_batch_indexed: output span smaller than the packet array");
  }
  for (const std::uint32_t i : indices) {
    if (i >= packets.size()) {
      throw std::out_of_range(
          "process_batch_indexed: index past the packet array");
    }
  }
  for (const std::uint32_t i : indices) {
    out[i] = process(packets[i], now);
  }
}

std::vector<Verdict> Gateway::process_batch(
    std::span<const net::OverlayPacket> packets, double now) {
  std::vector<Verdict> verdicts(packets.size());
  process_batch(packets, now, verdicts);
  return verdicts;
}

}  // namespace sf::dataplane
