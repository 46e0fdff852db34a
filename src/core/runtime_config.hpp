// sf::core::RuntimeConfig — the process's two runtime knobs, parsed once.
//
// Both are throughput knobs: CI sweeps each against its default and
// requires every figure/table bench's output to stay byte-identical.
//
//   SF_FLOW_CACHE   unset → 4096 entries; "0"/"off"/"OFF" → disabled;
//                   numeric → that many entries; other → 4096. Devices
//                   take their default flow-cache capacity from it
//                   (dataplane::default_flow_cache_entries()).
//   SF_BATCH        unset → 32-packet bursts in the sharded engine;
//                   "0"/"off"/"OFF"/"1" → scalar-shaped one-packet bursts;
//                   numeric → that burst size.
//
// `process()` latches on first use: set the environment before anything
// reads it. `from_env()` re-parses every call — for tests that exercise
// the parser itself without disturbing the latch.

#pragma once

#include <cstddef>

namespace sf::core {

struct RuntimeConfig {
  /// Flow-cache capacity devices default to (0 disables the fast path).
  std::size_t flow_cache_entries = std::size_t{1} << 12;
  /// Burst size of the sharded engine's batched packet path (min 1; 1
  /// degenerates to the scalar shape). Results are identical at any value
  /// — this is purely a throughput knob.
  std::size_t batch_size = 32;

  /// Fresh parse of SF_FLOW_CACHE / SF_BATCH (no latch).
  static RuntimeConfig from_env();

  /// The process-wide config: from_env(), latched on first use.
  static const RuntimeConfig& process();
};

}  // namespace sf::core
