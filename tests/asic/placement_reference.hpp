// Naive reference interpreter for the placer (DESIGN.md §16).
//
// An independent, deliberately simple re-implementation of the §4.4
// placement rules: per-pipe free-unit counters only (no stages, no
// ChipMemory), tables walked path-major in demand order, each chain built
// by the documented spill sequence — preferred pipe, path sibling, back on
// the preferred pipe (balanced overflow), then cross-path pipes when (f)
// is enabled, remainder unplaced and charged to the preferred pipe. The
// differential tests replay workloads and packets through this and
// through the real placer and FATAL on any divergence, so the hot path
// can be refactored without fear.

#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "asic/chip_config.hpp"
#include "asic/memory.hpp"
#include "asic/placer.hpp"

namespace sf::asic::testref {

struct Span {
  unsigned pipe = 0;
  std::size_t units = 0;
};

struct NaiveChain {
  std::vector<Span> spans;  // allocation (= lookup fallback) order
  std::size_t placed = 0;
  std::size_t unplaced = 0;
};

struct NaiveLayout {
  std::vector<std::vector<unsigned>> paths;
  std::vector<TableDemand> demands;       // unsharded bills
  std::vector<std::size_t> sram_bill;     // per-path bill after sharding
  std::vector<std::size_t> tcam_bill;
  std::vector<std::vector<NaiveChain>> sram;  // [table][path]
  std::vector<std::vector<NaiveChain>> tcam;
  std::vector<std::size_t> sram_pipe;  // demand incl. unplaced overflow
  std::vector<std::size_t> tcam_pipe;
  bool feasible = true;

  const NaiveChain& chain(std::size_t table, std::size_t path,
                          MemoryKind kind) const {
    return kind == MemoryKind::kSram ? sram[table][path] : tcam[table][path];
  }
  std::size_t bill(std::size_t table, MemoryKind kind) const {
    return kind == MemoryKind::kSram ? sram_bill[table] : tcam_bill[table];
  }
  std::optional<unsigned> locate(std::size_t table, std::size_t path,
                                 MemoryKind kind, std::size_t unit) const {
    const NaiveChain& c = chain(table, path, kind);
    if (unit >= c.placed) return std::nullopt;
    for (const Span& span : c.spans) {
      if (unit < span.units) return span.pipe;
      unit -= span.units;
    }
    return std::nullopt;
  }
};

inline NaiveLayout naive_place(const ChipConfig& chip,
                               const std::vector<TableDemand>& demands,
                               const CompressionConfig& config) {
  NaiveLayout out;
  if (config.fold) {
    for (unsigned p = 0; p + 1 < chip.pipelines; p += 2) {
      out.paths.push_back({p, p + 1});
    }
  } else {
    for (unsigned p = 0; p < chip.pipelines; ++p) out.paths.push_back({p});
  }
  const std::size_t npaths = out.paths.size();

  out.demands = demands;
  out.sram_bill.reserve(demands.size());
  out.tcam_bill.reserve(demands.size());
  for (const TableDemand& d : demands) {
    std::size_t sram = d.sram_words;
    std::size_t tcam = d.tcam_slices;
    if (config.split && d.shardable && npaths > 1) {
      sram = (sram + npaths - 1) / npaths;
      tcam = (tcam + npaths - 1) / npaths;
    }
    out.sram_bill.push_back(sram);
    out.tcam_bill.push_back(tcam);
  }
  out.sram.assign(demands.size(), std::vector<NaiveChain>(npaths));
  out.tcam.assign(demands.size(), std::vector<NaiveChain>(npaths));
  out.sram_pipe.assign(chip.pipelines, 0);
  out.tcam_pipe.assign(chip.pipelines, 0);

  std::vector<std::size_t> free_sram(chip.pipelines,
                                     chip.sram_words_per_pipeline());
  std::vector<std::size_t> free_tcam(chip.pipelines,
                                     chip.tcam_slices_per_pipeline());

  for (std::size_t path = 0; path < npaths; ++path) {
    const std::vector<unsigned>& pipes = out.paths[path];
    for (std::size_t t = 0; t < demands.size(); ++t) {
      const TableDemand& d = demands[t];
      const bool back_slot = d.slot == PathSlot::kBackEgress ||
                             d.slot == PathSlot::kBackIngress;
      const unsigned preferred = pipes[back_slot && pipes.size() > 1 ? 1 : 0];
      const unsigned other = pipes[pipes.size() > 1 ? (back_slot ? 0 : 1) : 0];
      const bool balanced =
          d.slot == PathSlot::kBalanced && pipes.size() > 1;

      for (auto [kind, units] :
           {std::pair{MemoryKind::kSram, out.sram_bill[t]},
            std::pair{MemoryKind::kTcam, out.tcam_bill[t]}}) {
        if (units == 0) continue;
        std::vector<std::size_t>& free =
            kind == MemoryKind::kSram ? free_sram : free_tcam;
        std::vector<std::size_t>& pipe_demand =
            kind == MemoryKind::kSram ? out.sram_pipe : out.tcam_pipe;
        NaiveChain& chain = kind == MemoryKind::kSram ? out.sram[t][path]
                                                      : out.tcam[t][path];
        const auto take_from = [&](unsigned pipe, std::size_t want) {
          const std::size_t taken = want < free[pipe] ? want : free[pipe];
          if (taken == 0) return std::size_t{0};
          free[pipe] -= taken;
          pipe_demand[pipe] += taken;
          chain.placed += taken;
          if (!chain.spans.empty() && chain.spans.back().pipe == pipe) {
            chain.spans.back().units += taken;
          } else {
            chain.spans.push_back({pipe, taken});
          }
          return taken;
        };

        const std::size_t want_first = balanced ? (units + 1) / 2 : units;
        std::size_t rest = units - take_from(preferred, want_first);
        if (rest > 0 && other != preferred) {
          rest -= take_from(other, rest);
          // A balanced table's own overflow may still fit back on the
          // first pipe.
          if (rest > 0) rest -= take_from(preferred, rest);
        }
        if (rest > 0 && config.cross_path_spill && npaths > 1) {
          for (std::size_t offset = 1; offset < npaths && rest > 0;
               ++offset) {
            const std::vector<unsigned>& cross =
                out.paths[(path + offset) % npaths];
            const unsigned same =
                cross[back_slot && cross.size() > 1 ? 1 : 0];
            rest -= take_from(same, rest);
            if (rest > 0 && cross.size() > 1) {
              rest -= take_from(cross[back_slot ? 0 : 1], rest);
            }
          }
        }
        if (rest > 0) {
          pipe_demand[preferred] += rest;
          chain.unplaced = rest;
          out.feasible = false;
        }
      }
    }
  }
  return out;
}

}  // namespace sf::asic::testref
