#include <gtest/gtest.h>

#include <optional>

#include "asic/memory.hpp"
#include "asic/phv.hpp"

namespace sf::asic {
namespace {

TEST(ChipConfig, DerivedGeometryMatchesCalibration) {
  const ChipConfig chip;
  EXPECT_EQ(chip.sram_words_per_pipeline(), 12u * 70 * 2048);
  EXPECT_EQ(chip.tcam_slices_per_pipeline(), 12u * 26 * 2048);
}

TEST(ChipConfig, TcamCostFollowsSliceWidth) {
  const ChipConfig chip;
  EXPECT_EQ(chip.tcam_slices_per_entry(56), 2u);    // VNI + v4
  EXPECT_EQ(chip.tcam_slices_per_entry(152), 4u);   // VNI + v6
  EXPECT_EQ(chip.tcam_slices_per_entry(153), 4u);   // pooled
  EXPECT_EQ(chip.tcam_slices_per_entry(44), 1u);
  EXPECT_EQ(chip.tcam_slices_per_entry(45), 2u);
}

TEST(ChipConfig, SramCostAppliesWideKeyRule) {
  const ChipConfig chip;
  EXPECT_EQ(chip.sram_words_per_entry(56, 32), 1u);    // v4 VM-NC
  EXPECT_EQ(chip.sram_words_per_entry(152, 32), 4u);   // v6 VM-NC: 2x2
  EXPECT_EQ(chip.sram_words_per_entry(57, 32), 1u);    // pooled digest
}

TEST(ChipConfig, LatencyModel) {
  const ChipConfig chip;
  // One pass ~1.08us; folded (2 passes) lands in the paper's 2.17-2.31us
  // band across 128..1024B packets.
  EXPECT_NEAR(chip.latency_us(2, 128), 2.18, 0.05);
  EXPECT_NEAR(chip.latency_us(2, 1024), 2.31, 0.05);
  EXPECT_LT(chip.latency_us(1, 256), chip.latency_us(2, 256));
}

TEST(ChipMemory, AllocatesAcrossStages) {
  const ChipConfig chip;
  ChipMemory memory(chip);
  // Two stages' worth of SRAM must split into two extents.
  const std::size_t request = chip.sram_words_per_stage() + 100;
  auto extents = memory.allocate(0, MemoryKind::kSram, request, "t");
  ASSERT_TRUE(extents.has_value());
  ASSERT_EQ(extents->size(), 2u);
  EXPECT_EQ((*extents)[0].units, chip.sram_words_per_stage());
  EXPECT_EQ((*extents)[1].units, 100u);
  EXPECT_EQ(memory.used_units(0, MemoryKind::kSram), request);
}

TEST(ChipMemory, PipelinesAreIsolated) {
  const ChipConfig chip;
  ChipMemory memory(chip);
  ASSERT_TRUE(memory.allocate(0, MemoryKind::kSram,
                              chip.sram_words_per_pipeline(), "fill"));
  // Pipeline 0 is full; pipeline 1 is untouched.
  EXPECT_FALSE(
      memory.allocate(0, MemoryKind::kSram, 1, "overflow").has_value());
  EXPECT_TRUE(memory.allocate(1, MemoryKind::kSram, 1, "ok").has_value());
}

TEST(ChipMemory, ReleaseReturnsUnits) {
  const ChipConfig chip;
  ChipMemory memory(chip);
  auto extents = memory.allocate(2, MemoryKind::kTcam, 5000, "t");
  ASSERT_TRUE(extents.has_value());
  EXPECT_EQ(memory.used_units(2, MemoryKind::kTcam), 5000u);
  memory.release(*extents);
  EXPECT_EQ(memory.used_units(2, MemoryKind::kTcam), 0u);
  EXPECT_EQ(memory.free_units(2, MemoryKind::kTcam),
            chip.tcam_slices_per_pipeline());
}

TEST(ChipMemory, OccupancyFraction) {
  const ChipConfig chip;
  ChipMemory memory(chip);
  memory.allocate(0, MemoryKind::kSram, chip.sram_words_per_pipeline() / 2,
                  "half");
  EXPECT_NEAR(memory.occupancy(0, MemoryKind::kSram), 0.5, 1e-9);
}

TEST(ChipMemory, ZeroAllocationSucceedsEmpty) {
  ChipMemory memory{ChipConfig{}};
  auto extents = memory.allocate(0, MemoryKind::kSram, 0, "empty");
  ASSERT_TRUE(extents.has_value());
  EXPECT_TRUE(extents->empty());
}

TEST(ChipMemory, BadPipelineThrows) {
  ChipMemory memory{ChipConfig{}};
  EXPECT_THROW(memory.allocate(99, MemoryKind::kSram, 1, "x"),
               std::out_of_range);
}

// Field ids for the Phv tests, as a program's field enum names them.
enum Field : FieldId { kA, kB, kC };

TEST(Phv, SetGetAndBudget) {
  Phv phv(64);
  phv.set(kA, 42, 32);
  EXPECT_EQ(phv.get(kA), 42u);
  EXPECT_EQ(phv.used_bits(), 32u);
  phv.set(kB, 7, 32);
  EXPECT_THROW(phv.set(kC, 1, 1), std::length_error);
  // Rewriting an existing field does not double-charge.
  phv.set(kA, 43, 32);
  EXPECT_EQ(phv.used_bits(), 64u);
  EXPECT_EQ(phv.get(kA), 43u);
}

TEST(Phv, CrossGressDropsUnbridgedFields) {
  enum : FieldId { kKeep, kLose };
  Phv phv(256);
  phv.set(kKeep, 1, 8, /*bridged=*/true);
  phv.set(kLose, 2, 8);
  const unsigned bridged = phv.cross_gress();
  EXPECT_EQ(bridged, 8u);
  EXPECT_TRUE(phv.has(kKeep));
  EXPECT_FALSE(phv.has(kLose));
}

TEST(Phv, BridgingLastsOneCrossing) {
  Phv phv(256);
  phv.set(kA, 1, 16, /*bridged=*/true);
  phv.cross_gress();
  ASSERT_TRUE(phv.has(kA));
  // Without re-bridging, the next crossing drops it.
  phv.cross_gress();
  EXPECT_FALSE(phv.has(kA));
}

TEST(Phv, BridgedBitsAccumulate) {
  Phv phv(256);
  phv.set(kA, 1, 24, true);
  phv.cross_gress();
  phv.bridge(kA);
  phv.cross_gress();
  EXPECT_EQ(phv.bridged_bits_total(), 48u);
}

TEST(Phv, RewritingABridgedFieldChargesItsNewWidthOnce) {
  Phv phv(256);
  phv.set(kA, 1, 8, /*bridged=*/true);
  phv.set(kA, 2, 16);  // a rewrite keeps the field's bridge mark
  phv.bridge(kA);      // marking it again adds nothing
  phv.set(kB, 3, 4);   // not bridged
  EXPECT_EQ(phv.cross_gress(), 16u);
  EXPECT_EQ(phv.get(kA), 2u);
  EXPECT_FALSE(phv.has(kB));
  EXPECT_EQ(phv.used_bits(), 16u);
}

TEST(Phv, HoldsAtMostMaxFields) {
  Phv phv(64 * kMaxPhvFields + 64);
  for (FieldId id = 0; id < kMaxPhvFields; ++id) phv.set(id, id, 64);
  EXPECT_THROW(phv.set(kMaxPhvFields, 1, 8), std::out_of_range);
  EXPECT_FALSE(phv.has(kMaxPhvFields));
  EXPECT_EQ(phv.get(kMaxPhvFields), std::nullopt);
  // The fields below the limit are untouched.
  for (FieldId id = 0; id < kMaxPhvFields; ++id) {
    EXPECT_EQ(phv.get(id), id);
  }
  EXPECT_EQ(phv.used_bits(), 64 * kMaxPhvFields);
}

TEST(Phv, RejectsBadWidths) {
  Phv phv(256);
  EXPECT_THROW(phv.set(kA, 0, 0), std::invalid_argument);
  EXPECT_THROW(phv.set(kB, 0, 65), std::invalid_argument);
  EXPECT_FALSE(phv.has(kA));
  EXPECT_FALSE(phv.has(kB));
}

}  // namespace
}  // namespace sf::asic
