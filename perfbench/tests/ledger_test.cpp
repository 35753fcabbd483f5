// Tests of the perf ledger's own arithmetic and result checks.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "ledger.h"
#include "probes.h"
#include "reference.h"
#include "util/error.h"
#include "util/json.h"

namespace perfbench {
namespace {

TEST(LedgerArithmetic, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(LedgerArithmetic, EventsPerHop) {
  EXPECT_DOUBLE_EQ(events_per_hop(400, 100), 4.0);
  EXPECT_DOUBLE_EQ(events_per_hop(7, 0), 0.0);  // no hop: no ratio
}

TEST(LedgerArithmetic, UsefulCopyRatio) {
  EXPECT_DOUBLE_EQ(useful_copy_ratio(30, 10), 0.75);
  EXPECT_DOUBLE_EQ(useful_copy_ratio(30, 0), 1.0);  // nothing throttled
  EXPECT_DOUBLE_EQ(useful_copy_ratio(0, 0), 0.0);
}

TEST(LedgerArithmetic, WallSpeedupIsSequentialOverPartitioned) {
  EXPECT_DOUBLE_EQ(wall_speedup(8.0, 2.0), 4.0);
  EXPECT_DOUBLE_EQ(wall_speedup(8.0, 0.0), 0.0);
}

TEST(LedgerArithmetic, ModelSpeedupUsesContiguousLaneBlocks) {
  // 4 lanes on 2 workers: blocks {0,1} = 30 and {2,3} = 10 events.
  EXPECT_DOUBLE_EQ(model_speedup({10, 20, 5, 5}, 2), 40.0 / 30.0);
  // Perfect balance reaches the worker count.
  EXPECT_DOUBLE_EQ(model_speedup({5, 5, 5, 5}, 4), 4.0);
  // More workers than lanes: empty blocks add nothing.
  EXPECT_DOUBLE_EQ(model_speedup({6, 2}, 4), 8.0 / 6.0);
  EXPECT_DOUBLE_EQ(model_speedup({}, 4), 0.0);
}

TEST(LedgerArithmetic, LaneImbalanceIsMaxOverMean) {
  EXPECT_DOUBLE_EQ(lane_imbalance({10, 20, 30}), 1.5);
  EXPECT_DOUBLE_EQ(lane_imbalance({4, 4}), 1.0);
  EXPECT_DOUBLE_EQ(lane_imbalance({}), 0.0);
}

TEST(HookClock, NestedSpanIsChargedToTheInnerLayerOnly) {
  using std::chrono::milliseconds;
  HookClock clock;
  clock.span(HookLayer::kCmp, [&] {
    std::this_thread::sleep_for(milliseconds(1));
    clock.span(HookLayer::kStats,
               [] { std::this_thread::sleep_for(milliseconds(50)); });
  });
  EXPECT_EQ(clock.calls(HookLayer::kCmp), 1u);
  EXPECT_EQ(clock.calls(HookLayer::kStats), 1u);
  EXPECT_GE(clock.self_s(HookLayer::kStats), 0.050);
  EXPECT_GE(clock.self_s(HookLayer::kCmp), 0.001);
  // Counting the inner 50 ms in the outer layer too would put it above.
  EXPECT_LT(clock.self_s(HookLayer::kCmp), 0.050);
  EXPECT_DOUBLE_EQ(clock.total_s(), clock.self_s(HookLayer::kCmp) +
                                        clock.self_s(HookLayer::kStats));
  // Net time never goes below zero, whatever the calibrated span cost.
  EXPECT_GE(clock.net_self_s(HookLayer::kPower), 0.0);
  EXPECT_GT(HookClock::empty_span_s(), 0.0);
}

std::vector<CellResult> sample_cells() {
  return {{"sat/Baseline/UniformRandom",
           {{"delivered_flits_per_ns", 1.25}, {"injected_flits_per_ns", 1.5}},
           {}},
          {"lat/Baseline/Hotspot", {{"mean_latency_ns", 3.0625}}, {}}};
}

TEST(ReferenceCheck, IdenticalResultsPass) {
  std::vector<std::string> diagnostics;
  const auto cells = sample_cells();
  EXPECT_EQ(count_failed(cells, as_reference(cells), diagnostics), 0u);
  EXPECT_TRUE(diagnostics.empty());
}

TEST(ReferenceCheck, PerturbedReferenceValueIsAFailedCell) {
  const auto cells = sample_cells();
  ReferenceSet reference = as_reference(cells);
  // One ulp is enough: results are compared exactly.
  double& pinned = reference["lat/Baseline/Hotspot"][0].second;
  pinned = std::nextafter(pinned, 10.0);
  std::vector<std::string> diagnostics;
  EXPECT_EQ(count_failed(cells, reference, diagnostics), 1u);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NE(diagnostics[0].find("lat/Baseline/Hotspot"), std::string::npos);
}

TEST(ReferenceCheck, MissingReferenceAndOwnErrorsFail) {
  auto cells = sample_cells();
  ReferenceSet reference = as_reference(cells);
  reference.erase("sat/Baseline/UniformRandom");
  cells[1].error = "did not drain";
  std::vector<std::string> diagnostics;
  EXPECT_EQ(count_failed(cells, reference, diagnostics), 2u);
}

TEST(ReferenceCheck, FileRoundTripIsExact) {
  auto cells = sample_cells();
  cells[0].values[0].second = 0.1 + 0.2;  // not representable in short form
  const std::string text =
      specnoc::util::json_write(reference_to_json("w", 42, cells));
  const ReferenceSet back =
      reference_from_json(specnoc::util::json_parse(text), "w", 42);
  EXPECT_EQ(back, as_reference(cells));
  EXPECT_THROW(reference_from_json(specnoc::util::json_parse(text), "w", 7),
               specnoc::ConfigError);
  EXPECT_THROW(reference_from_json(specnoc::util::json_parse(text), "x", 42),
               specnoc::ConfigError);
}

}  // namespace
}  // namespace perfbench
