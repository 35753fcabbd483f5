// Metric arithmetic of the perf ledger: medians, quartile spreads and the
// derived per-layer ratios. Pure functions, unit-tested in
// tests/ledger_test.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
double median(std::vector<double> values);

/// `num / den`, or 0 when `den` is 0 (a metric whose base did not occur).
double ratio(double num, double den);

/// Kernel events per channel flit traversal: the simulator's cost per
/// modelled hop.
double events_per_hop(std::uint64_t events, std::uint64_t channel_flits);

/// Share of ejected copies among all copies a node produced: ejected /
/// (ejected + throttled). Below 1 where speculation sends copies that a
/// later node kills.
double useful_copy_ratio(std::uint64_t ejected, std::uint64_t throttled);

/// Measured parallel speedup: sequential run time over partitioned run
/// time of the same cell.
double wall_speedup(double sequential_run_s, double partitioned_run_s);

/// Model speedup of a partitioned run: total events over the largest
/// per-worker share, with lanes dealt to workers in static contiguous
/// blocks as the partitioned kernel assigns them. Blind to barrier, drain
/// and lock cost, so it is an upper bound, kept beside the measured value.
double model_speedup(const std::vector<std::uint64_t>& lane_events,
                     unsigned workers);

/// Largest lane's events over the mean lane's events (1 = balanced).
double lane_imbalance(const std::vector<std::uint64_t>& lane_events);

}  // namespace perfbench
