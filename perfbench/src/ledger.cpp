#include "ledger.h"

#include <algorithm>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double events_per_hop(std::uint64_t events, std::uint64_t channel_flits) {
  return ratio(static_cast<double>(events),
               static_cast<double>(channel_flits));
}

double useful_copy_ratio(std::uint64_t ejected, std::uint64_t throttled) {
  return ratio(static_cast<double>(ejected),
               static_cast<double>(ejected + throttled));
}

double wall_speedup(double sequential_run_s, double partitioned_run_s) {
  return ratio(sequential_run_s, partitioned_run_s);
}

double model_speedup(const std::vector<std::uint64_t>& lane_events,
                     unsigned workers) {
  const std::size_t lanes = lane_events.size();
  if (lanes == 0 || workers == 0) return 0.0;
  std::uint64_t max_share = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t first = w * lanes / workers;
    const std::size_t last = (w + 1) * lanes / workers;
    const std::uint64_t share = std::accumulate(
        lane_events.begin() + static_cast<std::ptrdiff_t>(first),
        lane_events.begin() + static_cast<std::ptrdiff_t>(last),
        std::uint64_t{0});
    max_share = std::max(max_share, share);
  }
  const std::uint64_t total = std::accumulate(
      lane_events.begin(), lane_events.end(), std::uint64_t{0});
  return ratio(static_cast<double>(total), static_cast<double>(max_share));
}

double lane_imbalance(const std::vector<std::uint64_t>& lane_events) {
  if (lane_events.empty()) return 0.0;
  const std::uint64_t total = std::accumulate(
      lane_events.begin(), lane_events.end(), std::uint64_t{0});
  const std::uint64_t largest =
      *std::max_element(lane_events.begin(), lane_events.end());
  return ratio(static_cast<double>(largest),
               static_cast<double>(total) /
                   static_cast<double>(lane_events.size()));
}

}  // namespace perfbench
