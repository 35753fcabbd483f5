#include "probes.h"

#include <algorithm>
#include <vector>

#include "ledger.h"

namespace perfbench {

using namespace specnoc::noc;

double HookClock::total_s() const {
  double total = 0.0;
  for (const double s : self_s_) total += s;
  return total;
}

double HookClock::net_self_s(HookLayer layer) const {
  return std::max(0.0, self_s(layer) - static_cast<double>(calls(layer)) *
                                           empty_span_s());
}

double HookClock::empty_span_s() {
  static const double cost = [] {
    constexpr int kSpans = 20000;
    std::vector<double> batches;
    for (int batch = 0; batch < 5; ++batch) {
      HookClock clock;
      for (int i = 0; i < kSpans; ++i) clock.span(HookLayer::kStats, [] {});
      batches.push_back(clock.total_s() / kSpans);
    }
    return median(batches);
  }();
  return cost;
}

void TrafficProbe::on_flit_ejected(const Packet& packet, std::uint32_t dest,
                                   FlitKind kind, TimePs when) {
  ++flits_ejected_;
  clock_.span(layer_,
              [&] { inner_.on_flit_ejected(packet, dest, kind, when); });
}

void TrafficProbe::on_packet_injected(const Packet& packet, TimePs when) {
  ++packets_injected_;
  clock_.span(layer_, [&] { inner_.on_packet_injected(packet, when); });
}

void EnergyProbe::on_node_op(const Node& node, NodeOp op, TimePs when) {
  ++ops_[static_cast<std::size_t>(op)];
  if (inner_ != nullptr) {
    clock_.span(HookLayer::kPower,
                [&] { inner_->on_node_op(node, op, when); });
  }
}

void EnergyProbe::on_channel_flit(LengthUm length, TimePs when) {
  ++channel_flits_;
  if (inner_ != nullptr) {
    clock_.span(HookLayer::kPower,
                [&] { inner_->on_channel_flit(length, when); });
  }
}

void MetricsProbe::on_flit_killed(const Node& node, const Flit& flit,
                                  TimePs when) {
  clock_.span(HookLayer::kStats,
              [&] { inner_.on_flit_killed(node, flit, when); });
}

void MetricsProbe::on_prealloc(const Node& node, bool hit, TimePs when) {
  clock_.span(HookLayer::kStats,
              [&] { inner_.on_prealloc(node, hit, when); });
}

void MetricsProbe::on_contended_grant(const Node& node, TimePs when) {
  clock_.span(HookLayer::kStats,
              [&] { inner_.on_contended_grant(node, when); });
}

void MetricsProbe::on_watchdog_release(const Node& node, TimePs when) {
  clock_.span(HookLayer::kStats,
              [&] { inner_.on_watchdog_release(node, when); });
}

void MetricsProbe::on_channel_stall(const Channel& channel, TimePs start,
                                    TimePs end) {
  clock_.span(HookLayer::kStats,
              [&] { inner_.on_channel_stall(channel, start, end); });
}

}  // namespace perfbench
