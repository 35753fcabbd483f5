// Forwarding observers the traced run installs in noc::SimHooks. Each probe
// counts the events it sees and times the observer it forwards to, so the
// per-layer numbers are measured from outside the library.
//
// Threading: in a partitioned run the network serializes every hook call
// behind one mutex (noc/network.cpp), and the probes sit inside that lock,
// so their counters need no synchronization of their own. The time they
// record therefore excludes waiting for that lock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "noc/hooks.h"

namespace perfbench {

using specnoc::LengthUm;
using specnoc::TimePs;

/// Observer layers whose hook time the probes attribute.
enum class HookLayer : std::uint8_t { kStats, kPower, kCmp };
inline constexpr std::size_t kHookLayers = 3;

/// Self time and call counts per hook layer. A span nested in another
/// (CmpSystem forwarding to its downstream recorder) is subtracted from the
/// outer span, so each layer reports time spent in its own code.
class HookClock {
 public:
  template <typename F>
  void span(HookLayer layer, F&& call) {
    double child_s = 0.0;
    double* const parent = open_child_;
    open_child_ = &child_s;
    const auto start = std::chrono::steady_clock::now();
    call();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    open_child_ = parent;
    if (parent != nullptr) *parent += elapsed;
    const auto i = static_cast<std::size_t>(layer);
    self_s_[i] += elapsed - child_s;
    calls_[i] += 1;
  }

  double self_s(HookLayer layer) const {
    return self_s_[static_cast<std::size_t>(layer)];
  }
  /// self_s less the probe's own timer cost (calls x empty_span_s()), so
  /// a cheap hook is not reported at the price of two clock reads.
  double net_self_s(HookLayer layer) const;
  std::uint64_t calls(HookLayer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  /// Self time summed over every layer.
  double total_s() const;

  /// Time one span records around a callee that does nothing: the timer
  /// cost every recorded span includes. Calibrated once per process.
  static double empty_span_s();

 private:
  std::array<double, kHookLayers> self_s_{};
  std::array<std::uint64_t, kHookLayers> calls_{};
  double* open_child_ = nullptr;  ///< child-time accumulator of the open span
};

/// Times and counts a TrafficObserver (TrafficRecorder, CmpSystem).
class TrafficProbe final : public specnoc::noc::TrafficObserver {
 public:
  TrafficProbe(HookClock& clock, HookLayer layer,
               specnoc::noc::TrafficObserver& inner)
      : clock_(clock), layer_(layer), inner_(inner) {}

  void on_flit_ejected(const specnoc::noc::Packet& packet, std::uint32_t dest,
                       specnoc::noc::FlitKind kind, TimePs when) override;
  void on_packet_injected(const specnoc::noc::Packet& packet,
                          TimePs when) override;

  std::uint64_t flits_ejected() const { return flits_ejected_; }
  std::uint64_t packets_injected() const { return packets_injected_; }

 private:
  HookClock& clock_;
  HookLayer layer_;
  specnoc::noc::TrafficObserver& inner_;
  std::uint64_t flits_ejected_ = 0;
  std::uint64_t packets_injected_ = 0;
};

/// Counts switching activity per NodeOp and channel flit traversals, and
/// times the PowerMeter it forwards to (when there is one: saturation and
/// latency runs have no energy observer, and the probe only counts).
class EnergyProbe final : public specnoc::noc::EnergyObserver {
 public:
  EnergyProbe(HookClock& clock, specnoc::noc::EnergyObserver* inner)
      : clock_(clock), inner_(inner) {}

  void on_node_op(const specnoc::noc::Node& node, specnoc::noc::NodeOp op,
                  TimePs when) override;
  void on_channel_flit(LengthUm length, TimePs when) override;

  std::uint64_t ops(specnoc::noc::NodeOp op) const {
    return ops_[static_cast<std::size_t>(op)];
  }
  std::uint64_t channel_flits() const { return channel_flits_; }

 private:
  HookClock& clock_;
  specnoc::noc::EnergyObserver* inner_;
  std::array<std::uint64_t, specnoc::noc::all_node_ops().size()> ops_{};
  std::uint64_t channel_flits_ = 0;
};

/// Times a MetricsObserver (the MetricsRegistry) as stats-layer work.
class MetricsProbe final : public specnoc::noc::MetricsObserver {
 public:
  MetricsProbe(HookClock& clock, specnoc::noc::MetricsObserver& inner)
      : clock_(clock), inner_(inner) {}

  void on_flit_killed(const specnoc::noc::Node& node,
                      const specnoc::noc::Flit& flit, TimePs when) override;
  void on_prealloc(const specnoc::noc::Node& node, bool hit,
                   TimePs when) override;
  void on_contended_grant(const specnoc::noc::Node& node,
                          TimePs when) override;
  void on_watchdog_release(const specnoc::noc::Node& node,
                           TimePs when) override;
  void on_channel_stall(const specnoc::noc::Channel& channel, TimePs start,
                        TimePs end) override;

 private:
  HookClock& clock_;
  specnoc::noc::MetricsObserver& inner_;
};

}  // namespace perfbench
