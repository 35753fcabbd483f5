// The perf ledger's four workloads. Each is a fixed cell set whose inputs
// are derived from the seed; a pass runs every cell once.
//
//  * paper_saturation — Table 1 throughput grid at n=8 (6 architectures x
//    6 benchmarks, backlogged, paper windows) through
//    ExperimentRunner::run_saturation_grid at jobs=1.
//  * paper_openloop — Fig. 6a/6b latency cells (6 x 6) and Table 1 power
//    cells (6 x 4) at n=8, at injected rates committed as constants
//    (open_loop_rates.h), through run_latency_sweep / run_power_sweep.
//  * radix1024 — OptHybridSpeculative at n=1024, UniformRandom and
//    Multicast10, backlogged with short windows, each cell once sequential
//    and once on 4 sim threads (partition auto).
//  * cmp64 — closed-loop CMP co-simulation at 64 processors, LU and
//    Barnes access streams on Baseline, OptHybridSpeculative and
//    OptAllSpeculative, through run_cmp_grid.
//
// An untraced pass measures what a user of those entry points waits for. A
// traced pass runs the same protocols through the library's public layer
// calls (network constructor, TrafficDriver::start, run_until / run) with
// forwarding probes in SimHooks, and returns per-layer numbers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reference.h"
#include "workload/synth.h"

namespace perfbench {

enum class WorkloadId : std::uint8_t {
  kPaperSaturation,
  kPaperOpenloop,
  kRadix1024,
  kCmp64,
};

const char* to_string(WorkloadId id);
std::optional<WorkloadId> workload_from_string(const std::string& name);

/// Host cost of one cell (host time = what the simulator takes).
struct CellTiming {
  double wall_s = 0.0;        ///< wall clock: the whole cell, setup included
  double setup_wall_s = 0.0;  ///< wall clock inside network construction
  double setup_s = 0.0;       ///< CPU of the constructing thread, same span
};

/// Host and simulated totals of one pass (simulated time = what the
/// modelled NoC would take).
struct PassTiming {
  double wall_s = 0.0;  ///< host wall clock: the whole pass
  double cpu_s = 0.0;   ///< host CPU of the process, all threads: the pass
  /// Simulated ns the cells cover: the protocol windows (warmup + measure)
  /// of network cells, the makespan of CMP cells. A latency cell's drain
  /// past its window is host time with no simulated credit.
  double sim_ns = 0.0;
  std::uint64_t events = 0;  ///< kernel events executed by all cells
  /// One entry per cell, in Pass::cells order (untraced passes only).
  std::vector<CellTiming> cells;
};

struct Pass {
  std::vector<CellResult> cells;
  PassTiming timing;
};

/// A traced pass plus its per-layer numbers, by metric name. The pass
/// carries its cells and its wall time only.
struct TracedPass {
  Pass pass;
  std::map<std::string, double> layers;
};

class Workload {
 public:
  /// Generates the workload's inputs from `seed` (CMP access streams are
  /// synthesized here, timed apart from every pass).
  Workload(WorkloadId id, std::uint64_t seed);

  double synth_s() const { return synth_s_; }

  Pass run_untraced() const;
  TracedPass run_traced() const;

 private:
  WorkloadId id_;
  std::uint64_t seed_;
  std::vector<std::shared_ptr<const specnoc::workload::AccessTrace>> access_;
  double synth_s_ = 0.0;
};

/// Every per-layer metric the traced run reports, with its unit, in output
/// order. Metrics a workload has no cell for read 0.
struct MetricName {
  std::string name;
  const char* unit;
};
std::vector<MetricName> layer_metrics();

}  // namespace perfbench
