#include "workloads.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <optional>

#include "cmp/access_source.h"
#include "cmp/system.h"
#include "core/mot_network.h"
#include "host.h"
#include "ledger.h"
#include "noc/dest_set.h"
#include "open_loop_rates.h"
#include "power/power_meter.h"
#include "probes.h"
#include "sim/partitioned_scheduler.h"
#include "stats/experiment.h"
#include "stats/metrics.h"
#include "stats/recorder.h"
#include "stats/serialization.h"
#include "traffic/driver.h"
#include "util/json.h"

namespace perfbench {

using namespace specnoc;
using namespace specnoc::literals;

namespace {

using Clock = std::chrono::steady_clock;
using core::Architecture;
using traffic::BenchmarkId;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `call`, adding its host time to `*total` when `total` is set.
template <typename F>
void timed(double* total, F&& call) {
  const auto start = Clock::now();
  call();
  if (total != nullptr) *total += since(start);
}

constexpr std::uint32_t kPaperRadix = 8;

constexpr std::uint32_t kRadix = 1024;
constexpr unsigned kRadixThreads = 4;
constexpr Architecture kRadixArch = Architecture::kOptHybridSpeculative;
constexpr std::array<BenchmarkId, 2> kRadixBenches = {
    BenchmarkId::kUniformRandom, BenchmarkId::kMulticast10};
// Short windows: the backlogged start-up at n=1024 is event-dense (the
// sequential Multicast10 cell executes ~10M events in these 6 ns), and
// network construction already costs more host time than the run.
constexpr traffic::SimWindows kRadixWindows{.warmup = 2_ns,
                                            .measure = 4_ns};

constexpr std::uint32_t kCmpProcs = 64;
constexpr std::array<Architecture, 3> kCmpArchs = {
    Architecture::kBaseline, Architecture::kOptHybridSpeculative,
    Architecture::kOptAllSpeculative};

// Table 1's power columns.
constexpr std::array<BenchmarkId, 4> kPowerBenches = {
    BenchmarkId::kUniformRandom, BenchmarkId::kHotspot,
    BenchmarkId::kMulticast5, BenchmarkId::kMulticast10};

core::NetworkConfig network_config(std::uint32_t n, unsigned sim_threads) {
  core::NetworkConfig config;
  config.n = n;
  config.sim_threads = sim_threads;
  return config;
}

std::size_t index_of(BenchmarkId bench) {
  const auto all = traffic::all_benchmarks();
  return static_cast<std::size_t>(
      std::find(all.begin(), all.end(), bench) - all.begin());
}

std::size_t index_of(Architecture arch) {
  const auto all = core::all_architectures();
  return static_cast<std::size_t>(
      std::find(all.begin(), all.end(), arch) - all.begin());
}

double window_ns(const traffic::SimWindows& windows) {
  return ps_to_ns(windows.warmup + windows.measure);
}

/// One network cell of the n=8 or n=1024 workloads.
struct NetCell {
  std::string label;
  Architecture arch = Architecture::kBaseline;
  BenchmarkId bench = BenchmarkId::kUniformRandom;
  double rate = 0.0;  ///< injected flits/ns/source (open-loop cells)
  traffic::SimWindows windows;
  std::uint32_t n = kPaperRadix;
  unsigned sim_threads = 1;
};

std::string cell_label(const char* kind, Architecture arch,
                       const std::string& what) {
  return std::string(kind) + "/" + core::to_string(arch) + "/" + what;
}

std::vector<NetCell> saturation_cells() {
  std::vector<NetCell> cells;
  for (const Architecture arch : core::all_architectures()) {
    for (const BenchmarkId bench : traffic::all_benchmarks()) {
      cells.push_back({cell_label("sat", arch, traffic::to_string(bench)),
                       arch, bench, 0.0,
                       stats::ExperimentRunner::saturation_windows()});
    }
  }
  return cells;
}

std::vector<NetCell> latency_cells() {
  std::vector<NetCell> cells;
  for (const Architecture arch : core::all_architectures()) {
    for (const BenchmarkId bench : traffic::all_benchmarks()) {
      cells.push_back({cell_label("lat", arch, traffic::to_string(bench)),
                       arch, bench,
                       kQuarterSaturation[index_of(arch)][index_of(bench)],
                       traffic::default_windows(bench)});
    }
  }
  return cells;
}

std::vector<NetCell> power_cells() {
  std::vector<NetCell> cells;
  for (const Architecture arch : core::all_architectures()) {
    for (const BenchmarkId bench : kPowerBenches) {
      cells.push_back(
          {cell_label("pow", arch, traffic::to_string(bench)), arch, bench,
           kQuarterSaturation[index_of(Architecture::kBaseline)]
                             [index_of(bench)],
           traffic::default_windows(bench)});
    }
  }
  return cells;
}

std::vector<NetCell> radix_cells() {
  std::vector<NetCell> cells;
  for (const BenchmarkId bench : kRadixBenches) {
    for (const unsigned threads : {1u, kRadixThreads}) {
      cells.push_back({"radix-t" + std::to_string(threads) + "/" +
                           core::to_string(kRadixArch) + "/" +
                           traffic::to_string(bench),
                       kRadixArch, bench, 0.0, kRadixWindows, kRadix,
                       threads});
    }
  }
  return cells;
}

std::string cmp_label(Architecture arch,
                      const workload::AccessTrace& access) {
  return cell_label("cmp", arch, access.generator);
}

CellValues values_of(const stats::SaturationResult& r) {
  return {{"delivered_flits_per_ns", r.delivered_flits_per_ns},
          {"injected_flits_per_ns", r.injected_flits_per_ns},
          {"message_expansion", r.message_expansion}};
}

CellValues values_of(const stats::LatencyResult& r) {
  return {{"mean_latency_ns", r.mean_latency_ns},
          {"p95_latency_ns", r.p95_latency_ns},
          {"messages_measured", static_cast<double>(r.messages_measured)}};
}

CellValues values_of(const stats::PowerResult& r) {
  return {{"power_mw", r.power_mw},
          {"delivered_flits_per_ns", r.delivered_flits_per_ns}};
}

CellValues values_of(const stats::CmpResult& r) {
  return {{"makespan_ns", r.makespan_ns},
          {"accesses", static_cast<double>(r.accesses)}};
}

std::string error_of(const sim::RunOutcome& run) {
  return run.ok ? std::string() : "threw: " + run.error;
}
std::string error_of(const stats::SaturationResult&) { return {}; }
std::string error_of(const stats::LatencyResult& r) {
  return r.drained ? std::string() : "did not drain";
}
std::string error_of(const stats::PowerResult&) { return {}; }
std::string error_of(const stats::CmpResult& r) {
  return r.completed ? std::string() : "did not complete";
}

/// NetworkFactory that adds each construction's wall and thread-CPU time to
/// the cell's setup.
stats::NetworkFactory timed_factory(Architecture arch,
                                    core::NetworkConfig config,
                                    CellTiming& cell) {
  return [arch, config, &cell] {
    const auto start = Clock::now();
    const double cpu_start = thread_cpu_s();
    auto network = std::make_unique<core::MotNetwork>(arch, config);
    cell.setup_s += thread_cpu_s() - cpu_start;
    cell.setup_wall_s += since(start);
    return network;
  };
}

/// A network built by a timed factory, its wall time added to `build_s`.
std::unique_ptr<core::MotNetwork> timed_build(Architecture arch,
                                              core::NetworkConfig config,
                                              double& build_s) {
  CellTiming setup;
  auto network = timed_factory(arch, config, setup)();
  build_s += setup.setup_wall_s;
  return network;
}

/// Records the host cost of cell `i` run through a batch API (its setup
/// slot was filled by the cell's timed factory).
void add_run(PassTiming& timing, std::size_t i, const sim::RunOutcome& run) {
  timing.cells[i].wall_s = run.telemetry.wall_ms / 1e3;
  timing.events += run.telemetry.events_executed;
}

stats::BatchOptions serial_batch() {
  stats::BatchOptions options;
  options.jobs = 1;
  options.max_attempts = 1;  // a failed cell is reported, not retried
  return options;
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer totals and the probes that feed them.

struct PartitionedCell {
  double model_speedup = 0.0;
  double lane_imbalance = 0.0;
  std::uint64_t windows = 0;
  std::uint64_t lane_windows = 0;  ///< windows x lanes
  std::uint64_t idle_lane_windows = 0;
};

struct LayerTotals {
  HookClock hooks;
  double build_s = 0.0;
  double start_s = 0.0;
  double run_s = 0.0;
  double reduce_s = 0.0;
  double codec_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t nodes = 0;
  std::uint64_t channels = 0;
  std::uint64_t packets = 0;
  std::uint64_t messages = 0;
  std::uint64_t channel_flits = 0;
  std::uint64_t flits_ejected = 0;
  std::array<std::uint64_t, noc::all_node_ops().size()> ops{};
  std::uint64_t stalls = 0;
  std::uint64_t stall_ps = 0;
  std::uint64_t contended_grants = 0;
  std::uint64_t prealloc_hits = 0;
  std::uint64_t prealloc_misses = 0;
  std::uint64_t watchdog_releases = 0;
  double arena_mb = 0.0;  ///< largest network's arena reservation
  std::vector<PartitionedCell> partitioned;
  cmp::CmpCounters cmp;
};

/// The probes of one traced cell: the TrafficRecorder, the (optional)
/// PowerMeter and a MetricsRegistry, each behind a forwarding probe.
class CellProbes {
 public:
  CellProbes(LayerTotals& totals, noc::TrafficObserver& recorder,
             noc::EnergyObserver* meter)
      : totals_(totals),
        recorder_(totals.hooks, HookLayer::kStats, recorder),
        energy_(totals.hooks, meter),
        metrics_(totals.hooks, registry_) {}

  /// The recorder's probe: the traffic hook, or the downstream of a CMP
  /// system that is the traffic hook.
  TrafficProbe& recorder_probe() { return recorder_; }

  void install(noc::Network& net, noc::TrafficObserver& traffic) {
    net.hooks().traffic = &traffic;
    net.hooks().energy = &energy_;
    net.hooks().metrics = &metrics_;
  }
  void install(noc::Network& net) { install(net, recorder_); }

  /// Adds the finished cell's counts to the totals.
  void harvest(noc::Network& net) {
    LayerTotals& t = totals_;
    t.events += net.executed();
    t.nodes += net.nodes().size();
    t.channels += net.channels().size();
    t.packets += net.packets().num_packets();
    t.messages += net.packets().num_messages();
    t.channel_flits += energy_.channel_flits();
    t.flits_ejected += recorder_.flits_ejected();
    for (const noc::NodeOp op : noc::all_node_ops()) {
      t.ops[static_cast<std::size_t>(op)] += energy_.ops(op);
    }
    stats::MetricsSnapshot snapshot;
    timed(&t.reduce_s, [&] { snapshot = registry_.snapshot(); });
    for (const stats::ChannelClassMetrics& klass : snapshot.channels) {
      t.stalls += klass.stalls;
      t.stall_ps += klass.stall_time_ps;
    }
    t.contended_grants += snapshot.total_contended_grants();
    t.prealloc_hits += snapshot.total_prealloc_hits();
    t.prealloc_misses += snapshot.total_prealloc_misses();
    t.watchdog_releases += snapshot.total_watchdog_releases();
    t.arena_mb = std::max(
        t.arena_mb,
        static_cast<double>(net.arena().total_reserved_bytes()) / 1048576.0);
    if (const sim::PartitionedScheduler* psched = net.partitioned_scheduler();
        psched != nullptr) {
      const std::vector<std::uint64_t> lane_events =
          psched->per_lane_executed();
      PartitionedCell cell;
      cell.model_speedup = model_speedup(lane_events, kRadixThreads);
      cell.lane_imbalance = lane_imbalance(lane_events);
      cell.windows = psched->windows();
      cell.lane_windows = psched->windows() * psched->lanes();
      for (const std::uint64_t idle : psched->per_lane_idle_windows()) {
        cell.idle_lane_windows += idle;
      }
      t.partitioned.push_back(cell);
    }
  }

 private:
  LayerTotals& totals_;
  TrafficProbe recorder_;
  EnergyProbe energy_;
  stats::MetricsRegistry registry_;
  MetricsProbe metrics_;
};

/// Round-trips a result through its stats/serialization.h codec; a result
/// that does not survive unchanged is a failed cell.
template <typename Result>
std::string codec_round_trip(const Result& result,
                             Result (*decode)(const util::Json&),
                             LayerTotals& totals) {
  bool same = false;
  timed(&totals.codec_s, [&] {
    const std::string text = util::json_write(stats::to_json(result));
    same = util::json_write(stats::to_json(decode(util::json_parse(text)))) ==
           text;
  });
  return same ? std::string() : "codec round trip changed the result";
}

/// Backlogged saturation protocol through the public layer calls; the same
/// steps as ExperimentRunner's saturation run, with the cell's windows.
/// `totals` set = traced (probes installed, layers timed). Fills the cell's
/// host cost and the kernel events it executed.
stats::SaturationResult run_backlogged(const NetCell& cell, std::uint64_t seed,
                                       CellTiming& host, std::uint64_t& events,
                                       LayerTotals* totals) {
  const auto start = Clock::now();
  stats::SaturationResult result;
  {
    // Everything the cell builds is torn down inside the timed scope, as in
    // ExperimentRunner's runs, and the network goes last.
    auto network = timed_factory(cell.arch,
                                 network_config(cell.n, cell.sim_threads),
                                 host)();
    noc::Network& net = network->net();
    stats::TrafficRecorder recorder(net.packets());
    std::optional<CellProbes> probes;
    if (totals != nullptr) {
      probes.emplace(*totals, recorder, nullptr);
      probes->install(net);
    } else {
      net.hooks().traffic = &recorder;
    }
    const auto pattern = traffic::make_benchmark(cell.bench, cell.n);
    traffic::DriverConfig driver_config;
    driver_config.mode = traffic::InjectionMode::kBacklogged;
    driver_config.seed = seed;
    traffic::TrafficDriver driver(*network, *pattern, driver_config);
    timed(totals != nullptr ? &totals->start_s : nullptr,
          [&] { driver.start(); });
    timed(totals != nullptr ? &totals->run_s : nullptr, [&] {
      net.run_until(cell.windows.warmup);
      recorder.open_window(net.now());
      net.run_until(cell.windows.warmup + cell.windows.measure);
      recorder.close_window(net.now());
    });
    timed(totals != nullptr ? &totals->reduce_s : nullptr, [&] {
      result.delivered_flits_per_ns = recorder.delivered_flits_per_ns(cell.n);
      result.injected_flits_per_ns = recorder.injected_flits_per_ns(cell.n);
      result.delivery_factor =
          result.injected_flits_per_ns > 0.0
              ? result.delivered_flits_per_ns / result.injected_flits_per_ns
              : 1.0;
      const noc::PacketStore& store = net.packets();
      result.message_expansion =
          store.num_messages() > 0
              ? static_cast<double>(store.num_packets()) /
                    static_cast<double>(store.num_messages())
              : 1.0;
    });
    if (probes) probes->harvest(net);
    events = net.executed();
  }
  host.wall_s = since(start);
  return result;
}

/// Open-loop latency protocol (traced), as ExperimentRunner's latency run.
stats::LatencyResult traced_latency(const NetCell& cell, std::uint64_t seed,
                                    LayerTotals& totals) {
  auto network =
      timed_build(cell.arch, network_config(kPaperRadix, 1), totals.build_s);
  noc::Network& net = network->net();
  stats::TrafficRecorder recorder(net.packets());
  CellProbes probes(totals, recorder, nullptr);
  probes.install(net);
  const auto pattern = traffic::make_benchmark(cell.bench, kPaperRadix);
  traffic::DriverConfig driver_config;
  driver_config.mode = traffic::InjectionMode::kOpenLoop;
  driver_config.flits_per_ns_per_source = cell.rate;
  driver_config.seed = seed;
  traffic::TrafficDriver driver(*network, *pattern, driver_config);
  timed(&totals.start_s, [&] { driver.start(); });
  sim::Scheduler& sched = network->scheduler();
  timed(&totals.run_s, [&] {
    sched.run_until(cell.windows.warmup);
    driver.set_measured(true);
    sched.run_until(cell.windows.warmup + cell.windows.measure);
    driver.set_measured(false);
    const TimePs drain_cap = cell.windows.warmup + cell.windows.measure * 20;
    while (recorder.pending_measured() > 0 && sched.now() < drain_cap) {
      if (!sched.step()) break;
    }
  });
  stats::LatencyResult result;
  timed(&totals.reduce_s, [&] {
    result.mean_latency_ns = recorder.mean_latency_ps() / 1e3;
    result.p95_latency_ns = recorder.latency_percentile_ps(95.0) / 1e3;
    result.max_latency_ns = ps_to_ns(recorder.max_latency_ps());
    result.messages_measured = recorder.completed_measured();
    result.offered_flits_per_ns = cell.rate;
    result.drained = recorder.pending_measured() == 0;
  });
  probes.harvest(net);
  return result;
}

/// Open-loop power protocol (traced), as ExperimentRunner's power run.
stats::PowerResult traced_power(const NetCell& cell, std::uint64_t seed,
                                LayerTotals& totals) {
  auto network =
      timed_build(cell.arch, network_config(kPaperRadix, 1), totals.build_s);
  noc::Network& net = network->net();
  stats::TrafficRecorder recorder(net.packets());
  power::PowerMeter meter;
  CellProbes probes(totals, recorder, &meter);
  probes.install(net);
  const auto pattern = traffic::make_benchmark(cell.bench, kPaperRadix);
  traffic::DriverConfig driver_config;
  driver_config.mode = traffic::InjectionMode::kOpenLoop;
  driver_config.flits_per_ns_per_source = cell.rate;
  driver_config.seed = seed;
  traffic::TrafficDriver driver(*network, *pattern, driver_config);
  timed(&totals.start_s, [&] { driver.start(); });
  sim::Scheduler& sched = network->scheduler();
  timed(&totals.run_s, [&] {
    sched.run_until(cell.windows.warmup);
    recorder.open_window(sched.now());
    meter.open_window(sched.now());
    sched.run_until(cell.windows.warmup + cell.windows.measure);
    recorder.close_window(sched.now());
    meter.close_window(sched.now());
  });
  stats::PowerResult result;
  timed(&totals.reduce_s, [&] {
    result.power_mw = meter.window_power_mw();
    result.node_power_mw =
        fj_over_ps_to_mw(meter.window_node_energy(), meter.window_duration());
    result.wire_power_mw =
        fj_over_ps_to_mw(meter.window_wire_energy(), meter.window_duration());
    result.delivered_flits_per_ns =
        recorder.delivered_flits_per_ns(kPaperRadix);
    result.offered_flits_per_ns = cell.rate;
    result.throttled_flits = meter.window_ops(noc::NodeOp::kThrottle);
    result.broadcast_ops = meter.window_ops(noc::NodeOp::kBroadcast);
  });
  probes.harvest(net);
  return result;
}

/// CMP co-simulation (traced), as ExperimentRunner's cmp run. The CmpSystem
/// is the traffic hook behind a cmp-layer probe and forwards to the
/// recorder's stats-layer probe.
stats::CmpResult traced_cmp(Architecture arch,
                            const workload::AccessTrace& access,
                            LayerTotals& totals) {
  const cmp::CmpConfig config;
  auto network =
      timed_build(arch, network_config(kCmpProcs, 1), totals.build_s);
  noc::Network& net = network->net();
  stats::TrafficRecorder recorder(net.packets());
  const cmp::AccessTraceSource source(access, config.line_bytes);
  cmp::CmpSystem system(*network, source, config);
  power::PowerMeter meter;
  CellProbes probes(totals, recorder, &meter);
  system.set_downstream(&probes.recorder_probe());
  TrafficProbe system_probe(totals.hooks, HookLayer::kCmp, system);
  probes.install(net, system_probe);
  recorder.open_window(net.now());
  meter.open_window(net.now());
  timed(&totals.start_s, [&] { system.start(); });
  timed(&totals.run_s, [&] { net.run(); });
  recorder.close_window(net.now());
  meter.close_window(net.now());
  stats::CmpResult result;
  timed(&totals.reduce_s, [&] {
    const cmp::CmpCounters counters = system.counters();
    result.accesses = system.retired();
    result.makespan_ns = ps_to_ns(system.makespan());
    result.l1_hits = counters.l1_hits;
    result.l1_misses = counters.l1_misses;
    result.mshr_merges = counters.mshr_merges;
    result.inv_messages = counters.inv_messages;
    result.inv_multicasts = counters.inv_multicasts;
    result.inv_targets = counters.inv_targets;
    result.dram_reads = counters.dram_reads;
    result.dram_writes = counters.dram_writes;
    result.dram_conflicts = counters.dram_conflicts;
    result.messages = counters.messages_sent;
    result.flits_delivered = recorder.window_flits_ejected();
    result.energy_nj = meter.window_energy() / 1e6;
    result.completed = system.finished();
  });
  const cmp::CmpCounters counters = system.counters();
  cmp::CmpCounters& sum = totals.cmp;
  sum.accesses += counters.accesses;
  sum.l1_hits += counters.l1_hits;
  sum.l1_misses += counters.l1_misses;
  sum.mshr_merges += counters.mshr_merges;
  sum.inv_messages += counters.inv_messages;
  sum.inv_multicasts += counters.inv_multicasts;
  sum.inv_targets += counters.inv_targets;
  sum.dram_reads += counters.dram_reads;
  sum.dram_writes += counters.dram_writes;
  sum.dram_conflicts += counters.dram_conflicts;
  probes.harvest(net);
  return result;
}

/// Records one traced cell: its results, its own failure, or a codec
/// round trip that changed it.
template <typename Result>
void add_traced(Pass& pass, const std::string& label, const Result& result,
                Result (*decode)(const util::Json&), LayerTotals& totals) {
  std::string error = error_of(result);
  if (error.empty()) error = codec_round_trip(result, decode, totals);
  pass.cells.push_back({label, values_of(result), error});
}

/// Runs `body`, turning an exception into a failed cell.
template <typename F>
void guarded(Pass& pass, const std::string& label, F&& body) {
  try {
    body();
  } catch (const std::exception& e) {
    pass.cells.push_back({label, {}, std::string("threw: ") + e.what()});
  }
}

std::map<std::string, double> layer_values(const LayerTotals& t) {
  std::map<std::string, double> m;
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["sim.events"] = d(t.events);
  m["sim.events_per_hop"] = events_per_hop(t.events, t.channel_flits);
  if (!t.partitioned.empty()) {
    double model = 0.0;
    double imbalance = 0.0;
    std::uint64_t windows = 0;
    std::uint64_t lane_windows = 0;
    std::uint64_t idle = 0;
    for (const PartitionedCell& cell : t.partitioned) {
      model += cell.model_speedup;
      imbalance += cell.lane_imbalance;
      windows += cell.windows;
      lane_windows += cell.lane_windows;
      idle += cell.idle_lane_windows;
    }
    const double cells = d(t.partitioned.size());
    m["sim.par.model_speedup"] = model / cells;
    m["sim.par.lane_imbalance"] = imbalance / cells;
    m["sim.par.windows"] = d(windows);
    m["sim.par.idle_lane_window_frac"] = ratio(d(idle), d(lane_windows));
  }
  m["noc.channel_flits"] = d(t.channel_flits);
  m["noc.stalls"] = d(t.stalls);
  m["noc.stall_ps_per_flit"] = ratio(d(t.stall_ps), d(t.channel_flits));
  m["noc.arena_mb"] = t.arena_mb;
  m["noc.run_self_s"] = t.run_s - t.hooks.total_s();
  for (const noc::NodeOp op : noc::all_node_ops()) {
    m[std::string("nodes.ops.") + noc::to_string(op)] =
        d(t.ops[static_cast<std::size_t>(op)]);
  }
  m["nodes.useful_copy_ratio"] = useful_copy_ratio(
      t.flits_ejected, t.ops[static_cast<std::size_t>(noc::NodeOp::kThrottle)]);
  m["nodes.contended_grants"] = d(t.contended_grants);
  m["nodes.prealloc_hit_rate"] =
      ratio(d(t.prealloc_hits), d(t.prealloc_hits + t.prealloc_misses));
  m["nodes.watchdog_releases"] = d(t.watchdog_releases);
  m["core.build_s"] = t.build_s;
  m["core.nodes"] = d(t.nodes);
  m["core.channels"] = d(t.channels);
  m["traffic.start_s"] = t.start_s;
  m["traffic.packets_injected"] = d(t.packets);
  m["traffic.message_expansion"] = ratio(d(t.packets), d(t.messages));
  m["power.hook_s"] = t.hooks.net_self_s(HookLayer::kPower);
  m["power.hook_calls"] = d(t.hooks.calls(HookLayer::kPower));
  m["stats.hook_s"] = t.hooks.net_self_s(HookLayer::kStats);
  m["stats.hook_calls"] = d(t.hooks.calls(HookLayer::kStats));
  m["stats.reduce_s"] = t.reduce_s;
  m["stats.codec_s"] = t.codec_s;
  m["cmp.hook_s"] = t.hooks.net_self_s(HookLayer::kCmp);
  const cmp::CmpCounters& c = t.cmp;
  m["cmp.accesses"] = d(c.accesses);
  m["cmp.l1_miss_rate"] = ratio(d(c.l1_misses), d(c.l1_hits + c.l1_misses));
  m["cmp.mshr_merge_rate"] = ratio(d(c.mshr_merges), d(c.l1_misses));
  m["cmp.inv_multicasts"] = d(c.inv_multicasts);
  m["cmp.inv_fanout_mean"] = ratio(d(c.inv_targets), d(c.inv_messages));
  m["cmp.dram_conflict_rate"] =
      ratio(d(c.dram_conflicts), d(c.dram_reads + c.dram_writes));
  return m;
}

}  // namespace

const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kPaperSaturation: return "paper_saturation";
    case WorkloadId::kPaperOpenloop: return "paper_openloop";
    case WorkloadId::kRadix1024: return "radix1024";
    case WorkloadId::kCmp64: return "cmp64";
  }
  return "?";
}

std::optional<WorkloadId> workload_from_string(const std::string& name) {
  for (const WorkloadId id :
       {WorkloadId::kPaperSaturation, WorkloadId::kPaperOpenloop,
        WorkloadId::kRadix1024, WorkloadId::kCmp64}) {
    if (name == to_string(id)) return id;
  }
  return std::nullopt;
}

Workload::Workload(WorkloadId id, std::uint64_t seed) : id_(id), seed_(seed) {
  if (id_ != WorkloadId::kCmp64) return;
  timed(&synth_s_, [&] {
    workload::LuAccessParams lu;
    lu.n = kCmpProcs;
    lu.blocks = 64;
    lu.seed = seed;
    access_.push_back(std::make_shared<const workload::AccessTrace>(
        workload::make_lu_access_trace(lu)));
    workload::BarnesAccessParams barnes;
    barnes.n = kCmpProcs;
    barnes.steps = 20;
    barnes.seed = seed;
    access_.push_back(std::make_shared<const workload::AccessTrace>(
        workload::make_barnes_access_trace(barnes)));
  });
}

Pass Workload::run_untraced() const {
  Pass pass;
  PassTiming& timing = pass.timing;
  const auto start = Clock::now();
  const double cpu_start = process_cpu_s();
  switch (id_) {
    case WorkloadId::kPaperSaturation: {
      stats::ExperimentRunner runner(network_config(kPaperRadix, 1), seed_);
      const std::vector<NetCell> cells = saturation_cells();
      timing.cells.resize(cells.size());
      std::vector<stats::SaturationSpec> specs;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        specs.push_back({.arch = cells[i].arch,
                         .bench = cells[i].bench,
                         .seed = 0,
                         .factory = timed_factory(cells[i].arch,
                                                  runner.config(),
                                                  timing.cells[i]),
                         .custom = {}});
        timing.sim_ns += window_ns(cells[i].windows);
      }
      const auto outcomes = runner.run_saturation_grid(specs, serial_batch());
      for (std::size_t i = 0; i < cells.size(); ++i) {
        pass.cells.push_back({cells[i].label, values_of(outcomes[i].result),
                              error_of(outcomes[i].run)});
        add_run(timing, i, outcomes[i].run);
      }
      break;
    }
    case WorkloadId::kPaperOpenloop: {
      const stats::ExperimentRunner runner(network_config(kPaperRadix, 1),
                                           seed_);
      const std::vector<NetCell> lat = latency_cells();
      const std::vector<NetCell> pow = power_cells();
      timing.cells.resize(lat.size() + pow.size());
      std::vector<stats::LatencySpec> lat_specs;
      for (std::size_t i = 0; i < lat.size(); ++i) {
        lat_specs.push_back({.arch = lat[i].arch,
                             .bench = lat[i].bench,
                             .injected_flits_per_ns = lat[i].rate,
                             .windows = lat[i].windows,
                             .seed = 0,
                             .factory = timed_factory(lat[i].arch,
                                                      runner.config(),
                                                      timing.cells[i]),
                             .custom = {}});
        timing.sim_ns += window_ns(lat[i].windows);
      }
      std::vector<stats::PowerSpec> pow_specs;
      for (std::size_t i = 0; i < pow.size(); ++i) {
        pow_specs.push_back(
            {.arch = pow[i].arch,
             .bench = pow[i].bench,
             .injected_flits_per_ns = pow[i].rate,
             .windows = pow[i].windows,
             .seed = 0,
             .factory = timed_factory(pow[i].arch, runner.config(),
                                      timing.cells[lat.size() + i]),
             .custom = {}});
        timing.sim_ns += window_ns(pow[i].windows);
      }
      const auto lat_out = runner.run_latency_sweep(lat_specs, serial_batch());
      const auto pow_out = runner.run_power_sweep(pow_specs, serial_batch());
      for (std::size_t i = 0; i < lat.size(); ++i) {
        std::string error = error_of(lat_out[i].run);
        if (error.empty()) error = error_of(lat_out[i].result);
        pass.cells.push_back(
            {lat[i].label, values_of(lat_out[i].result), error});
        add_run(timing, i, lat_out[i].run);
      }
      for (std::size_t i = 0; i < pow.size(); ++i) {
        pass.cells.push_back({pow[i].label, values_of(pow_out[i].result),
                              error_of(pow_out[i].run)});
        add_run(timing, lat.size() + i, pow_out[i].run);
      }
      break;
    }
    case WorkloadId::kRadix1024: {
      for (const NetCell& cell : radix_cells()) {
        CellTiming host;
        std::uint64_t events = 0;
        guarded(pass, cell.label, [&] {
          const auto result =
              run_backlogged(cell, seed_, host, events, nullptr);
          pass.cells.push_back({cell.label, values_of(result), {}});
        });
        timing.cells.push_back(host);
        timing.events += events;
        timing.sim_ns += window_ns(cell.windows);
      }
      break;
    }
    case WorkloadId::kCmp64: {
      const stats::ExperimentRunner runner(network_config(kCmpProcs, 1),
                                           seed_);
      timing.cells.resize(access_.size() * kCmpArchs.size());
      std::vector<stats::CmpSpec> specs;
      for (const auto& access : access_) {
        for (const Architecture arch : kCmpArchs) {
          stats::CmpSpec spec =
              stats::make_cmp_spec(arch, access->generator, access);
          spec.factory = timed_factory(arch, runner.config(),
                                       timing.cells[specs.size()]);
          specs.push_back(std::move(spec));
        }
      }
      const auto outcomes = runner.run_cmp_grid(specs, serial_batch());
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const stats::CmpOutcome& outcome = outcomes[i];
        std::string error = error_of(outcome.run);
        if (error.empty()) error = error_of(outcome.result);
        pass.cells.push_back({cmp_label(outcome.spec.arch,
                                        *outcome.spec.access),
                              values_of(outcome.result), error});
        add_run(timing, i, outcome.run);
        timing.sim_ns += outcome.result.makespan_ns;
      }
      break;
    }
  }
  timing.cpu_s = process_cpu_s() - cpu_start;
  timing.wall_s = since(start);
  return pass;
}

TracedPass Workload::run_traced() const {
  TracedPass traced;
  Pass& pass = traced.pass;
  LayerTotals totals;
  const std::uint64_t spills_before = noc::DestSet::spill_allocations();
  const std::uint64_t reuses_before = noc::DestSet::spill_reuses();
  const auto start = Clock::now();
  switch (id_) {
    case WorkloadId::kPaperSaturation:
    case WorkloadId::kRadix1024: {
      const std::vector<NetCell> cells = id_ == WorkloadId::kRadix1024
                                             ? radix_cells()
                                             : saturation_cells();
      for (const NetCell& cell : cells) {
        guarded(pass, cell.label, [&] {
          CellTiming host;
          std::uint64_t events = 0;
          const auto result =
              run_backlogged(cell, seed_, host, events, &totals);
          totals.build_s += host.setup_wall_s;
          add_traced(pass, cell.label, result,
                     &stats::saturation_result_from_json, totals);
        });
      }
      break;
    }
    case WorkloadId::kPaperOpenloop: {
      for (const NetCell& cell : latency_cells()) {
        guarded(pass, cell.label, [&] {
          add_traced(pass, cell.label, traced_latency(cell, seed_, totals),
                     &stats::latency_result_from_json, totals);
        });
      }
      for (const NetCell& cell : power_cells()) {
        guarded(pass, cell.label, [&] {
          add_traced(pass, cell.label, traced_power(cell, seed_, totals),
                     &stats::power_result_from_json, totals);
        });
      }
      break;
    }
    case WorkloadId::kCmp64: {
      for (const auto& access : access_) {
        for (const Architecture arch : kCmpArchs) {
          const std::string label = cmp_label(arch, *access);
          guarded(pass, label, [&] {
            add_traced(pass, label, traced_cmp(arch, *access, totals),
                       &stats::cmp_result_from_json, totals);
          });
        }
      }
      break;
    }
  }
  pass.timing.wall_s = since(start);
  traced.layers = layer_values(totals);
  traced.layers["noc.dest_spill_allocs"] = static_cast<double>(
      noc::DestSet::spill_allocations() - spills_before);
  traced.layers["noc.dest_spill_reuses"] =
      static_cast<double>(noc::DestSet::spill_reuses() - reuses_before);
  return traced;
}

std::vector<MetricName> layer_metrics() {
  std::vector<MetricName> names = {
      {"host.wall_s", "s"},
      {"host.sim_ns_per_s", "ns/s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.events_per_hop", "events/hop"},
      {"sim.par.wall_speedup", "x"},
      {"sim.par.model_speedup", "x"},
      {"sim.par.windows", "count"},
      {"sim.par.idle_lane_window_frac", "ratio"},
      {"sim.par.lane_imbalance", "ratio"},
      {"sim.par.divergent_cells", "count"},
      {"noc.channel_flits", "count"},
      {"noc.stalls", "count"},
      {"noc.stall_ps_per_flit", "ps"},
      {"noc.dest_spill_allocs", "count"},
      {"noc.dest_spill_reuses", "count"},
      {"noc.arena_mb", "MiB"},
      {"noc.run_self_s", "s"},
  };
  for (const noc::NodeOp op : noc::all_node_ops()) {
    names.push_back({std::string("nodes.ops.") + noc::to_string(op), "count"});
  }
  const std::vector<MetricName> rest = {
      {"nodes.useful_copy_ratio", "ratio"},
      {"nodes.contended_grants", "count"},
      {"nodes.prealloc_hit_rate", "ratio"},
      {"nodes.watchdog_releases", "count"},
      {"core.build_s", "s"},
      {"core.nodes", "count"},
      {"core.channels", "count"},
      {"traffic.start_s", "s"},
      {"traffic.packets_injected", "count"},
      {"traffic.message_expansion", "ratio"},
      {"power.hook_s", "s"},
      {"power.hook_calls", "count"},
      {"stats.hook_s", "s"},
      {"stats.hook_calls", "count"},
      {"stats.reduce_s", "s"},
      {"stats.codec_s", "s"},
      {"workload.synth_s", "s"},
      {"cmp.hook_s", "s"},
      {"cmp.accesses", "count"},
      {"cmp.l1_miss_rate", "ratio"},
      {"cmp.mshr_merge_rate", "ratio"},
      {"cmp.inv_multicasts", "count"},
      {"cmp.inv_fanout_mean", "dests"},
      {"cmp.dram_conflict_rate", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  names.insert(names.end(), rest.begin(), rest.end());
  return names;
}

}  // namespace perfbench
