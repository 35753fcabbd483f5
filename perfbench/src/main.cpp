// specnoc perf ledger driver. Runs one workload for a time budget and
// prints its metrics; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats untraced passes over the workload's cell set and
// reports the end-to-end metrics (medians over passes). --trace 1
// alternates traced and untraced passes and reports the per-layer metrics.
// End-to-end host time is CPU time: on a shared host, wall-clock time also
// counts the time the host gives to other tenants. Wall-clock figures are
// per-layer metrics (host.*).
// Every cell's simulated results are checked: against the pinned reference
// at the default seed, otherwise against the first untraced pass; traced
// results must equal untraced ones.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "ledger.h"
#include "reference.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/json.h"
#include "workloads.h"

using namespace perfbench;
using specnoc::util::Json;

namespace {

/// The seed the references pin; the paper harnesses' default seed.
constexpr std::uint64_t kDefaultSeed = 42;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string reference_path(const std::string& dir, WorkloadId id) {
  return dir + "/" + to_string(id) + ".json";
}

/// Cell checks of one run: how many cells were attempted and how many
/// failed, with a diagnostic per failure.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> diagnostics;

  void check(const Pass& pass, const ReferenceSet& expected,
             const std::string& what) {
    attempted += pass.cells.size();
    std::vector<std::string> lines;
    failed += count_failed(pass.cells, expected, lines);
    for (const std::string& line : lines) {
      diagnostics.push_back(what + ": " + line);
    }
  }
};

void emit_metric(Json& metrics, const std::string& name, double value,
                 const char* unit) {
  std::printf("metric %-32s %.6g %s\n", name.c_str(), value, unit);
  Json metric = Json::object();
  metric.set("value", value);
  metric.set("unit", unit);
  metrics.set(name, std::move(metric));
}

/// Each cell's host cost, as the median over untraced passes: a burst of
/// host noise during one pass moves only the cells it overlapped, and
/// only if it hit them in most passes.
std::vector<CellTiming> median_cells(std::span<const Pass> passes) {
  std::vector<CellTiming> cells(passes.front().timing.cells.size());
  for (std::size_t j = 0; j < cells.size(); ++j) {
    std::vector<double> wall;
    std::vector<double> setup_wall;
    std::vector<double> setup;
    for (const Pass& pass : passes) {
      wall.push_back(pass.timing.cells[j].wall_s);
      setup_wall.push_back(pass.timing.cells[j].setup_wall_s);
      setup.push_back(pass.timing.cells[j].setup_s);
    }
    cells[j] = {median(wall), median(setup_wall), median(setup)};
  }
  return cells;
}

/// Sequential / 4-thread cell pairs of radix1024, by index: each
/// benchmark's "radix-t1/" cell is followed by its "radix-t4/" cell.
std::vector<std::pair<std::size_t, std::size_t>> radix_pairs(
    const Pass& pass) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < pass.cells.size(); ++i) {
    if (pass.cells[i].label.rfind("radix-t1/", 0) == 0) {
      pairs.emplace_back(i, i + 1);
    }
  }
  return pairs;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  unsigned trace = 0;
  bool pin = false;
  const std::string reference_dir = PERFBENCH_REFERENCE_DIR;
  specnoc::util::CliParser cli(
      "perfbench",
      "specnoc perf ledger: runs one workload (paper_saturation, "
      "paper_openloop, radix1024, cmp64) and prints its metrics.");
  cli.add_string("--workload", &workload_name, "workload to run");
  cli.add_uint64("--seed", &seed, "input seed (references pin 42)");
  cli.add_double("--seconds", &seconds, "host-time budget for the passes");
  cli.add_unsigned("--trace", &trace,
                   "0 = end-to-end metrics, 1 = per-layer metrics");
  cli.add_flag("--pin", &pin,
               "write the first untraced pass's results as the reference "
               "(default seed only)");
  cli.parse_or_exit(argc, argv);
  const auto id = workload_from_string(workload_name);
  if (!id || trace > 1 || !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "perfbench: need --workload paper_saturation|paper_openloop|"
                 "radix1024|cmp64, --trace 0|1 and --seconds > 0\n");
    return 2;
  }
  if (pin && seed != kDefaultSeed) {
    std::fprintf(stderr, "perfbench: --pin needs the default seed %llu\n",
                 static_cast<unsigned long long>(kDefaultSeed));
    return 2;
  }

  std::optional<ReferenceSet> reference;
  if (seed == kDefaultSeed && !pin) {
    const std::string path = reference_path(reference_dir, *id);
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    try {
      if (!in) throw specnoc::ConfigError("cannot read the file");
      reference = reference_from_json(specnoc::util::json_parse(text.str()),
                                      workload_name, seed);
    } catch (const specnoc::ConfigError& e) {
      std::fprintf(stderr, "perfbench: reference %s: %s\n", path.c_str(),
                   e.what());
      return 1;
    }
  }

  const auto start = Clock::now();
  const double steal_start = steal_s();
  const Workload workload(*id, seed);
  std::vector<Pass> untraced;
  std::vector<TracedPass> traced;
  // Start another round only while its expected length fits the budget;
  // the first round always runs.
  const auto fits = [&](double round_s) {
    return since(start) + round_s <= seconds;
  };
  if (trace == 0) {
    std::vector<double> passes;
    do {
      untraced.push_back(workload.run_untraced());
      const PassTiming& pass = untraced.back().timing;
      passes.push_back(pass.wall_s);
      double pass_setup_s = 0.0;
      for (const CellTiming& cell : pass.cells) pass_setup_s += cell.setup_s;
      std::fprintf(stderr,
                   "perfbench: pass %zu wall_s %.3f cpu_s %.3f setup_s %.3f\n",
                   passes.size(), pass.wall_s, pass.cpu_s, pass_setup_s);
    } while (fits(median(passes)));
  } else {
    std::vector<double> rounds;
    do {
      const auto round = Clock::now();
      traced.push_back(workload.run_traced());
      untraced.push_back(workload.run_untraced());
      rounds.push_back(since(round));
    } while (fits(median(rounds)));
  }

  Verdict verdict;
  const ReferenceSet first = as_reference(untraced.front().cells);
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    verdict.check(untraced[i], reference ? *reference : first,
                  "untraced pass " + std::to_string(i));
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    verdict.check(traced[i].pass, first, "traced pass " + std::to_string(i));
  }

  if (pin) {
    for (const CellResult& cell : untraced.front().cells) {
      if (!cell.error.empty()) {
        std::fprintf(stderr, "perfbench: not pinning, %s failed: %s\n",
                     cell.label.c_str(), cell.error.c_str());
        return 1;
      }
    }
    const std::string path = reference_path(reference_dir, *id);
    std::ofstream out(path);
    out << specnoc::util::json_write(
               reference_to_json(workload_name, seed, untraced.front().cells))
        << "\n";
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "perfbench: pinned %zu cells to %s\n",
                 untraced.front().cells.size(), path.c_str());
  }

  // Steal is what wall-clock figures carry and CPU figures leave out.
  std::printf(
      "perfbench workload=%s seed=%llu mode=%s passes=%zu wall_s=%.3f "
      "host_steal_s=%.3f\n",
      workload_name.c_str(), static_cast<unsigned long long>(seed),
      trace == 0 ? "untraced" : "traced", untraced.size() + traced.size(),
      since(start), steal_s() - steal_start);
  std::printf("host %s\n", specnoc::util::json_write(host_context()).c_str());
  for (const std::string& line : verdict.diagnostics) {
    std::fprintf(stderr, "perfbench: failed cell: %s\n", line.c_str());
  }
  std::printf("cell_fail_rate %.6g (%zu of %zu cells)\n",
              ratio(static_cast<double>(verdict.failed),
                    static_cast<double>(verdict.attempted)),
              verdict.failed, verdict.attempted);

  Json metrics = Json::object();
  // The first pass warms caches, the allocator and the page tables
  // (radix1024's first pass faults in ~1.2 GB of fresh arena), so its times
  // are left out when later passes exist. Its results are checked above.
  const std::span<const Pass> timed =
      std::span<const Pass>(untraced).subspan(untraced.size() > 1 ? 1 : 0);
  const std::vector<CellTiming> cells = median_cells(timed);
  double wall_s = 0.0;
  double setup_wall_s = 0.0;
  double setup_s = 0.0;
  for (const CellTiming& cell : cells) {
    wall_s += cell.wall_s;
    setup_wall_s += cell.setup_wall_s;
    setup_s += cell.setup_s;
  }
  const double run_s = wall_s - setup_wall_s;
  const PassTiming& first_timing = untraced.front().timing;
  if (trace == 0) {
    std::vector<double> pass_cpu;
    for (const Pass& pass : timed) pass_cpu.push_back(pass.timing.cpu_s);
    const double cpu_s = median(pass_cpu);
    emit_metric(metrics, "cpu_s", cpu_s, "s");
    emit_metric(metrics, "sim_ns_per_cpu_s",
                ratio(first_timing.sim_ns, cpu_s - setup_s), "ns/s");
    emit_metric(metrics, "setup_s", setup_s, "s");
    emit_metric(metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> traced_wall;
    for (const TracedPass& pass : traced) {
      for (const auto& [name, value] : pass.layers) {
        samples[name].push_back(value);
      }
      traced_wall.push_back(pass.pass.timing.wall_s);
    }
    std::vector<double> untraced_wall;
    for (const Pass& pass : untraced) {
      untraced_wall.push_back(pass.timing.wall_s);
    }
    std::map<std::string, double> layers;
    for (const auto& [name, values] : samples) layers[name] = median(values);
    layers["host.wall_s"] = wall_s;
    layers["host.sim_ns_per_s"] = ratio(first_timing.sim_ns, run_s);
    layers["sim.events_per_s"] =
        ratio(static_cast<double>(first_timing.events), run_s);
    double seq_s = 0.0;
    double par_s = 0.0;
    std::size_t divergent = 0;
    for (const auto& [seq, par] : radix_pairs(untraced.front())) {
      seq_s += cells[seq].wall_s - cells[seq].setup_wall_s;
      par_s += cells[par].wall_s - cells[par].setup_wall_s;
      // Recorded, not hidden: the sequential and partitioned kernels order
      // same-picosecond events differently today.
      if (untraced.front().cells[seq].values !=
          untraced.front().cells[par].values) {
        ++divergent;
      }
    }
    layers["sim.par.wall_speedup"] = wall_speedup(seq_s, par_s);
    layers["sim.par.divergent_cells"] = static_cast<double>(divergent);
    layers["workload.synth_s"] = workload.synth_s();
    layers["trace.overhead_frac"] =
        ratio(median(traced_wall), median(untraced_wall)) - 1.0;
    for (const MetricName& metric : layer_metrics()) {
      const auto it = layers.find(metric.name);
      emit_metric(metrics, metric.name, it != layers.end() ? it->second : 0.0,
                  metric.unit);
    }
  }

  Json result = Json::object();
  result.set("correct", verdict.failed == 0);
  result.set("attempted", static_cast<std::uint64_t>(verdict.attempted));
  result.set("failed", static_cast<std::uint64_t>(verdict.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", specnoc::util::json_write(result).c_str());
  return 0;
}
