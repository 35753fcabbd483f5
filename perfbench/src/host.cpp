#include "host.h"

#include <unistd.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

using specnoc::util::Json;

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

double clock_s(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

}  // namespace

Json host_context() {
  Json host = Json::object();
  host.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.set("cpu", cpu_model());
#if defined(__clang__)
  host.set("compiler", std::string("clang ") + __clang_version__);
#else
  host.set("compiler", std::string("gcc ") + __VERSION__);
#endif
  host.set("build_type", PERFBENCH_BUILD_TYPE);
  host.set("cxx_flags", PERFBENCH_CXX_FLAGS);
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  host.set("commit", commit != nullptr ? commit : "unknown");
  double load[3] = {0.0, 0.0, 0.0};
  Json loadavg = Json::array();
  if (getloadavg(load, 3) == 3) {
    for (const double l : load) loadavg.push_back(l);
  }
  host.set("loadavg", std::move(loadavg));
  return host;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would carry
  // over the RSS of the process that forked this one (a Python wrapper).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0.0;
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double steal_s() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...",
  // in clock ticks.
  std::ifstream stat("/proc/stat");
  std::string line;
  std::getline(stat, line);
  std::istringstream fields(line);
  std::string label;
  double ticks[8] = {};
  fields >> label;
  for (double& tick : ticks) fields >> tick;
  if (!fields || label != "cpu") return 0.0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
