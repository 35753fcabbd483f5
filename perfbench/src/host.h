// Host context recorded with every result: a speed figure is only
// comparable with another taken on the same kind of host and build.
#pragma once

#include "util/json.h"

namespace perfbench {

/// nproc, CPU model, compiler, build type and flags, source revision (from
/// PERFBENCH_COMMIT, which perfbench/run.py sets) and the 1/5/15-minute
/// load averages at the time of the call.
specnoc::util::Json host_context();

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// CPU seconds of this process, all threads (live and exited), user and
/// system. Unlike wall-clock time it leaves out the time the host gives to
/// other tasks: other processes of the guest, and the hypervisor steal of a
/// shared host (the kernel accounts steal apart from task time).
double process_cpu_s();

/// CPU seconds of the calling thread.
double thread_cpu_s();

/// Steal time of all CPUs since boot, in seconds (/proc/stat): time the
/// hypervisor ran something else while a vCPU of this guest was runnable.
/// 0 where the kernel does not report it.
double steal_s();

}  // namespace perfbench
