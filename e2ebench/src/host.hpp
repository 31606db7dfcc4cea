// Host record: the parallelism actually available to the benchmark, printed
// next to every result so numbers from different machines are comparable.
#pragma once

#include <string>

namespace e2ebench {

struct HostRecord {
  int affinity_cpus = 0;     ///< CPUs in this process's sched_getaffinity mask
  std::string cgroup_cpu_max = "unknown";  ///< cgroup v2 cpu.max, verbatim
  double cgroup_cpus = 0.0;  ///< quota / period; 0 when unlimited or unknown
  int nproc = 0;             ///< online processors (what `nproc` reports)

  [[nodiscard]] std::string render() const;
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] HostRecord probe_host();

/// Pins the calling thread to the CPU it runs on and returns that CPU (-1
/// when it cannot). Threads it creates later inherit the mask, so the ops
/// and the contention probes timed between them share one CPU.
int pin_to_current_cpu();

}  // namespace e2ebench
