#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2ebench {

HostRecord probe_host() {
  HostRecord h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) h.affinity_cpus = CPU_COUNT(&set);
  h.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));

  std::ifstream in("/sys/fs/cgroup/cpu.max");
  std::string quota;
  long long period = 0;
  if (in >> quota >> period) {
    h.cgroup_cpu_max = quota + " " + std::to_string(period);
    char* end = nullptr;
    const double q = std::strtod(quota.c_str(), &end);
    if (end != quota.c_str() && *end == '\0' && period > 0)  // not "max"
      h.cgroup_cpus = q / static_cast<double>(period);
  }
  return h;
}

int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string HostRecord::render() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "host: affinity_cpus=%d cgroup_cpu_max=\"%s\" (%.2f cpus) "
                "nproc=%d",
                affinity_cpus, cgroup_cpu_max.c_str(), cgroup_cpus, nproc);
  return buf;
}

std::string HostRecord::to_json() const {
  std::ostringstream o;
  o << "{\"affinity_cpus\": " << affinity_cpus << ", \"cgroup_cpu_max\": \""
    << cgroup_cpu_max << "\", \"cgroup_cpus\": " << cgroup_cpus
    << ", \"nproc\": " << nproc << "}";
  return o.str();
}

}  // namespace e2ebench
