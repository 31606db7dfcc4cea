// Shared configuration and helpers for the paper-reproduction benchmark
// binaries. Every experiment prints its table in the paper's row format
// alongside the corresponding published values.
//
// CPU-time calibration: the paper's component estimators are separate
// processes driven over IPC by the simulation master, and the paper names
// that communication/synchronization cost as a dominant contributor to
// co-estimation time. Our estimators are in-process, so the benchmarks model
// the per-invocation round-trip with a deterministic spin (sync_spin), and
// the per-served-transition table management of the caching backplane with a
// smaller spin (cache_hit_spin). Speedup *ratios* are what the experiments
// compare; absolute seconds are machine-specific either way.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/coestimator.hpp"
#include "systems/tcpip.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace socpower::bench {

/// Workload for the Table 1 / Table 2 / Figure 6 sweeps.
inline systems::TcpIpParams table_workload(unsigned dma) {
  systems::TcpIpParams p;
  p.num_packets = 60;
  p.packet_bytes = 128;
  p.packet_gap = 40;
  p.dma_block_size = dma;
  return p;
}

inline core::CoEstimatorConfig table_config() {
  core::CoEstimatorConfig cfg;
  cfg.bus.line_cap_f = 0.5e-9;  // Tables 1-2 bus budget (Fig 7 uses 10 nF)
  cfg.sync_spin = 600'000;      // ~ an IPC round-trip per ISS invocation
  cfg.cache_hit_spin = 15000;  // caching-backplane bookkeeping per hit
  return cfg;
}

inline const unsigned kTableDmaSizes[] = {2, 4, 8, 16, 32, 64};

struct ModeResult {
  core::RunResults run;
  double seconds = 0.0;
};

/// Runs one acceleration mode on a fresh system instance (fresh workload
/// state, same seed => identical traffic). Wall clock is best-of-`reps`:
/// runs are deterministic, so every rep produces identical energies and the
/// only varying field is `wall_seconds` — taking the minimum sheds the
/// one-sided scheduler-noise spikes that otherwise break the wall-clock
/// ratio comparisons on busy single-CPU CI containers.
inline core::RunResults run_mode(systems::TcpIpSystem& sys,
                                 core::CoEstimator& est,
                                 core::Acceleration accel, int reps = 2) {
  est.config().accel = accel;
  core::RunResults best = est.run(sys.stimulus());
  for (int i = 1; i < reps; ++i) {
    core::RunResults r = est.run(sys.stimulus());
    if (r.wall_seconds < best.wall_seconds) best = r;
  }
  return best;
}

/// The p-quantile of `v` (nearest rank on the sorted values): the gated
/// benches' medians and quartiles of interleaved per-pair ratios.
inline double quantile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) +
                                    0.5)];
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

/// Short git revision of the working tree, or "unknown" outside a checkout
/// (benchmarks run from installed artifacts, sandboxes without git, ...).
inline std::string git_sha_short() {
  std::string sha;
  if (FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p)) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
    sha.pop_back();
  return sha.empty() ? "unknown" : sha;
}

/// Persists one benchmark's headline numbers as BENCH_<name>.json so the
/// perf trajectory accumulates run over run (scripts/run_experiments.sh
/// collects the files). Metrics keep insertion order; values print with
/// enough digits to round-trip a double.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson& metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
    return *this;
  }

  /// Writes into $SOCPOWER_BENCH_JSON_DIR, by default into the directory
  /// the bench binaries are built in (SOCPOWER_BENCH_JSON_DEFAULT_DIR, set
  /// by bench/CMakeLists.txt), so a gate run from the repository root
  /// leaves the committed baselines alone. Returns false (after printing a
  /// warning) when the file cannot be written; benchmarks still pass —
  /// persistence is best-effort.
  bool write() const {
    std::string dir = SOCPOWER_BENCH_JSON_DEFAULT_DIR;
    if (const char* d = std::getenv("SOCPOWER_BENCH_JSON_DIR"))
      if (*d) dir = d;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "BenchJson: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"git_sha\": \"%s\"",
                 name_.c_str(), git_sha_short().c_str());
    for (const auto& [key, value] : metrics_)
      std::fprintf(f, ",\n  \"%s\": %.17g", key.c_str(), value);
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("[bench-json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace socpower::bench
