// End-to-end co-estimation benchmark: the program run.py builds and runs.
//
//   e2ebench --workload <nic_stream|mesh_sweep|serve_warm> --seed <n>
//            --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with plain backends. --trace 1
// alternates plain and traced ops on identical inputs, checks that their
// results are bit-identical, and reports the per-layer ledger; it also
// writes the per-op ledger to <out-dir>/ledger-<workload>-seed<n>.json.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "contention.hpp"
#include "host.hpp"
#include "ledger.hpp"
#include "stats.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads.hpp"

namespace e2ebench {
namespace {

namespace telemetry = socpower::telemetry;
using Clock = std::chrono::steady_clock;

/// Op wall-time percentiles need at least 10 samples beyond the p90.
constexpr std::size_t kMinOps = 100;
constexpr std::size_t kMinTracedPairs = 10;
/// Set-up is timed at least this often, using about this share of the run.
constexpr std::size_t kMinSetups = 10;
constexpr double kSetupShare = 0.1;
/// Hard stop for the op loop, far inside the 180 s run limit.
constexpr double kMaxLoopSeconds = 120.0;
/// The traced ledger must account for the op wall time within this share.
constexpr double kMaxUnattributedShare = 0.05;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] == '1';
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

/// Metrics in insertion order; a ratio keeps its base for the text output.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string base;  ///< "(num/den)" of a ratio, else empty
  };
  std::vector<Entry> entries;

  void put(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                       std::move(unit), ""});
  }
  void put(std::string name, const Ratio& r, std::string unit = "ratio") {
    put(std::move(name), r.value(), std::move(unit));
    entries.back().base = r.base();
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[96];
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", entries[i].value);
      out += (i ? ", \"" : "\"") + entries[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + entries[i].unit + "\"}";
    }
    return out + "}";
  }
  void print() const {
    for (const Entry& e : entries)
      std::printf("metric %-28s %.6g %s %s\n", e.name.c_str(), e.value,
                  e.unit.c_str(), e.base.c_str());
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

template <typename F>
std::vector<double> collect(const std::vector<OpRecord>& ops, F f) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpRecord& r : ops) v.push_back(static_cast<double>(f(r)));
  return v;
}

template <typename F>
double sum(const std::vector<OpRecord>& ops, F f) {
  double s = 0.0;
  for (const OpRecord& r : ops) s += static_cast<double>(f(r));
  return s;
}

/// Times set-ups spread over the whole run, one before the first op, then
/// one before an op whenever set-ups have taken less than kSetupShare of the
/// elapsed time. Each set-up is timed between two contention probes.
class SetupSampler {
 public:
  SetupSampler(Workload& wl, Contention& contention)
      : wl_(wl), contention_(contention) {}

  void before_op(double elapsed_s) {
    if (times_.empty() || total_s_ < kSetupShare * elapsed_s) once();
  }
  void finish() {
    while (times_.size() < kMinSetups) once();
    std::printf("setup: %zu set-ups, median %.6f s, quartiles %.6f .. %.6f s\n",
                times_.size(), median(times_), quartiles(times_)[0],
                quartiles(times_)[2]);
  }
  /// Median of the set-up times corrected for contention, in s.
  [[nodiscard]] double corrected_median_s() const {
    std::vector<double> v;
    for (std::size_t i = 0; i < times_.size(); ++i)
      v.push_back(Contention::corrected(times_[i], probes_[i]));
    return median(v);
  }
  /// Median over set-ups of one layer's prepare() time, in ms.
  [[nodiscard]] double prepare_ms(Layer l) const {
    std::vector<double> v;
    for (const LedgerSnapshot& s : ledgers_) v.push_back(1e-6 * s[l].prepare_ns);
    return median(v);
  }

 private:
  void once() {
    const LedgerSnapshot before = ledger_snapshot();
    const double probe_before = contention_.probe();
    const Clock::time_point t0 = Clock::now();
    wl_.setup();
    const double dt = seconds_since(t0);
    probes_.push_back(0.5 * (probe_before + contention_.probe()));
    ledgers_.push_back(ledger_snapshot() - before);
    if (!times_.empty()) wl_.drop_extra_setup();
    times_.push_back(dt);
    total_s_ += dt;
  }

  Workload& wl_;
  Contention& contention_;
  std::vector<double> times_;
  std::vector<double> probes_;  ///< mean probe around each set-up, ms
  std::vector<LedgerSnapshot> ledgers_;
  double total_s_ = 0.0;
};

/// The end-to-end metrics of a plain run.
int run_plain(Workload& wl, const Args& args) {
  Contention contention;
  SetupSampler setups(wl, contention);
  setups.before_op(0.0);
  wl.reference();
  std::printf("inputs: %s\n", wl.describe().c_str());

  std::vector<OpRecord> ops;
  std::vector<double> op_probes;  // mean probe around each op, ms
  OpTally tally;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < args.seconds || ops.size() < kMinOps) {
    if (seconds_since(start) > kMaxLoopSeconds) break;
    setups.before_op(seconds_since(start));
    const double probe_before = contention.probe();
    ops.push_back(wl.op(ops.size(), false));
    op_probes.push_back(0.5 * (probe_before + contention.probe()));
    tally.record(ops.back().ok);
  }
  setups.finish();
  wl.teardown();

  const std::vector<double> wall_ms =
      collect(ops, [](const OpRecord& r) { return 1e3 * r.wall_s; });
  const double total_wall = sum(ops, [](const OpRecord& r) { return r.wall_s; });
  const double tail = tail_percentile(ops.size());
  const std::array<double, 3> q = quartiles(wall_ms);
  std::printf("ops: n=%zu, %zu samples beyond p90 (highest percentile with "
              ">= 10 beyond: p%g), op quartiles %.4f / %.4f / %.4f ms "
              "(iqr/median %.4f), p90 %.4f ms, %.4f ops/s\n",
              ops.size(), samples_beyond(ops.size(), 90.0), tail, q[0], q[1],
              q[2], iqr_share(wall_ms), percentile(wall_ms, 90.0),
              static_cast<double>(ops.size()) / total_wall);
  std::printf("failed_ratio %s\n", tally.failed_ratio().render().c_str());

  // The time metrics are corrected for the contention each sample saw (see
  // contention.hpp). Raw, the mean, the median and the p90 of a run moved
  // 20-30 % between runs of one binary; they are printed above.
  double corrected_s = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i)
    corrected_s += Contention::corrected(ops[i].wall_s, op_probes[i]);
  std::printf("contention: fastest probe %.4f ms, median probe around ops "
              "%.4f ms, op time corrected to the %.2f ms reference probe "
              "%.4f of raw\n",
              contention.fastest_ms(), median(op_probes), kReferenceProbeMs,
              corrected_s / total_wall);

  Metrics m;
  m.put("setup_s", setups.corrected_median_s(), "s");
  m.put("ops_per_s", static_cast<double>(ops.size()) / corrected_s, "1/s");
  m.put("reactions_per_s",
        sum(ops, [](const OpRecord& r) { return r.runs.reactions; }) /
            corrected_s,
        "1/s");
  m.put("energy_err_pct", wl.energy_err_pct(), "%");
  m.put("winner_match",
        Ratio{sum(ops, [](const OpRecord& r) { return r.winner_match; }),
              static_cast<double>(ops.size())});
  m.put("peak_rss_mb", peak_rss_mb(), "MB");
  m.print();

  const bool correct = tally.failed == 0 && tail >= 90.0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed), m.json().c_str());
  return 0;
}

/// Writes the per-op ledger of the traced ops.
bool write_ledger(const Args& args, const HostRecord& host,
                  const std::vector<OpRecord>& traced) {
  const std::string path = args.out_dir + "/ledger-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"host\": " << host.to_json() << ", \"ops\": [";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const OpRecord& r = traced[i];
    out << (i ? ",\n  " : "\n  ") << "{\"wall_ns\": "
        << static_cast<long long>(r.wall_s * 1e9)
        << ", \"run_wall_ns\": " << static_cast<long long>(r.runs.wall_s * 1e9)
        << ", \"setup_in_op_ns\": "
        << static_cast<long long>(r.setup_in_op_s * 1e9)
        << ", \"transport_ns\": "
        << static_cast<long long>((r.rpc_s - r.server_s) * 1e9)
        << ", \"layers\": {";
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      const auto& pl = r.ledger.layers[l];
      out << (l ? ", \"" : "\"") << layer_name(static_cast<Layer>(l))
          << "\": {\"calls\": " << pl.calls << ", \"busy_ns\": " << pl.busy_ns
          << ", \"prepare_ns\": " << pl.prepare_ns << "}";
    }
    out << "}, \"hw_flush_ns\": " << r.ledger.hw_flush_ns << "}";
  }
  out << "\n]}\n";
  std::printf("ledger: %zu traced ops written to %s\n", traced.size(),
              path.c_str());
  return static_cast<bool>(out);
}

/// The per-layer metrics of a traced run.
int run_traced(Workload& wl, const Args& args, const HostRecord& host) {
  Contention contention;
  SetupSampler setups(wl, contention);
  setups.before_op(0.0);
  wl.reference();
  std::printf("inputs: %s\n", wl.describe().c_str());

  std::vector<OpRecord> plain, traced;
  OpTally tally;
  std::size_t mismatches = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0;
       seconds_since(start) < args.seconds || traced.size() < kMinTracedPairs;
       ++i) {
    if (seconds_since(start) > kMaxLoopSeconds) break;
    setups.before_op(seconds_since(start));
    // Alternate which side runs first so warm-up effects cancel.
    for (const bool t : {i % 2 == 1, i % 2 == 0}) {
      if (!t) {
        plain.push_back(wl.op(i, false));
        tally.record(plain.back().ok);
        continue;
      }
      telemetry::set_enabled(true, false);
      const CounterTotals c0 = counter_totals();
      const LedgerSnapshot l0 = ledger_snapshot();
      OpRecord r = wl.op(i, true);
      r.ledger = ledger_snapshot() - l0;
      r.counters = counter_totals() - c0;
      telemetry::set_enabled(false, false);
      traced.push_back(std::move(r));
      tally.record(traced.back().ok);
    }
    if (plain.back().fingerprint != traced.back().fingerprint) {
      ++mismatches;
      std::fprintf(stderr, "op %llu: traced result differs from plain:\n  %s\n  %s\n",
                   static_cast<unsigned long long>(i),
                   plain.back().fingerprint.c_str(),
                   traced.back().fingerprint.c_str());
    }
  }
  setups.finish();
  wl.teardown();

  const auto busy = [](Layer l) {
    return [l](const OpRecord& r) { return r.ledger[l].busy_ns * 1e-9; };
  };
  const double wall = sum(traced, [](const OpRecord& r) { return r.wall_s; });
  const double run_wall =
      sum(traced, [](const OpRecord& r) { return r.runs.wall_s; });
  const double backend_busy = sum(
      traced, [](const OpRecord& r) { return r.ledger.busy_ns_total() * 1e-9; });
  const auto master_self = [](const OpRecord& r) {
    return r.runs.wall_s - r.ledger.busy_ns_total() * 1e-9;
  };
  const auto transport = [](const OpRecord& r) { return r.rpc_s - r.server_s; };
  const double accounted =
      run_wall + sum(traced, [](const OpRecord& r) { return r.setup_in_op_s; }) +
      sum(traced, transport);
  const Ratio unattributed{wall - accounted, wall};
  const Ratio overhead{
      median(collect(traced, [](const OpRecord& r) { return r.wall_s; })),
      median(collect(plain, [](const OpRecord& r) { return r.wall_s; }))};
  const auto ms_p50 = [&](auto f) { return 1e3 * median(collect(traced, f)); };
  const auto p50 = [&](auto f) { return median(collect(traced, f)); };
  const auto share = [&](auto f) { return Ratio{sum(traced, f), wall}; };
  const auto total_ratio = [&](auto num, auto den) {
    return Ratio{sum(traced, num), sum(traced, den)};
  };

  std::printf("traced: %zu traced + %zu plain ops, %zu result mismatches; "
              "op wall %.6f s = master self %.6f + backends %.6f + set-up in "
              "ops %.6f + transport %.6f + unattributed %.6f\n",
              traced.size(), plain.size(), mismatches, wall,
              run_wall - backend_busy, backend_busy,
              sum(traced, [](const OpRecord& r) { return r.setup_in_op_s; }),
              sum(traced, transport), wall - accounted);

  const auto calls = [](Layer l) {
    return [l](const OpRecord& r) { return r.ledger[l].calls; };
  };

  Metrics m;
  m.put("master.self_ms", ms_p50(master_self), "ms");
  m.put("master.share", share(master_self));
  m.put("master.reactions",
        p50([](const OpRecord& r) { return r.runs.reactions; }), "count");
  m.put("master.ns_per_reaction",
        1e9 * sum(traced, master_self) /
            sum(traced, [](const OpRecord& r) { return r.runs.reactions; }),
        "ns");
  m.put("master.accel_served_ratio",
        total_ratio([](const OpRecord& r) { return r.runs.cache_hits_served; },
                    [](const OpRecord& r) { return r.runs.sw_reactions; }));
  m.put("iss.calls", p50(calls(Layer::kIss)), "count");
  m.put("iss.busy_ms", ms_p50(busy(Layer::kIss)), "ms");
  m.put("iss.share", share(busy(Layer::kIss)));
  m.put("iss.instructions",
        p50([](const OpRecord& r) { return r.runs.iss_instructions; }),
        "count");
  m.put("iss.ns_per_instruction",
        1e9 * Ratio{sum(traced, busy(Layer::kIss)),
                    sum(traced, [](const OpRecord& r) {
                      return r.runs.iss_instructions;
                    })}.value(),
        "ns");
  m.put("iss.block_hit_ratio",
        total_ratio([](const OpRecord& r) { return r.counters.block_hits; },
                    [](const OpRecord& r) {
                      return r.counters.block_hits + r.counters.block_decodes;
                    }));
  m.put("hw.cost_calls",
        p50([](const OpRecord& r) { return r.ledger.hw_cost_calls; }), "count");
  m.put("hw.enqueue_calls",
        p50([](const OpRecord& r) { return r.ledger.hw_enqueue_calls; }),
        "count");
  m.put("hw.flush_ms",
        ms_p50([](const OpRecord& r) { return r.ledger.hw_flush_ns * 1e-9; }),
        "ms");
  m.put("hw.busy_ms", ms_p50(busy(Layer::kHw)), "ms");
  m.put("hw.share", share(busy(Layer::kHw)));
  m.put("hw.gate_cycles",
        p50([](const OpRecord& r) { return r.runs.gate_sim_cycles; }), "count");
  m.put("hw.ns_per_gate_cycle",
        1e9 * Ratio{sum(traced, busy(Layer::kHw)),
                    sum(traced, [](const OpRecord& r) {
                      return r.runs.gate_sim_cycles;
                    })}.value(),
        "ns");
  m.put("hw.rcache_hit_ratio",
        total_ratio([](const OpRecord& r) { return r.counters.rcache_hits; },
                    [](const OpRecord& r) {
                      return r.counters.rcache_hits + r.counters.rcache_misses;
                    }));
  m.put("bus.calls", p50(calls(Layer::kBus)), "count");
  m.put("bus.busy_ms", ms_p50(busy(Layer::kBus)), "ms");
  m.put("bus.share", share(busy(Layer::kBus)));
  m.put("bus.wait_per_transfer",
        total_ratio([](const OpRecord& r) { return r.runs.bus_wait_cycles; },
                    [](const OpRecord& r) { return r.runs.bus_transfers; }),
        "cycles");
  m.put("cache.calls", p50(calls(Layer::kCache)), "count");
  m.put("cache.busy_ms", ms_p50(busy(Layer::kCache)), "ms");
  m.put("cache.share", share(busy(Layer::kCache)));
  m.put("cache.icache_miss_ratio",
        total_ratio([](const OpRecord& r) { return r.runs.icache_misses; },
                    [](const OpRecord& r) { return r.runs.icache_accesses; }));
  m.put("cache.l1_hit_ratio",
        total_ratio([](const OpRecord& r) { return r.runs.l1_hits; },
                    [](const OpRecord& r) { return r.runs.l1_accesses; }));
  m.put("cache.invalidations",
        p50([](const OpRecord& r) { return r.runs.invalidations; }), "count");
  m.put("iss.prepare_ms", setups.prepare_ms(Layer::kIss), "ms");
  m.put("hw.prepare_ms", setups.prepare_ms(Layer::kHw), "ms");
  m.put("explore.analytical_ms",
        ms_p50([](const OpRecord& r) { return r.explore_analytical_s; }), "ms");
  m.put("explore.coarse_ms",
        ms_p50([](const OpRecord& r) { return r.explore_coarse_s; }), "ms");
  m.put("explore.exact_ms",
        ms_p50([](const OpRecord& r) { return r.explore_exact_s; }), "ms");
  m.put("explore.prefilter_kept",
        p50([](const OpRecord& r) { return r.prefilter_kept; }), "count");
  m.put("explore.points_evaluated",
        p50([](const OpRecord& r) { return r.points_evaluated; }), "count");
  m.put("serve.rpc_ms", ms_p50([](const OpRecord& r) { return r.rpc_s; }),
        "ms");
  m.put("serve.server_ms",
        ms_p50([](const OpRecord& r) { return r.server_s; }), "ms");
  m.put("serve.transport_ms", ms_p50(transport), "ms");
  m.put("serve.warm_hit_ratio",
        total_ratio([](const OpRecord& r) { return r.warm_hits; },
                    [](const OpRecord& r) {
                      return r.warm_hits + r.warm_fills;
                    }));
  m.put("traced.unattributed_share", unattributed);
  m.put("traced.overhead_ratio", overhead);
  m.print();

  const bool written = write_ledger(args, host, traced);
  const bool accounted_ok =
      std::fabs(unattributed.value()) <= kMaxUnattributedShare;
  if (!accounted_ok)
    std::fprintf(stderr, "traced ledger leaves %.4f of the op wall time "
                 "unattributed (limit %.2f)\n",
                 unattributed.value(), kMaxUnattributedShare);
  const bool correct =
      tally.failed == 0 && mismatches == 0 && accounted_ok && written;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed + mismatches),
              m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <nic_stream|mesh_sweep|"
                 "serve_warm> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  register_timed_backends();
  const HostRecord host = probe_host();
  std::printf("e2ebench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("%s\n", host.render().c_str());
  const int cpu = pin_to_current_cpu();
  std::printf("pinned: hw_flush_threads=%u explore_threads=%u "
              "serve_threads=%u clients=1 sync_spin=0 cache_hit_spin=0 "
              "cpu=%d\n",
              kHwFlushThreads, kExploreThreads, kServeThreads, cpu);
  try {
    std::unique_ptr<Workload> wl =
        make_workload(args.workload, args.seed, args.trace, args.out_dir);
    if (!wl) {
      std::fprintf(stderr, "unknown workload \"%s\"\n", args.workload.c_str());
      return 2;
    }
    return args.trace ? run_traced(*wl, args, host) : run_plain(*wl, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
