#include "workloads.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/coestimator.hpp"
#include "core/explorer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "systems/multicore.hpp"
#include "systems/tcpip.hpp"
#include "telemetry/telemetry.hpp"

namespace e2ebench {

namespace core = socpower::core;
namespace serve = socpower::serve;
namespace sim = socpower::sim;
namespace systems = socpower::systems;
namespace telemetry = socpower::telemetry;

void RunTotals::add(const core::RunResults& r) {
  wall_s += r.wall_seconds;
  reactions += r.reactions;
  sw_reactions += r.sw_reactions;
  cache_hits_served += r.cache_hits_served;
  iss_instructions += r.iss_instructions;
  gate_sim_cycles += r.gate_sim_cycles;
  icache_accesses += r.icache.accesses;
  icache_misses += r.icache.misses;
  bus_transfers += r.bus_totals.transfers;
  bus_wait_cycles += r.bus_totals.wait_cycles;
  l1_accesses += r.coherence.accesses;
  l1_hits += r.coherence.l1_hits;
  invalidations += r.coherence.invalidations;
}

CounterTotals CounterTotals::operator-(const CounterTotals& base) const {
  return {block_hits - base.block_hits, block_decodes - base.block_decodes,
          rcache_hits - base.rcache_hits, rcache_misses - base.rcache_misses};
}

CounterTotals counter_totals() {
  const telemetry::Snapshot snap = telemetry::snapshot();
  CounterTotals t;
  t.block_hits = snap.counter_or("iss.block_cache.hits");
  t.block_decodes = snap.counter_or("iss.block_cache.decodes");
  // One reaction cache per HW backend: "estimator.<backend>.rcache.*".
  const auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  for (const auto& c : snap.counters) {
    if (c.name.rfind("estimator.", 0) != 0) continue;
    if (ends_with(c.name, ".rcache.hits")) t.rcache_hits += c.value;
    if (ends_with(c.name, ".rcache.misses")) t.rcache_misses += c.value;
  }
  return t;
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string hex(double x) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// The energies a caller reads, bit for bit.
std::string energy_fingerprint(const core::RunResults& r) {
  return hex(r.total_energy) + " " + hex(r.cpu_energy) + " " +
         hex(r.hw_energy) + " " + hex(r.bus_energy) + " " +
         hex(r.cache_energy);
}

std::string fingerprint(const core::RunResults& r) {
  return energy_fingerprint(r) + " t=" + std::to_string(r.end_time) +
         " rx=" + std::to_string(r.reactions) +
         " gc=" + std::to_string(r.gate_sim_cycles) +
         " in=" + std::to_string(r.iss_instructions);
}

double err_pct(double approx, double exact) {
  return exact != 0.0 ? 100.0 * std::fabs(approx - exact) / std::fabs(exact)
                      : 0.0;
}

/// The benchmark's fixed knobs: spins off (this code, not the modelled IPC)
/// and one flush thread; `traced` selects the timing wrappers.
void pin(core::CoEstimatorConfig& cfg, bool traced) {
  cfg.sync_spin = 0;
  cfg.cache_hit_spin = 0;
  cfg.hw_flush_threads = kHwFlushThreads;
  if (traced) cfg.estimators = timed_selection();
}

/// Refuses a configuration whose thread counts or spins are not the pinned
/// ones, so no result depends on the scheduler or the modelled IPC.
void check_pinned(const core::CoEstimatorConfig& cfg) {
  if (cfg.hw_flush_threads != kHwFlushThreads || cfg.sync_spin != 0 ||
      cfg.cache_hit_spin != 0 || cfg.hw_remote)
    throw std::runtime_error("estimator configuration is not pinned");
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 of the pair: distinct, stable per (seed, index).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// nic_stream: the paper's TCP/IP NIC, exact co-estimation of a fresh packet
// stream per op. The ISS, gate-level evaluation and the bus do the work; the
// acceleration policy and the reaction cache (cold every op, and the
// per-unit working set exceeds its entry bound) sit idle.
// ---------------------------------------------------------------------------
constexpr int kNicPackets = 120;
constexpr int kNicPacketBytes = 128;
constexpr unsigned kNicDmaBlock = 2;

class NicStream final : public Workload {
 public:
  NicStream(std::uint64_t seed, bool trace_mode)
      : seed_(seed), trace_mode_(trace_mode) {}

  void setup() override {
    (void)make(0, false, core::Acceleration::kNone);
    if (trace_mode_) (void)make(0, true, core::Acceleration::kNone);
  }

  void reference() override {
    Instance exact = make(0, false, core::Acceleration::kNone);
    Instance mm = make(0, false, core::Acceleration::kMacroModel);
    const core::RunResults e = exact.est->run(exact.stim);
    const core::RunResults m = mm.est->run(mm.stim);
    err_pct_ = err_pct(m.total_energy, e.total_energy);
  }

  OpRecord op(std::uint64_t index, bool traced) override {
    Instance inst = make(index, traced, core::Acceleration::kNone);
    OpRecord rec;
    const Clock::time_point t0 = Clock::now();
    const core::RunResults r = inst.est->run(inst.stim);
    rec.wall_s = seconds_since(t0);
    rec.runs.add(r);
    rec.fingerprint = fingerprint(r);
    rec.ok = inst.sys->packets_ok(*inst.est) == kNicPackets &&
             inst.sys->packets_bad(*inst.est) == 0 && !r.truncated;
    return rec;
  }

  double energy_err_pct() const override { return err_pct_; }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "nic_stream: TCP/IP NIC, %d packets x %d B per op, DMA %u, "
                  "2 SW tasks on the ISS + 2 gate-level ASICs, accel none, "
                  "fresh seeded packet stream per op; op = run()",
                  kNicPackets, kNicPacketBytes, kNicDmaBlock);
    return buf;
  }

 private:
  struct Instance {
    // The system outlives the estimator: its hooks capture the system.
    std::unique_ptr<systems::TcpIpSystem> sys;
    std::unique_ptr<core::CoEstimator> est;
    sim::Stimulus stim;
  };

  Instance make(std::uint64_t index, bool traced, core::Acceleration accel) {
    systems::TcpIpParams p;
    p.num_packets = kNicPackets;
    p.packet_bytes = kNicPacketBytes;
    p.dma_block_size = kNicDmaBlock;
    p.seed = mix(seed_, index);
    Instance inst;
    inst.sys = std::make_unique<systems::TcpIpSystem>(p);
    core::CoEstimatorConfig cfg;
    cfg.accel = accel;
    pin(cfg, traced);
    inst.est = std::make_unique<core::CoEstimator>(&inst.sys->network(), cfg);
    inst.sys->configure(*inst.est);
    check_pinned(inst.est->config());
    inst.est->prepare();
    inst.stim = inst.sys->stimulus();
    return inst;
  }

  std::uint64_t seed_;
  bool trace_mode_;
  double err_pct_ = 0.0;
};

// ---------------------------------------------------------------------------
// mesh_sweep: the three-tier explorer over the 4-core MSI multicore SoC.
// The grid spans {bus, NoC mesh} x shared_lines x start_gap, drawn from the
// seed; the analytical tier prefilters, macro-model ranks the survivors,
// exact co-estimation verifies the top 3. Every point prepares its own
// estimator, so this loads prepare(), coherence, the interconnect, the
// analytical tier and the explorer while the ISS and gate simulation are
// mostly skipped.
// ---------------------------------------------------------------------------
constexpr unsigned kMeshCores = 4;
constexpr int kMeshPackets = 8;
constexpr sim::SimTime kMeshHorizon = 8192;
constexpr std::size_t kMeshKeep = 8;
constexpr std::size_t kMeshVerifyTop = 3;
constexpr unsigned kMeshCalibrationVectors = 8;

class MeshSweep final : public Workload {
 public:
  MeshSweep(std::uint64_t seed, bool trace_mode) : trace_mode_(trace_mode) {
    // Three of the shared-line counts and four of the start gaps, picked by
    // the seed: 2 x 3 x 4 = 24 points.
    std::vector<unsigned> lines = {1, 2, 3, 4, 6, 8};
    std::vector<sim::SimTime> gaps = {1, 2, 4, 8, 16, 32, 64};
    std::uint64_t s = mix(seed, 0);
    const auto draw = [&s](std::size_t n) {
      s = mix(s, n);
      return static_cast<std::size_t>(s % n);
    };
    std::vector<unsigned> pick_lines;
    while (pick_lines.size() < 3) {
      const std::size_t i = draw(lines.size());
      pick_lines.push_back(lines[i]);
      lines.erase(lines.begin() + static_cast<long>(i));
    }
    std::vector<sim::SimTime> pick_gaps;
    while (pick_gaps.size() < 4) {
      const std::size_t i = draw(gaps.size());
      pick_gaps.push_back(gaps[i]);
      gaps.erase(gaps.begin() + static_cast<long>(i));
    }
    for (const core::InterconnectKind ic :
         {core::InterconnectKind::kBus, core::InterconnectKind::kNoc})
      for (const unsigned l : pick_lines)
        for (const sim::SimTime g : pick_gaps)
          grid_.push_back({ic, l, g,
                           std::string(core::interconnect_name(ic)) + "/l" +
                               std::to_string(l) + "/g" + std::to_string(g)});
  }

  /// One grid point's exact-tier estimator, cycling through the grid.
  void setup() override {
    const GridPoint& p = grid_[setups_++ % grid_.size()];
    (void)make(p, Tier::kExact, false, nullptr);
    if (trace_mode_) (void)make(p, Tier::kExact, true, nullptr);
  }

  void reference() override {
    // Exact co-estimation of every point: the winner every funnel op is
    // compared against.
    double best = 0.0;
    for (const GridPoint& p : grid_) {
      Instance inst = make(p, Tier::kExact, false, nullptr);
      const core::RunResults r = inst.est->run(inst.stim);
      if (exact_winner_.empty() || r.total_energy < best) {
        best = r.total_energy;
        exact_winner_ = p.label;
      }
    }
  }

  OpRecord op(std::uint64_t /*index*/, bool traced) override {
    OpRecord rec;
    std::vector<core::ExplorationPoint> points;
    for (const GridPoint& p : grid_) {
      auto thunk = [this, p, traced, &rec](Tier tier) {
        return [this, p, traced, tier, &rec] {
          ++rec.points_evaluated;
          Instance inst = make(p, tier, traced, &rec.setup_in_op_s);
          const core::RunResults r = inst.est->run(inst.stim);
          rec.runs.add(r);
          return r;
        };
      };
      points.push_back({p.label, thunk(Tier::kCoarse), thunk(Tier::kExact),
                        thunk(Tier::kAnalytical)});
    }
    core::ExploreOptions opts;
    opts.threads = kExploreThreads;
    opts.analytical_prefilter = kMeshKeep;
    const Clock::time_point t0 = Clock::now();
    const core::ExplorationOutcome out =
        core::explore(points, kMeshVerifyTop, opts);
    rec.wall_s = seconds_since(t0);

    rec.explore_analytical_s = out.analytical_seconds;
    rec.explore_coarse_s = out.coarse_seconds;
    rec.explore_exact_s = out.exact_seconds;
    rec.prefilter_kept = out.prefilter_kept;
    for (const auto& e : out.ranked) {
      rec.fingerprint += e.label + ":" + hex(e.coarse_energy) + ":" +
                         (e.exact_energy ? hex(*e.exact_energy) : "-") + ":" +
                         std::to_string(e.coarse_rank) + " ";
    }
    // An op fails on an empty ranking or when it disagrees with the first
    // op of this seed (every op explores the same grid).
    if (first_fingerprint_.empty()) {
      first_fingerprint_ = rec.fingerprint;
      double sum = 0.0;
      int n = 0;
      for (const auto& e : out.ranked) {
        if (!e.exact_energy) continue;
        sum += err_pct(e.coarse_energy, *e.exact_energy);
        ++n;
      }
      err_pct_ = n > 0 ? sum / n : 0.0;
    }
    rec.ok = !out.ranked.empty() && rec.fingerprint == first_fingerprint_;
    rec.winner_match = !out.ranked.empty() && out.best().label == exact_winner_;
    return rec;
  }

  double energy_err_pct() const override { return err_pct_; }

  std::string describe() const override {
    std::string labels;
    for (const GridPoint& p : grid_) labels += " " + p.label;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "mesh_sweep: %u-core MSI multicore, %d packets/worker, "
                  "%zu points, analytical prefilter keeps %zu, macro-model "
                  "coarse, exact top %zu; op = explore(); exact winner %s; "
                  "grid:",
                  kMeshCores, kMeshPackets, grid_.size(), kMeshKeep,
                  kMeshVerifyTop, exact_winner_.c_str());
    return buf + labels;
  }

 private:
  enum class Tier { kAnalytical, kCoarse, kExact };
  struct GridPoint {
    core::InterconnectKind ic;
    unsigned lines;
    sim::SimTime gap;
    std::string label;
  };
  struct Instance {
    std::unique_ptr<systems::MulticoreSystem> sys;
    std::unique_ptr<core::CoEstimator> est;
    sim::Stimulus stim;
  };

  /// Builds and prepares one point's estimator; adds the time to `*setup_s`.
  Instance make(const GridPoint& p, Tier tier, bool traced, double* setup_s) {
    const Clock::time_point t0 = Clock::now();
    systems::MulticoreParams mp;
    mp.cores = kMeshCores;
    mp.num_packets = kMeshPackets;
    mp.interconnect = p.ic;
    mp.shared_lines = p.lines;
    mp.start_gap = p.gap;
    Instance inst;
    inst.sys = std::make_unique<systems::MulticoreSystem>(mp);
    core::CoEstimatorConfig cfg = inst.sys->config_template();
    cfg.accel = tier == Tier::kExact ? core::Acceleration::kNone
                                     : core::Acceleration::kMacroModel;
    if (tier == Tier::kAnalytical) {
      cfg.estimators.hw_gate = "hw.analytical";
      cfg.hw_analytical_calibration_vectors = kMeshCalibrationVectors;
    }
    pin(cfg, false);
    if (traced) {
      const std::string hw_gate = cfg.estimators.hw_gate;
      pin(cfg, true);
      cfg.estimators.hw_gate = timed_name(hw_gate);
    }
    inst.est = std::make_unique<core::CoEstimator>(&inst.sys->network(), cfg);
    inst.sys->configure(*inst.est);
    check_pinned(inst.est->config());
    inst.est->prepare();
    inst.stim = inst.sys->stimulus(kMeshHorizon);
    if (setup_s != nullptr) *setup_s += seconds_since(t0);
    return inst;
  }

  bool trace_mode_;
  std::size_t setups_ = 0;
  std::vector<GridPoint> grid_;
  std::string exact_winner_;
  std::string first_fingerprint_;
  double err_pct_ = 0.0;
};

// ---------------------------------------------------------------------------
// serve_warm: one client, one in-process serve::Server with one worker,
// AF_UNIX transport, a warm 60-packet TCP/IP session. Same HW layer as
// nic_stream, but in the hit regime (reaction-cache and block-cache hits
// near 100 %), so the master loop and the serve transport dominate.
//
// One op is a round of four estimate RPCs, one per acceleration mode. A
// single-RPC op would mix four latency clusters in equal parts, which puts
// the median exactly on a boundary between two of them.
// ---------------------------------------------------------------------------
constexpr int kServePackets = 60;
constexpr core::Acceleration kServeModes[] = {
    core::Acceleration::kNone, core::Acceleration::kCaching,
    core::Acceleration::kMacroModel, core::Acceleration::kSampling};

class ServeWarm final : public Workload {
 public:
  ServeWarm(std::uint64_t seed, bool trace_mode, std::string out_dir)
      : seed_(seed), trace_mode_(trace_mode), out_dir_(std::move(out_dir)) {}

  /// Server start, open_session and the first, cache-filling request. The
  /// first deployment serves the ops; later ones are only timed.
  void setup() override {
    auto d = std::make_unique<Deployment>();
    serve::ServerConfig scfg;
    scfg.socket_path = out_dir_ + "/e2e-" + std::to_string(::getpid()) + "-" +
                       std::to_string(++servers_) + ".sock";
    scfg.threads = kServeThreads;
    scfg.accept_poll_ms = 20;  // bounds how long stop() waits
    d->server = std::make_unique<serve::Server>(scfg);
    if (!d->server->start())
      throw std::runtime_error("cannot start the serve::Server on " +
                               scfg.socket_path);
    std::string error;
    d->client = serve::Client::connect(d->server->socket_path(), &error);
    if (!d->client.valid()) throw std::runtime_error("connect: " + error);
    d->reference = open(*d, false, &d->key);
    if (trace_mode_) {
      const core::RunResults traced = open(*d, true, &d->traced_key);
      if (energy_fingerprint(traced) != energy_fingerprint(d->reference))
        throw std::runtime_error("traced session's first reply differs");
    }
    (live_ ? spare_ : live_) = std::move(d);
  }

  void drop_extra_setup() override { spare_.reset(); }

  void reference() override {}

  OpRecord op(std::uint64_t /*index*/, bool traced) override {
    OpRecord rec;
    const std::string& key = traced ? live_->traced_key : live_->key;
    const std::string exact = energy_fingerprint(live_->reference);
    for (const core::Acceleration mode : kServeModes) {
      core::RunResults res;
      serve::RequestStats stats;
      std::string error;
      const Clock::time_point t0 = Clock::now();
      const bool rpc_ok =
          live_->client.estimate(key, request(mode), &res, &stats, &error);
      rec.rpc_s += seconds_since(t0);
      if (!rpc_ok) {
        std::fprintf(stderr, "serve_warm: estimate failed: %s\n",
                     error.c_str());
        rec.ok = false;
        continue;
      }
      rec.server_s += stats.wall_ms / 1e3;
      rec.warm_hits += stats.warm_hits;
      rec.warm_fills += stats.warm_fills;
      rec.runs.add(res);
      rec.fingerprint += fingerprint(res) + "; ";

      const std::string energies = energy_fingerprint(res);
      if (mode == core::Acceleration::kNone ||
          mode == core::Acceleration::kCaching) {
        // Exact modes: bit-identical to the session's cold kNone reply.
        rec.ok = rec.ok && energies == exact;
      } else {
        // Approximate modes are still deterministic: every reply of a mode
        // repeats its first one.
        const auto [it, first] =
            mode_energies_.emplace(static_cast<int>(mode), energies);
        rec.ok = rec.ok && (first || it->second == energies);
      }
      if (mode != core::Acceleration::kNone)
        mode_err_.emplace(static_cast<int>(mode),
                          err_pct(res.total_energy,
                                  live_->reference.total_energy));
    }
    rec.wall_s = rec.rpc_s;
    return rec;
  }

  void teardown() override {
    spare_.reset();
    live_.reset();
  }

  double energy_err_pct() const override {
    double sum = 0.0;
    for (const auto& [mode, err] : mode_err_) sum += err;
    return mode_err_.empty() ? 0.0 : sum / static_cast<double>(mode_err_.size());
  }

  std::string describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "serve_warm: 1 client -> in-process serve::Server (1 "
                  "worker) over AF_UNIX, warm TCP/IP session of %d packets x "
                  "128 B, DMA 2; op = 4 estimate RPCs (none, caching, "
                  "macromodel, sampling)",
                  kServePackets);
    return buf;
  }

 private:
  struct Deployment {
    std::unique_ptr<serve::Server> server;
    serve::Client client;
    std::string key;
    std::string traced_key;
    core::RunResults reference;  ///< the cold kNone reply

    Deployment() = default;
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;
    ~Deployment() {
      client = serve::Client();
      if (server) server->stop();
    }
  };

  serve::RunRequest request(core::Acceleration mode) const {
    core::CoEstimatorConfig cfg;
    cfg.accel = mode;
    pin(cfg, false);
    check_pinned(cfg);
    return serve::RunRequest::from(cfg);
  }

  /// Opens the plain or traced session and sends its first, cache-filling
  /// kNone request.
  core::RunResults open(Deployment& d, bool traced, std::string* key) {
    serve::SystemParams system;
    system.name = "tcpip";
    system.set("num_packets", kServePackets);
    system.set("packet_bytes", 128);
    system.set("dma_block_size", 2);
    system.set("seed", static_cast<std::int64_t>(mix(seed_, 0) >> 1));
    core::CoEstimatorConfig cfg;
    pin(cfg, traced);
    std::string error;
    bool created = false;
    if (!d.client.open_session(system, serve::StructuralConfig::from(cfg), key,
                               &created, &error))
      throw std::runtime_error("open_session: " + error);
    core::RunResults res;
    serve::RequestStats stats;
    if (!d.client.estimate(*key, request(core::Acceleration::kNone), &res,
                           &stats, &error))
      throw std::runtime_error("first estimate: " + error);
    return res;
  }

  std::uint64_t seed_;
  bool trace_mode_;
  std::string out_dir_;
  int servers_ = 0;
  std::unique_ptr<Deployment> live_;
  std::unique_ptr<Deployment> spare_;
  std::map<int, std::string> mode_energies_;
  std::map<int, double> mode_err_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool trace_mode,
                                        const std::string& out_dir) {
  if (name == "nic_stream") return std::make_unique<NicStream>(seed, trace_mode);
  if (name == "mesh_sweep") return std::make_unique<MeshSweep>(seed, trace_mode);
  if (name == "serve_warm")
    return std::make_unique<ServeWarm>(seed, trace_mode, out_dir);
  return nullptr;
}

}  // namespace e2ebench
