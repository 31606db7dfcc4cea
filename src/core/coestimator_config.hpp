// Shared vocabulary of the co-estimation framework: the configuration,
// result, and hook types that the simulation master, the component-estimator
// backends, and the public CoEstimator facade all speak.
//
// These types used to live inside coestimator.hpp; they are split out so the
// backends under estimators/ can be compiled without pulling in the facade
// (and so a future out-of-process backend can share the wire vocabulary
// without linking the master at all).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bus/bus_model.hpp"
#include "bus/noc_model.hpp"
#include "cache/cache_sim.hpp"
#include "cache/coherence.hpp"
#include "cfsm/cfsm.hpp"
#include "core/compactor.hpp"
#include "core/energy_cache.hpp"
#include "iss/iss.hpp"
#include "sim/event_queue.hpp"
#include "swsyn/rtos.hpp"

namespace socpower::core {

enum class Acceleration { kNone, kCaching, kMacroModel, kSampling };

[[nodiscard]] const char* acceleration_name(Acceleration a);

/// Effective per-event final values of an emission list: same-instant
/// duplicates collapse at the receiver with the later emission winning, and
/// the result is sorted by event id. Used by the verify_lowlevel
/// cross-checks; exposed for unit testing.
[[nodiscard]] std::vector<cfsm::EmittedEvent> effective_emissions(
    std::vector<cfsm::EmittedEvent> ems);

/// Hardware power estimator choice per ASIC (paper Section 3: "the hardware
/// netlist may be represented at the RT-level or the gate-level, depending
/// on the accuracy/efficiency requirements").
enum class HwEstimatorKind { kGateLevel, kRtl };

/// Which interconnect implementation carries the shared-memory traffic:
/// the arbitrated shared bus of the paper's Section 3 (default), or the
/// XY-routed mesh NoC that generalizes its line model per hop.
enum class InterconnectKind { kBus, kNoc };

[[nodiscard]] const char* interconnect_name(InterconnectKind k);

/// Which registered ComponentEstimator backend fills each role of the
/// paper's Figure 2(b). The defaults are the built-in in-process backends;
/// alternate implementations (an emulated HW estimator, a remote ISS over
/// IPC) register under their own names in the EstimatorRegistry and are
/// selected here without touching the master.
struct EstimatorSelection {
  std::string sw = "sw.iss";
  std::string hw_gate = "hw.gate";
  std::string hw_rtl = "hw.rtl";
  std::string cache = "cache.icache";
  std::string bus = "bus.arbiter";
  /// Interconnect backend used when interconnect == InterconnectKind::kNoc.
  std::string noc = "bus.noc";
};

/// Latency, in cycles, of one hardware transition before its bus traffic.
/// Constant: that is what lets the gate-level power simulator run in batch
/// mode without ever feeding timing back to the master (Section 5.1).
inline constexpr unsigned kHwReactionCycles = 1;

// Configuration of one co-estimation setup.
//
// Mutability contract: the knob table (for_each_knob(), below the struct)
// declares each field's scope once. kStructural knobs are consumed when the
// simulators are built — by the CoEstimator constructor or by prepare() —
// and are frozen from prepare() on; mutating one through the config()
// accessor afterwards aborts at the next run() with the knob named (see
// structural_mismatch()). Every other field is (re)read by each
// run()/run_separate() and may be changed freely between runs — that is
// what the acceleration-mode sweeps in the benches and examples do.
struct CoEstimatorConfig {
  ElectricalParams electrical;
  iss::IssConfig iss;
  /// Data-dependent (DSP-style) term of the instruction power model; the
  /// default 0 models the SPARClite (data-independent, caching is exact).
  double data_nj_per_toggle = 0.0;

  /// Number of embedded CPU cores. Software tasks are mapped to a core via
  /// map_sw(task, core, priority); each core gets its own RTOS ready queue,
  /// its own SW estimator instance (ISS + block cache + macro library) and
  /// its own instruction cache. 1 reproduces the paper's single-CPU setup
  /// exactly.
  unsigned cores = 1;

  bool enable_icache = true;
  cache::CacheConfig icache;

  /// Which interconnect carries shared-memory traffic (it selects the bus
  /// backend instance).
  InterconnectKind interconnect = InterconnectKind::kBus;
  bus::BusParams bus;
  /// Mesh geometry/energy knobs, consumed when interconnect == kNoc.
  /// Like `bus`, re-read at every begin_run(), which rebuilds the NoC model.
  bus::NocParams noc;
  /// MSI-coherent private-L1/shared-L2 model for the cores' shared-data
  /// traffic. Off by default (single-CPU configs don't pay for it).
  cache::CoherenceConfig coherence;
  swsyn::RtosConfig rtos;
  /// Supply current (mA) the CPU draws while blocked on its shared-memory
  /// transfers (low-power wait state; lower than a pipeline stall).
  double bus_wait_current_ma = 70.0;

  Acceleration accel = Acceleration::kNone;
  EnergyCacheConfig energy_cache;
  CompactionParams sampling;
  /// Apply caching/sampling to hardware transitions too. Off by default:
  /// the paper's Table 1 experiment accelerates the ISS side only, which is
  /// why it reports zero accuracy loss (the gate-level estimator is
  /// data-dependent). Enabling this is the HW-caching ablation.
  bool accelerate_hw = false;
  /// Synthetic synchronization overhead, in spin iterations, charged per
  /// lower-level simulator invocation (ISS run / gate-sim step). The paper's
  /// component estimators are separate processes driven over IPC, and it
  /// identifies that communication/synchronization cost as a dominant part
  /// of co-estimation time; in-process calls have none, so benchmarks can
  /// model it explicitly. 0 disables.
  unsigned sync_spin = 0;
  /// Bookkeeping cost (spin iterations) per transition served from the
  /// energy cache. In the paper's tool the ISS session stays attached under
  /// caching and the master still performs per-transition table management
  /// and delay annotation across the co-simulation backplane — cheaper than
  /// a full ISS round-trip but not free (visible in Table 1 vs Table 2 CPU
  /// times). Macro-modeling pre-annotates the behavioral model and has no
  /// such per-transition cost. 0 disables.
  unsigned cache_hit_spin = 0;
  /// Run the hardware power simulator in batch mode: input vectors are
  /// collected during co-simulation and evaluated in one pass at the end
  /// (possible because a HW transition's latency is constant, so timing
  /// feedback never needs the gate simulator). This is the paper's "run
  /// hardware power analysis in batch-mode on long traces" (Section 5.1).
  /// Forced off when verify_lowlevel or accelerate_hw is set.
  bool hw_batch = true;
  /// Memoize gate-level reactions per hardware unit: key = (register state,
  /// applied + staged input vectors), value = the exact CycleResult plus the
  /// next-state delta, so a repeated reaction replays with one hash lookup
  /// and a state restore instead of a levelized sweep. Bit-identical to the
  /// uncached path — the cached energy is the double the first evaluation
  /// computed and the restored simulator state is exact (see
  /// hw/reaction_cache.hpp for the keying and invalidation rules).
  bool hw_reaction_cache = true;
  /// Entry bound per hardware unit; reaching it drops that unit's table
  /// wholesale (generation clear), like the ISS block cache's bound.
  std::size_t hw_reaction_cache_max_entries = 4096;
  /// Worker threads for the offline hardware batch flush. Each HW backend
  /// unit owns its gate simulator and batch vector, so units evaluate
  /// concurrently; per-unit energies/trace records/hook calls are
  /// accumulated by the worker and merged in component order, so reported
  /// results are bit-identical for any value. 1 = serial, 0 = one per
  /// hardware thread.
  unsigned hw_flush_threads = 1;
  /// Gate-level calibration samples per hardware unit for the analytical
  /// backend (estimators.hw_gate/hw_rtl = "hw.analytical"): the first N
  /// reactions of each unit replay through GateSim while (activity, energy)
  /// samples accumulate; the unit's coefficients are least-squares-fitted
  /// when the target is reached and every later reaction is pure arithmetic.
  /// An imported AnalyticalModel (warm checkpoint, prefilter sweep) skips
  /// the phase entirely.
  unsigned hw_analytical_calibration_vectors = 256;
  /// Static-power knobs of the analytical backend (per McPAT: per-gate
  /// leakage at the 300 K / 250 nm reference, scaled by channel length and
  /// exponentially by temperature — see hw::analytical_leakage_watts).
  /// Leakage integrates over each reaction's latency and is billed into the
  /// unit's energy, with the static share reported separately
  /// (RunResults::process_leakage).
  double hw_leakage_nw_per_gate = 2.0;
  double hw_temperature_k = 300.0;
  double hw_channel_length_nm = 250.0;
  /// Host the hardware power estimators out-of-process: the master selects
  /// the "<hw backend>.remote" proxy, which forks a worker process per
  /// backend and ships batched vectors over the dist wire protocol while
  /// the DE loop keeps running (the paper's multi-process backplane, for
  /// real this time). Results are bit-identical to the in-process backends;
  /// on fork failure or worker death the proxy degrades to an in-process
  /// fallback (telemetry "dist.fallbacks"). No-op for platforms without
  /// fork/socketpair.
  bool hw_remote = false;
  /// Worker processes for explore_sharded(). 1 = serial explore, 0 = one
  /// per hardware thread.
  unsigned dist_workers = 0;
  /// Per-request timeout (ms) before a remote estimator worker is declared
  /// dead and recovery (standby promotion, then in-process fallback) kicks
  /// in. Generous by default: a false positive costs a full log replay.
  unsigned dist_rpc_timeout_ms = 60'000;
  /// Batch entries shipped per kEnqueueChunk slice to a remote hardware
  /// worker. Smaller = more overlap between the master's DE loop and the
  /// worker's gate evaluation, at more framing overhead. Slicing never
  /// changes results (slices drain into the same per-unit sequence).
  unsigned dist_flush_chunk = 256;

  /// Which registered backend serves each estimator role.
  EstimatorSelection estimators;

  /// Retain per-sample power waveforms (needed for waveform()/peak reports;
  /// disable for long batch sweeps).
  bool keep_power_samples = false;
  /// Cross-check ISS / gate-sim functional results against the behavioral
  /// model every transition (slow; on in tests).
  bool verify_lowlevel = false;
  /// Runaway guard for misbehaving systems.
  std::uint64_t max_reactions = 20'000'000;

  /// Checks the configuration for values that would make the simulators
  /// misbehave silently — zero bus widths, negative energies/currents,
  /// a parallel hw_flush_threads request with hw_batch off, unknown
  /// estimator-backend names, out-of-range sampling parameters. Returns one
  /// actionable message per problem; empty means the config is usable.
  /// prepare() calls this and aborts (in every build type) on any error.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Scope of a knob in the table below.
enum class KnobScope {
  /// Frozen at prepare(); the session identity of the serve layer.
  kStructural,
  /// Travels with each run: a serve RunRequest and the dist kBeginRun frame
  /// carry exactly these.
  kRun,
};

namespace detail {

/// The knob table, visiting the same field of every config in `cfgs`:
/// calls f(name, scope, cfgs.<field>...) once per knob. Structural knobs
/// come in the byte order of serve::put_structural (checkpoints and session
/// keys depend on it), run knobs in the order of the serve RunRequest.
/// Fields left out do not travel: the serve layer takes them from the
/// system's config template, and a dist worker inherits them when forked.
template <class F, class... Cfg>
void visit_knobs(F&& f, Cfg&... cfgs) {
  constexpr KnobScope S = KnobScope::kStructural;
  f("electrical.vdd_volts", S, cfgs.electrical.vdd_volts...);
  f("electrical.clock_hz", S, cfgs.electrical.clock_hz...);
  f("iss.memory_bytes", S, cfgs.iss.memory_bytes...);
  f("iss.pipeline_fill_cycles", S, cfgs.iss.pipeline_fill_cycles...);
  f("iss.taken_branch_penalty", S, cfgs.iss.taken_branch_penalty...);
  f("iss.default_max_instructions", S, cfgs.iss.default_max_instructions...);
  f("iss.block_cache", S, cfgs.iss.block_cache...);
  f("iss.block_cache_max_blocks", S, cfgs.iss.block_cache_max_blocks...);
  f("iss.block_cache_max_ops", S, cfgs.iss.block_cache_max_ops...);
  f("rtos.dispatch_cycles", S, cfgs.rtos.dispatch_cycles...);
  f("rtos.dispatch_current_ma", S, cfgs.rtos.dispatch_current_ma...);
  f("data_nj_per_toggle", S, cfgs.data_nj_per_toggle...);
  f("estimators.sw", S, cfgs.estimators.sw...);
  f("estimators.hw_gate", S, cfgs.estimators.hw_gate...);
  f("estimators.hw_rtl", S, cfgs.estimators.hw_rtl...);
  f("estimators.cache", S, cfgs.estimators.cache...);
  f("estimators.bus", S, cfgs.estimators.bus...);
  f("estimators.noc", S, cfgs.estimators.noc...);
  f("hw_remote", S, cfgs.hw_remote...);
  f("cores", S, cfgs.cores...);
  f("interconnect", S, cfgs.interconnect...);
  f("coherence.enabled", S, cfgs.coherence.enabled...);

  constexpr KnobScope R = KnobScope::kRun;
  f("accel", R, cfgs.accel...);
  f("verify_lowlevel", R, cfgs.verify_lowlevel...);
  f("accelerate_hw", R, cfgs.accelerate_hw...);
  f("hw_batch", R, cfgs.hw_batch...);
  f("hw_flush_threads", R, cfgs.hw_flush_threads...);
  f("hw_reaction_cache", R, cfgs.hw_reaction_cache...);
  f("hw_reaction_cache_max_entries", R, cfgs.hw_reaction_cache_max_entries...);
  f("sync_spin", R, cfgs.sync_spin...);
  f("cache_hit_spin", R, cfgs.cache_hit_spin...);
  f("energy_cache.thresh_variance", R, cfgs.energy_cache.thresh_variance...);
  f("energy_cache.thresh_iss_calls", R, cfgs.energy_cache.thresh_iss_calls...);
  f("max_reactions", R, cfgs.max_reactions...);
  f("hw_analytical_calibration_vectors", R,
    cfgs.hw_analytical_calibration_vectors...);
  f("hw_leakage_nw_per_gate", R, cfgs.hw_leakage_nw_per_gate...);
  f("hw_temperature_k", R, cfgs.hw_temperature_k...);
  f("hw_channel_length_nm", R, cfgs.hw_channel_length_nm...);
}

}  // namespace detail

/// Calls f(name, field, scope) once per knob of `cfg` (a const or mutable
/// CoEstimatorConfig), in table order.
template <class Cfg, class F>
void for_each_knob(Cfg& cfg, F&& f) {
  detail::visit_knobs(
      [&f](const char* name, KnobScope scope, auto& field) {
        f(name, field, scope);
      },
      cfg);
}

/// Copies the knobs of `scope` from `src` into `*dst`; every other field of
/// `*dst` is left as it was.
void copy_knobs(const CoEstimatorConfig& src, CoEstimatorConfig* dst,
                KnobScope scope);

/// Compares the structural knobs of two configs; returns the name of the
/// first one that differs (e.g. "iss.memory_bytes"), or nullptr when they
/// match. The master snapshots the config at prepare() and runs this check
/// at every run() to catch post-prepare mutation of baked-in options.
[[nodiscard]] const char* structural_mismatch(const CoEstimatorConfig& a,
                                              const CoEstimatorConfig& b);

/// Hook supplying the shared-memory/bus traffic a reaction performs.
/// Systems attach one to model e.g. "create_pack writes the packet into
/// shared memory" or "checksum reads one DMA block through the arbiter".
/// `pre_state` is the process state before the transition.
using TrafficHook = std::function<std::vector<bus::BusRequest>(
    cfsm::CfsmId, const cfsm::Reaction&, const cfsm::CfsmState& pre_state)>;

/// Observation hook: called once per transition with the measured (or
/// estimated) cost. Drives the Figure 4 histograms and custom reports.
struct TransitionRecord {
  cfsm::CfsmId task = cfsm::kNoCfsm;
  cfsm::PathId path = cfsm::kNoPath;
  sim::SimTime time = 0;
  double cycles = 0.0;
  Joules energy = 0.0;
  bool simulated = true;  // false when served by cache/macromodel/sampling
};
using TransitionHook = std::function<void(const TransitionRecord&)>;

/// Environment/IP-model hook: called for every event occurrence the master
/// pops. Pre-designed IP blocks outside the CFSM network (e.g. the shared
/// memory of the TCP/IP system) observe requests here and may post reply
/// events into the queue. Must be a deterministic function of the observed
/// occurrences.
using EnvironmentHook = std::function<void(const sim::EventOccurrence&,
                                           sim::EventQueue&)>;

struct RunResults {
  Joules total_energy = 0.0;
  /// Energy attributed to each process (indexed by CfsmId).
  std::vector<Joules> process_energy;
  Joules cpu_energy = 0.0;    // all software + RTOS
  Joules hw_energy = 0.0;     // all ASICs
  Joules bus_energy = 0.0;
  Joules cache_energy = 0.0;
  sim::SimTime end_time = 0;

  /// Static (leakage) energy of the analytical HW backend, per process and
  /// in total. Informational split: the amounts are already included in
  /// process_energy / total_energy. Empty / 0 when no analytical backend is
  /// active — that is how render_report decides to show the static column.
  std::vector<Joules> process_leakage;
  Joules leakage_energy = 0.0;

  std::uint64_t reactions = 0;
  std::uint64_t sw_reactions = 0;
  std::uint64_t hw_reactions = 0;
  std::uint64_t iss_invocations = 0;
  std::uint64_t iss_instructions = 0;
  std::uint64_t gate_sim_cycles = 0;
  std::uint64_t cache_hits_served = 0;  // energy-cache hits
  cache::AccessStats icache;
  bus::BusTotals bus_totals;
  /// MSI protocol activity of the coherent L1/L2 model (all-zero when
  /// coherence is off).
  cache::CoherenceTotals coherence;
  double wall_seconds = 0.0;
  bool truncated = false;  // max_reactions guard fired

  [[nodiscard]] std::string summary() const;
};

}  // namespace socpower::core
