// Gate-level reaction cache: memoize (state, staged inputs) -> (energy,
// next-state delta).
//
// The paper's acceleration idea — cache the expensive low-level estimate the
// first time a situation is seen, replay it after — applied one layer below
// the (task, path) energy cache: CFSMs revisit a small set of
// (register-state, input-vector) pairs, yet every GateSim::step() re-sweeps
// the levelized netlist. A hit here replays a whole reaction with one probe
// of a flat table plus an exact state restore, bit-identical to the uncached
// path (the cached energy is the double computed on the miss; the restored
// net values, pending dirty marks and counters are exact).
//
// Keying. A reaction's outcome is a pure function of the simulator's
// complete state at entry (net values + pending dirty marks) and the staged
// primary-input vector. Register values alone do NOT determine that state —
// at a reaction boundary the combinational nets still reflect the previous
// inputs, and the clock edge left dirty marks behind — but the tuple
//
//   (PI vector applied by the previous step, register state at the previous
//    step's entry)
//
// does: the combinational nets settled from exactly those two, the current
// register values latched from that settle, and the pending marks are the
// consumers of the Q bits that toggled, laid down in DFF order. So the
// cache keys on (post-reset flag, current PI net values, tracked
// previous-entry register values, staged inputs) — all cheap to read — and
// equal keys imply bit-identical complete states. The post-reset state
// carries its own flag: it is the one state whose empty mark set is not
// implied by net values alone.
//
// Invalidation. reset() re-anchors tracking (detected via
// GateSim::reset_count(), so estimator-side resets — begin_run, kNoPath
// batch entries, separate_reset — need no cache-aware call sites). A
// force_net() that actually changes a net (sync_hw_vars resynchronizing
// registers after accelerated reactions) de-anchors: forced writes leave
// dirty marks the key tuple does not capture, so the cache bypasses to real
// step()s until the next reset(). Entries stay valid across both, and the
// table persists across runs for warm-start hits. Per-run config changes
// that matter clear the table; reaching max_entries clears it wholesale
// (generation clear), like the ISS block cache.
//
// Layout. The table is flat: an open-addressed slot array of {hash tag,
// entry index} probed linearly, every entry's key words back to back in one
// array (compared with memcmp), and every entry's toggles in fixed-size
// blocks. A miss appends to these and allocates only when one of them is
// full; nothing is ever copied to grow except the small per-entry arrays.
// A generation clear resets the counts and the slots and returns the toggle
// blocks to the allocator.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/gatesim.hpp"

namespace socpower::telemetry {
class Counter;
}  // namespace socpower::telemetry

namespace socpower::hw {

struct ReactionCacheConfig {
  bool enabled = true;
  /// Entry bound; reaching it drops the whole table (generation clear).
  std::size_t max_entries = 4096;
  /// Telemetry namespace for hit/miss/eviction counters ("<prefix>.hits"
  /// etc.); empty publishes nothing.
  std::string telemetry_prefix;
};

/// One serialized reaction-table entry (serve checkpoints): the key words
/// plus the memoized replay. Keys are pure content — (post-reset flag,
/// applied PIs, previous-entry registers, staged inputs) — so an exported
/// entry is valid to import into any cache wrapping a simulator of the same
/// netlist, in any process.
struct ExportedReaction {
  std::vector<std::uint64_t> key;
  Joules energy = 0.0;
  std::vector<NetId> toggles;
  std::uint32_t latch_begin = 0;
  std::uint64_t gate_evals = 0;
};

struct ReactionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< anchored steps simulated and memoized
  std::uint64_t bypassed = 0;  ///< steps run uncached (disabled or de-anchored)
  std::uint64_t insertions = 0;
  std::uint64_t capacity_clears = 0;  ///< generation clears at max_entries
  std::uint64_t evicted_entries = 0;  ///< entries dropped by those clears
  std::uint64_t invalidations = 0;    ///< forced-write de-anchors
  std::uint64_t skipped_gate_evals = 0;  ///< gate evaluations hits avoided
  /// Imported entries dropped as malformed for this netlist (wrong key
  /// length, a toggle outside the net range, latch_begin past the toggles).
  std::uint64_t rejected_imports = 0;
};

/// Wraps one GateSim; step() is a drop-in replacement for GateSim::step().
/// Not thread-safe — the estimators keep one cache per hardware unit, and a
/// unit is only ever stepped by one thread at a time (the parallel batch
/// flush dispatches whole units).
class ReactionCache {
 public:
  ReactionCache(GateSim* sim, ReactionCacheConfig cfg);

  /// Evaluate one staged reaction through the cache. Bit-identical to
  /// sim->step() whether it hits, misses, or bypasses.
  CycleResult step();

  /// Re-read per-run knobs (begin_run). Toggling enabled, changing the
  /// telemetry prefix, or shrinking the bound below the current size clears
  /// the table.
  void configure(const ReactionCacheConfig& cfg);
  /// Drop all entries (tracking state is unaffected).
  void clear();

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const ReactionCacheStats& stats() const { return stats_; }

  /// All memoized entries, sorted by key words so checkpoint bytes are
  /// deterministic for a given table state.
  [[nodiscard]] std::vector<ExportedReaction> export_entries() const;
  /// Replaces the table with `entries` (capped at max_entries; excess
  /// entries are dropped, counted as evictions). Tracking state is left
  /// alone: the cache re-anchors at the owner's next reset(), which is when
  /// the imported entries become servable — exactly the warm-across-runs
  /// lifecycle a live table already has. Entries that do not fit this
  /// netlist are dropped and counted in stats().rejected_imports: a replay
  /// writes net values at the stored toggles, so none may be trusted.
  void import_entries(std::vector<ExportedReaction> entries);

 private:
  /// One memoized reaction. Its key words are keys_[i * key_words_ ..) for
  /// entry i, its toggles toggle_count NetIds at `offset` in toggle block
  /// `block`. The full hash is kept so growing the slot array never re-reads
  /// keys.
  struct Entry {
    std::uint64_t hash = 0;
    Joules energy = 0.0;
    std::uint64_t gate_evals = 0;  // evaluations the original miss performed
    std::uint32_t block = 0;
    std::uint32_t offset = 0;
    std::uint32_t toggle_count = 0;
    std::uint32_t latch_begin = 0;  // commit-ordered; latch suffix starts here
  };
  static constexpr std::uint32_t kNoEntry = 0xffffffffu;
  /// An open-addressing slot: the hash's upper half (checked before the
  /// key) and the entry it points at, kNoEntry when free.
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t entry = kNoEntry;
  };
  /// Toggle storage granule: a block holds the toggles of many reactions;
  /// a reaction longer than a block gets a block of its own length.
  static constexpr std::size_t kToggleBlockNets = std::size_t{1} << 14;
  struct ToggleBlock {
    std::unique_ptr<NetId[]> nets;
    std::size_t capacity = 0;
  };

  /// Entry whose key equals `key` (key_words_ words), or kNoEntry.
  [[nodiscard]] std::uint32_t find(const std::uint64_t* key,
                                   std::uint64_t hash) const;
  /// Appends an entry whose key is known to be absent. The caller keeps
  /// size() below max_entries.
  void insert(const std::uint64_t* key, std::uint64_t hash, Joules energy,
              std::span<const NetId> toggles, std::uint32_t latch_begin,
              std::uint64_t gate_evals);
  [[nodiscard]] std::span<const NetId> toggles_of(const Entry& e) const;
  /// Copies `toggles` into the block arena; sets `e`'s block and offset.
  void store_toggles(std::span<const NetId> toggles, Entry& e);
  /// Points the first free slot of `hash`'s probe sequence at `entry`.
  static void place(std::vector<Slot>& slots, std::uint64_t hash,
                    std::size_t entry);
  /// Doubles the slot array (at least 16 slots) and re-places every entry
  /// by its stored hash.
  void grow_slots();

  /// Telemetry handles, resolved once per prefix (registry entries are
  /// stable) so the hot path never builds counter names.
  struct TelemetryCounters {
    telemetry::Counter* hits = nullptr;
    telemetry::Counter* misses = nullptr;
    telemetry::Counter* evictions = nullptr;
    telemetry::Counter* invalidations = nullptr;
    telemetry::Counter* skipped_gate_evals = nullptr;
  };
  TelemetryCounters* counters();

  /// A stretch of consecutive NetIds: key material is read from the
  /// simulator's value bytes a run at a time.
  struct NetRun {
    NetId first;
    NetId count;
  };
  static std::vector<NetRun> runs_of(const std::vector<NetId>& nets);
  /// The value bytes of `runs`' nets, in order, into bytes_scratch_.
  void gather(const std::vector<NetRun>& runs);

  void observe_sim_state();  // detect resets / forced writes since last step
  void build_key();          // into key_scratch_
  void capture_regs(std::vector<std::uint64_t>* out);

  GateSim* sim_;
  std::vector<NetRun> pi_runs_;  // primary-input nets, in index order
  std::vector<NetRun> q_runs_;   // DFF Q nets, in declaration order
  std::vector<std::uint8_t> bytes_scratch_;
  ReactionCacheConfig cfg_;
  ReactionCacheStats stats_;
  // Key layout: [post-reset flag, applied-PI words, previous-entry register
  // words, staged-input words]; built in place in key_scratch_ for every
  // lookup.
  std::size_t key_words_;
  std::vector<std::uint64_t> key_scratch_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full; lazy
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> keys_;
  std::vector<ToggleBlock> blocks_;  // the last one receives new toggles
  std::size_t fill_used_ = 0;        // nets used in the last block
  std::vector<std::uint64_t> q_prev_;  // register values at last step's entry
  std::vector<std::uint64_t> q_cur_scratch_;
  bool after_reset_ = true;   // no step since the last reset()
  bool anchored_ = false;     // false after a forced write until reset()
  std::uint64_t seen_resets_ = 0;
  std::unique_ptr<TelemetryCounters> counters_;
};

}  // namespace socpower::hw
