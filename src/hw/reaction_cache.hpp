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
// table persists across runs for warm-start hits. Reaching max_entries
// clears the table wholesale (generation clear), like the ISS block cache.
//
// Sharing. The memo is a ReactionTable; a ReactionCache is one simulator's
// view of it. Keys are pure content, so any simulator over the same netlist
// and gate program may replay any entry: the hardware estimators hand every
// view the table of the shared hwsyn::HwDesign, so explore points, tiers,
// reference runs and serve sessions replay each other's reactions. A view
// built without a table gets a private one. The view keeps what belongs to
// one simulator: anchoring and register tracking, the key scratch, its own
// stats and its telemetry handles.
//
// Trust. Only a view's own misses go into the table it shares: every entry
// there was simulated in this process. Entries imported from a checkpoint
// are checked for fit, not for truth, so they go into a private table of
// the importing view, probed after the shared one; they serve that view
// alone. An export carries the entries this view has replayed or inserted
// in the table's current generation plus its imported ones, never another
// view's.
//
// Threads. Any number of views, on any threads, may share one table; one
// view is used by one thread at a time. A lookup plus replay takes no lock
// and no atomic read-modify-write. A generation (the slot array, entries,
// keys and toggle blocks) is allocated at a fixed capacity on its first
// insert — max_entries entries and 2 x max_entries slots, rounded up to a
// power of two, never rehashed — and an entry, its key and its toggles are
// written before the slot pointing at them is published with a release
// store; lookups read slots with acquire loads. Inserts and generation
// clears serialize on the table's mutex. A clear installs a new generation
// and bumps the table's epoch; a view refetches its generation (a
// shared_ptr copy, under the mutex) only when the epoch moved, so an old
// generation stays alive, and exact, while a view still reads it. A forked
// child must not step a view of a table another parent thread could have
// been inserting into (dist::Worker switches to private tables).
//
// Layout. A generation is flat: an open-addressed array of slot words
// {hash tag, entry index + 1} probed linearly, every entry's key words back
// to back in one array (compared with memcmp), and every entry's toggles in
// fixed-size blocks. Nothing is copied to grow; a clear drops the whole
// generation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
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

/// One view's counts. The table-level events (generation clears and the
/// entries they drop) count in the view whose insert made them.
struct ReactionCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< anchored steps simulated
  std::uint64_t bypassed = 0;  ///< steps run uncached (disabled or de-anchored)
  /// Misses memoized; a miss whose key another view inserted meanwhile
  /// adds nothing.
  std::uint64_t insertions = 0;
  std::uint64_t capacity_clears = 0;  ///< generation clears at max_entries
  /// Entries dropped by those clears, and imported entries left out at the
  /// bound.
  std::uint64_t evicted_entries = 0;
  std::uint64_t invalidations = 0;    ///< forced-write de-anchors
  std::uint64_t skipped_gate_evals = 0;  ///< gate evaluations hits avoided
  /// Imported entries dropped as malformed for this netlist (wrong key
  /// length, a toggle outside the net range, latch_begin past the toggles).
  std::uint64_t rejected_imports = 0;
};

/// The memo of one netlist: every reaction its views have evaluated. Safe
/// to share between threads (see the header comment); every operation but
/// size() and clear() goes through a ReactionCache.
class ReactionTable {
 public:
  static constexpr std::size_t kDefaultMaxEntries = 4096;

  /// A table of `nl`'s keys holding at most `max_entries` (at least 1)
  /// entries; an insert that finds it full first drops them all
  /// (generation clear).
  explicit ReactionTable(const Netlist& nl,
                         std::size_t max_entries = kDefaultMaxEntries);

  /// Words of one key over this table's netlist.
  [[nodiscard]] std::size_t key_words() const { return key_words_; }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }
  /// Entries in the current generation.
  [[nodiscard]] std::size_t size() const;
  /// Drops every entry: the next insert starts a new generation.
  void clear();

 private:
  friend class ReactionCache;
  struct Entry;
  struct Generation;

  /// Where insert() left a key: the entry's index in the generation of
  /// `epoch`, and the entries a generation clear dropped first (0 when
  /// none).
  struct Placement {
    std::uint64_t epoch = 0;
    std::size_t index = 0;
    std::size_t evicted = 0;
    bool inserted = false;  ///< false when another view inserted it first
  };
  /// Memoizes one reaction unless its key is present. A full generation is
  /// replaced first, after dropping `*reader` (the inserting view's
  /// reference to it).
  Placement insert(const std::uint64_t* key, std::uint64_t hash,
                   Joules energy, std::span<const NetId> toggles,
                   std::uint32_t latch_begin, std::uint64_t gate_evals,
                   std::shared_ptr<const Generation>* reader);
  /// Inserts the absent keys of `entries` while the generation has room;
  /// returns how many absent keys were left out at the bound.
  std::size_t merge(const std::vector<const ExportedReaction*>& entries);
  /// Appends the current generation's entries to `out`: all of them when
  /// `only` is null, else those whose bit is set in `*only` if the
  /// generation is the one of `epoch`.
  void export_entries(std::vector<ExportedReaction>* out,
                      const std::vector<std::uint64_t>* only,
                      std::uint64_t epoch) const;
  /// The current generation (null while empty) and its epoch.
  std::shared_ptr<const Generation> current(std::uint64_t* epoch) const;
  /// Replaces the current generation; caller holds mu_.
  void install(std::shared_ptr<Generation> next);

  std::size_t key_words_;
  std::size_t max_entries_;
  mutable std::mutex mu_;  // serializes inserts, clears and whole-table reads
  std::shared_ptr<Generation> current_;  // guarded by mu_
  /// Bumped, under mu_, whenever current_ changes: views poll it to know
  /// when to refetch their generation, and it names the generation their
  /// replayed-entry bits refer to.
  std::atomic<std::uint64_t> epoch_{0};
};

/// One simulator's view of a ReactionTable; step() is a drop-in replacement
/// for GateSim::step(). One thread at a time per view; any number of views
/// may share a table.
class ReactionCache {
 public:
  /// A view of `table`, which must hold keys of `sim`'s netlist (a private
  /// table when null).
  ReactionCache(GateSim* sim, ReactionCacheConfig cfg,
                std::shared_ptr<ReactionTable> table = nullptr);

  /// Evaluate one staged reaction through the cache. Bit-identical to
  /// sim->step() whether it hits, misses, or bypasses.
  CycleResult step();

  /// Re-read per-run knobs (begin_run); the table is left alone.
  void configure(const ReactionCacheConfig& cfg);
  /// Drop this view's reference to the table's generation; the next step()
  /// fetches the current one. An idle view calls it so that a generation
  /// another view replaces is freed at once, not kept alive by this view.
  void release() { gen_.reset(); }

  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  /// Entries this view may replay: the table's, whichever views inserted
  /// them, plus its imported ones (a key in both counts twice).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const ReactionCacheStats& stats() const { return stats_; }

  /// The entries this view has replayed or inserted in the table's current
  /// generation, and its imported ones, sorted by key words (a key in both
  /// once) so checkpoint bytes are deterministic; none from a disabled
  /// view, which leaves the table alone.
  [[nodiscard]] std::vector<ExportedReaction> export_entries() const;
  /// Merges `entries` into this view's private import table: keys it lacks
  /// go in until it holds the shared table's max_entries, the rest are
  /// dropped and counted as evictions. They serve this view only, after a
  /// miss in the shared table, and are never inserted there. Tracking state
  /// is left alone: the view re-anchors at the owner's next reset(), which
  /// is when the imported entries become servable. Entries that do not fit
  /// this netlist are dropped and counted in stats().rejected_imports: a
  /// replay writes net values at the stored toggles, so none may be
  /// trusted. A disabled view imports nothing.
  void import_entries(const std::vector<ExportedReaction>& entries);

 private:
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

  /// The table's current generation, refetched only when its epoch moved.
  const ReactionTable::Generation* generation();
  /// Marks entry `index` of the generation of `epoch` as replayed or
  /// inserted by this view.
  void touch(std::uint64_t epoch, std::size_t index);
  void observe_sim_state();  // detect resets / forced writes since last step
  void build_key();          // into key_scratch_
  void capture_regs(std::vector<std::uint64_t>* out);

  GateSim* sim_;
  std::shared_ptr<ReactionTable> table_;
  std::shared_ptr<const ReactionTable::Generation> gen_;  // as of seen_epoch_
  std::uint64_t seen_epoch_ = 0;
  /// One bit per entry of the generation of touched_epoch_ that this view
  /// replayed or inserted: what export_entries() returns of the table.
  std::vector<std::uint64_t> touched_;
  std::uint64_t touched_epoch_ = 0;
  /// Imported entries: a table no other view sees (null until an import),
  /// and its generation, which never changes after the import.
  std::unique_ptr<ReactionTable> imported_;
  std::shared_ptr<const ReactionTable::Generation> imported_gen_;
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
  std::vector<std::uint64_t> q_prev_;  // register values at last step's entry
  std::vector<std::uint64_t> q_cur_scratch_;
  bool after_reset_ = true;   // no step since the last reset()
  bool anchored_ = false;     // false after a forced write until reset()
  std::uint64_t seen_resets_ = 0;
  std::unique_ptr<TelemetryCounters> counters_;
};

}  // namespace socpower::hw
