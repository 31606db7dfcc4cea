#include "hw/reaction_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "telemetry/registry.hpp"

namespace socpower::hw {

namespace {

/// FNV-1a over the key words; distributes fine for the table sizes involved.
std::uint64_t hash_words(const std::uint64_t* k, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= k[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Writes the bits of a 0/1 byte array to `out`, 64 per word, LSB first; a
/// partial last word is zero-padded. Returns the word past the last one
/// written. Eight bytes at a time: multiplying 0/1 bytes by
/// 0x0102040810204080 gathers byte i's bit into bit 56 + i, carry-free.
std::uint64_t* pack_bytes(std::span<const std::uint8_t> bytes,
                          std::uint64_t* out) {
  static_assert(std::endian::native == std::endian::little,
                "pack_bytes reads byte i of a word at bits 8i");
  for (std::size_t base = 0; base < bytes.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, bytes.size() - base);
    std::uint64_t word = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t x;
      std::memcpy(&x, bytes.data() + base + i, sizeof x);
      word |= ((x * 0x0102040810204080ull) >> 56) << i;
    }
    for (; i < n; ++i)
      word |= static_cast<std::uint64_t>(bytes[base + i]) << i;
    *out++ = word;
  }
  return out;
}

std::size_t words_for(std::size_t bits) { return (bits + 63) / 64; }

std::size_t key_words_of(const Netlist& nl) {
  return 1 + 2 * words_for(nl.primary_inputs().size()) +
         words_for(nl.dff_count());
}

}  // namespace

/// One memoized reaction; its key words sit at the same index in the
/// generation's key array.
struct ReactionTable::Entry {
  Joules energy;
  std::uint64_t gate_evals;  // evaluations the original miss performed
  const NetId* toggles;
  std::uint32_t toggle_count;
  std::uint32_t latch_begin;  // commit-ordered; latch suffix starts here
};

/// A table generation at a fixed capacity. Lookups read the slots without
/// a lock; everything else is written under the table's mutex, and only
/// into entries not yet published.
struct ReactionTable::Generation {
  Generation(std::size_t capacity, std::size_t key_words)
      : key_words(key_words),
        mask(std::bit_ceil(2 * capacity) - 1),
        slots(std::make_unique<std::atomic<std::uint64_t>[]>(mask + 1)),
        entries(std::make_unique_for_overwrite<Entry[]>(capacity)),
        keys(std::make_unique_for_overwrite<std::uint64_t[]>(capacity *
                                                             key_words)) {}

  /// The entry whose key equals `key`, or null. Lock-free: a published
  /// slot's entry, key and toggles were written before its release store.
  [[nodiscard]] const Entry* find(const std::uint64_t* key,
                                  std::uint64_t hash) const {
    const std::uint64_t tag = hash >> 32;
    const std::size_t key_bytes = key_words * sizeof(std::uint64_t);
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::uint64_t s = slots[i].load(std::memory_order_acquire);
      if (s == 0) return nullptr;
      if ((s >> 32) != tag) continue;
      const std::size_t e = (s & 0xffffffffu) - 1;
      if (std::memcmp(keys.get() + e * key_words, key, key_bytes) == 0)
        return &entries[e];
    }
  }

  /// Appends an entry whose key is absent; size < the capacity it was built
  /// with. Caller holds the table's mutex.
  void append(const std::uint64_t* key, std::uint64_t hash, Joules energy,
              std::span<const NetId> toggles, std::uint32_t latch_begin,
              std::uint64_t gate_evals) {
    const std::size_t e = size++;
    std::copy(key, key + key_words, keys.get() + e * key_words);
    entries[e] = {energy, gate_evals, store_toggles(toggles),
                  static_cast<std::uint32_t>(toggles.size()), latch_begin};
    std::size_t i = hash & mask;
    while (slots[i].load(std::memory_order_relaxed) != 0) i = (i + 1) & mask;
    slots[i].store((hash >> 32 << 32) | (e + 1), std::memory_order_release);
  }

  [[nodiscard]] std::size_t index_of(const Entry* e) const {
    return static_cast<std::size_t>(e - entries.get());
  }

  [[nodiscard]] ExportedReaction exported(std::size_t i) const {
    const Entry& e = entries[i];
    const std::uint64_t* key = keys.get() + i * key_words;
    return {{key, key + key_words}, e.energy,
            {e.toggles, e.toggles + e.toggle_count}, e.latch_begin,
            e.gate_evals};
  }

  const std::size_t key_words;
  const std::size_t mask;  // slot count - 1; at most half the slots fill
  /// (hash tag << 32) | (entry index + 1); 0 when free.
  const std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  const std::unique_ptr<Entry[]> entries;
  const std::unique_ptr<std::uint64_t[]> keys;
  std::size_t size = 0;  // guarded by the table's mutex

 private:
  /// Toggle storage granule: a block holds the toggles of many reactions;
  /// a reaction longer than a block gets a block of its own length.
  static constexpr std::size_t kToggleBlockNets = std::size_t{1} << 14;

  /// Copies `toggles` into the block arena; blocks never move.
  const NetId* store_toggles(std::span<const NetId> toggles) {
    const std::size_t n = toggles.size();
    if (blocks_.empty() || fill_used_ + n > block_capacity_) {
      block_capacity_ = std::max(kToggleBlockNets, n);
      blocks_.push_back(
          std::make_unique_for_overwrite<NetId[]>(block_capacity_));
      fill_used_ = 0;
    }
    NetId* at = blocks_.back().get() + fill_used_;
    std::copy(toggles.begin(), toggles.end(), at);
    fill_used_ += n;
    return at;
  }

  std::vector<std::unique_ptr<NetId[]>> blocks_;  // the last one fills
  std::size_t block_capacity_ = 0;                // of the last block
  std::size_t fill_used_ = 0;                     // nets used in it
};

ReactionTable::ReactionTable(const Netlist& nl, std::size_t max_entries)
    : key_words_(key_words_of(nl)),
      max_entries_(std::max<std::size_t>(1, max_entries)) {}

std::size_t ReactionTable::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return current_ ? current_->size : 0;
}

void ReactionTable::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  install(nullptr);
}

void ReactionTable::install(std::shared_ptr<Generation> next) {
  current_ = std::move(next);
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

std::shared_ptr<const ReactionTable::Generation> ReactionTable::current(
    std::uint64_t* epoch) const {
  std::lock_guard<std::mutex> lk(mu_);
  *epoch = epoch_.load(std::memory_order_relaxed);
  return current_;
}

ReactionTable::Placement ReactionTable::insert(
    const std::uint64_t* key, std::uint64_t hash, Joules energy,
    std::span<const NetId> toggles, std::uint32_t latch_begin,
    std::uint64_t gate_evals, std::shared_ptr<const Generation>* reader) {
  std::lock_guard<std::mutex> lk(mu_);
  Placement at;
  if (current_) {
    if (const Entry* e = current_->find(key, hash)) {  // another view won
      at.epoch = epoch_.load(std::memory_order_relaxed);
      at.index = current_->index_of(e);
      return at;
    }
  }
  if (!current_ || current_->size >= max_entries_) {
    // Generation clear, like the ISS block cache: drop everything rather
    // than track per-entry age. Keys are pure content, so dropped entries
    // simply repopulate on their next miss. The old generation is released
    // before the new one is allocated, so unless another view still reads
    // it, the new one reuses its memory.
    at.evicted = current_ ? current_->size : 0;
    reader->reset();
    current_.reset();
    install(std::make_shared<Generation>(max_entries_, key_words_));
  }
  at.epoch = epoch_.load(std::memory_order_relaxed);
  at.index = current_->size;
  at.inserted = true;
  current_->append(key, hash, energy, toggles, latch_begin, gate_evals);
  return at;
}

std::size_t ReactionTable::merge(
    const std::vector<const ExportedReaction*>& entries) {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t dropped = 0;
  for (const ExportedReaction* x : entries) {
    if (!current_)
      install(std::make_shared<Generation>(max_entries_, key_words_));
    // A repeated key keeps the entry already present, as a map insert would.
    const std::uint64_t h = hash_words(x->key.data(), key_words_);
    if (current_->find(x->key.data(), h)) continue;
    if (current_->size >= max_entries_) {
      ++dropped;
      continue;
    }
    current_->append(x->key.data(), h, x->energy, x->toggles, x->latch_begin,
                     x->gate_evals);
  }
  return dropped;
}

void ReactionTable::export_entries(std::vector<ExportedReaction>* out,
                                   const std::vector<std::uint64_t>* only,
                                   std::uint64_t epoch) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!current_) return;
  if (only && epoch != epoch_.load(std::memory_order_relaxed)) return;
  const Generation& g = *current_;
  for (std::size_t i = 0; i < g.size; ++i)
    if (!only || ((*only)[i / 64] >> (i % 64) & 1u))
      out->push_back(g.exported(i));
}

std::vector<ReactionCache::NetRun> ReactionCache::runs_of(
    const std::vector<NetId>& nets) {
  std::vector<NetRun> runs;
  for (const NetId n : nets) {
    if (!runs.empty() && runs.back().first + runs.back().count == n)
      ++runs.back().count;
    else
      runs.push_back({n, 1});
  }
  return runs;
}

void ReactionCache::gather(const std::vector<NetRun>& runs) {
  const std::span<const std::uint8_t> v = sim_->values();
  bytes_scratch_.clear();
  for (const NetRun& r : runs) {
    const auto first = v.begin() + r.first;
    bytes_scratch_.insert(bytes_scratch_.end(), first, first + r.count);
  }
}

ReactionCache::ReactionCache(GateSim* sim, ReactionCacheConfig cfg,
                             std::shared_ptr<ReactionTable> table)
    : sim_(sim),
      table_(table ? std::move(table)
                   : std::make_shared<ReactionTable>(sim->netlist())),
      cfg_(std::move(cfg)),
      key_words_(key_words_of(sim->netlist())),
      key_scratch_(key_words_) {
  if (table_->key_words() != key_words_)
    throw std::invalid_argument(
        "ReactionCache: the table holds keys of another netlist");
  std::vector<NetId> qs;
  for (const Dff& d : sim_->netlist().dffs()) qs.push_back(d.q);
  pi_runs_ = runs_of(sim_->netlist().primary_inputs());
  q_runs_ = runs_of(qs);
  // Adopt the simulator as-is: anchored only if no force_net() has touched
  // it since its last reset() (freshly constructed simulators qualify, and
  // their state is the canonical post-reset one: the constructor settles
  // from all-zero nets exactly like reset() does).
  seen_resets_ = sim_->reset_count();
  anchored_ = !sim_->consume_forced();
  after_reset_ = true;
}

void ReactionCache::configure(const ReactionCacheConfig& cfg) {
  if (cfg.telemetry_prefix != cfg_.telemetry_prefix) counters_ = nullptr;
  cfg_ = cfg;
}

std::size_t ReactionCache::size() const {
  return table_->size() + (imported_ ? imported_->size() : 0);
}

std::vector<ExportedReaction> ReactionCache::export_entries() const {
  std::vector<ExportedReaction> out;
  if (!cfg_.enabled) return out;
  table_->export_entries(&out, &touched_, touched_epoch_);
  if (imported_) imported_->export_entries(&out, nullptr, 0);
  // The table's entry first where a key is in both: it is the one a lookup
  // finds.
  std::stable_sort(out.begin(), out.end(),
                   [](const ExportedReaction& a, const ExportedReaction& b) {
                     return a.key < b.key;
                   });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const ExportedReaction& a,
                           const ExportedReaction& b) {
                          return a.key == b.key;
                        }),
            out.end());
  return out;
}

void ReactionCache::import_entries(
    const std::vector<ExportedReaction>& entries) {
  if (!cfg_.enabled) return;
  const auto net_count = static_cast<NetId>(sim_->netlist().net_count());
  std::vector<const ExportedReaction*> fitting;
  fitting.reserve(entries.size());
  for (const ExportedReaction& x : entries) {
    const bool fits =
        x.key.size() == key_words_ && x.latch_begin <= x.toggles.size() &&
        std::all_of(x.toggles.begin(), x.toggles.end(),
                    [net_count](NetId n) { return n >= 0 && n < net_count; });
    if (fits)
      fitting.push_back(&x);
    else
      ++stats_.rejected_imports;
  }
  if (!imported_)
    imported_ = std::make_unique<ReactionTable>(sim_->netlist(),
                                                table_->max_entries());
  stats_.evicted_entries += imported_->merge(fitting);
  std::uint64_t epoch = 0;
  imported_gen_ = imported_->current(&epoch);
}

ReactionCache::TelemetryCounters* ReactionCache::counters() {
  // Handles resolved once per prefix and cached (registry entries are
  // deque-stable); the steady state pays relaxed atomic adds only, per the
  // telemetry cost contract.
  if (!counters_ && !cfg_.telemetry_prefix.empty()) {
    auto c = std::make_unique<TelemetryCounters>();
    telemetry::Registry& reg = telemetry::registry();
    c->hits = &reg.counter(cfg_.telemetry_prefix + ".hits");
    c->misses = &reg.counter(cfg_.telemetry_prefix + ".misses");
    c->evictions = &reg.counter(cfg_.telemetry_prefix + ".evictions");
    c->invalidations = &reg.counter(cfg_.telemetry_prefix + ".invalidations");
    c->skipped_gate_evals =
        &reg.counter(cfg_.telemetry_prefix + ".skipped_gate_evals");
    counters_ = std::move(c);
  }
  return counters_.get();
}

const ReactionTable::Generation* ReactionCache::generation() {
  // One acquire load per lookup; the shared_ptr copy (an atomic refcount
  // add, under the table's mutex) only after an insert installed a new
  // generation, or after this view let go of its own.
  if (!gen_ || table_->epoch_.load(std::memory_order_acquire) != seen_epoch_)
    gen_ = table_->current(&seen_epoch_);
  return gen_.get();
}

void ReactionCache::touch(std::uint64_t epoch, std::size_t index) {
  if (epoch != touched_epoch_) {
    touched_.assign(words_for(table_->max_entries()), 0);
    touched_epoch_ = epoch;
  }
  touched_[index / 64] |= std::uint64_t{1} << (index % 64);
}

void ReactionCache::observe_sim_state() {
  // Order matters: reset() clears the simulator's forced flag, so a pending
  // forced flag always postdates the newest reset and must win.
  if (sim_->reset_count() != seen_resets_) {
    seen_resets_ = sim_->reset_count();
    // The post-reset state is canonical (nets zeroed, registers at init,
    // no pending marks) — deterministic across resets and across runs, so
    // re-anchoring here is what makes warm-start hits sound.
    after_reset_ = true;
    anchored_ = true;
  }
  if (sim_->consume_forced()) {
    // The simulator now holds a state the key tuple does not describe:
    // forced writes leave dirty marks whose set and order depend on the
    // force sequence, not on net values. Run uncached until the next
    // reset().
    anchored_ = false;
    ++stats_.invalidations;
    if (TelemetryCounters* c = counters()) c->invalidations->add();
  }
}

void ReactionCache::capture_regs(std::vector<std::uint64_t>* out) {
  gather(q_runs_);
  out->resize(words_for(bytes_scratch_.size()));
  pack_bytes(bytes_scratch_, out->data());
}

void ReactionCache::build_key() {
  std::uint64_t* w = key_scratch_.data();
  // Word 0 distinguishes the post-reset state: it is the one state whose
  // (empty) pending-mark set is not implied by the value words that follow.
  *w++ = after_reset_ ? 1u : 0u;
  // PI vector the previous step applied (the input nets hold it).
  gather(pi_runs_);
  w = pack_bytes(bytes_scratch_, w);
  // Register values at the previous step's entry (tracked, not readable).
  w = std::copy(q_prev_.begin(), q_prev_.end(), w);
  // Staged PI vector the upcoming step will apply.
  pack_bytes(sim_->staged_inputs(), w);
}

CycleResult ReactionCache::step() {
  if (!cfg_.enabled) {
    // De-anchor so a mid-stream re-enable (configure without an intervening
    // reset) cannot key against stale tracking state.
    anchored_ = false;
    ++stats_.bypassed;
    return sim_->step();
  }
  observe_sim_state();
  if (!anchored_) {
    ++stats_.bypassed;
    return sim_->step();
  }

  // Register values at this step's entry become q_prev_ for the next lookup.
  capture_regs(&q_cur_scratch_);
  if (after_reset_) q_prev_ = q_cur_scratch_;  // canonical init values
  build_key();

  const std::uint64_t hash = hash_words(key_scratch_.data(), key_words_);
  const ReactionTable::Generation* gen = generation();
  const ReactionTable::Entry* e =
      gen ? gen->find(key_scratch_.data(), hash) : nullptr;
  if (e)
    touch(seen_epoch_, gen->index_of(e));
  else if (imported_gen_)
    e = imported_gen_->find(key_scratch_.data(), hash);
  if (e) {
    ++stats_.hits;
    stats_.skipped_gate_evals += e->gate_evals;
    std::swap(q_prev_, q_cur_scratch_);
    after_reset_ = false;
    if (TelemetryCounters* c = counters()) {
      c->hits->add();
      c->skipped_gate_evals->add(e->gate_evals);
    }
    return sim_->apply_cached_reaction({e->toggles, e->toggle_count},
                                       e->latch_begin, e->energy);
  }

  ++stats_.misses;
  const std::uint64_t evals_before = sim_->gates_evaluated();
  const CycleResult r = sim_->step();
  const ReactionTable::Placement at = table_->insert(
      key_scratch_.data(), hash, r.energy, sim_->last_toggles(),
      static_cast<std::uint32_t>(sim_->last_latch_begin()),
      sim_->gates_evaluated() - evals_before, &gen_);
  touch(at.epoch, at.index);
  if (at.evicted != 0) {
    ++stats_.capacity_clears;
    stats_.evicted_entries += at.evicted;
    if (TelemetryCounters* c = counters()) c->evictions->add(at.evicted);
  }
  if (at.inserted) ++stats_.insertions;
  std::swap(q_prev_, q_cur_scratch_);
  after_reset_ = false;
  if (TelemetryCounters* c = counters()) c->misses->add();
  return r;
}

}  // namespace socpower::hw
