#include "hw/reaction_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
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

}  // namespace

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

ReactionCache::ReactionCache(GateSim* sim, ReactionCacheConfig cfg)
    : sim_(sim),
      cfg_(std::move(cfg)),
      key_words_(1 + 2 * words_for(sim->netlist().primary_inputs().size()) +
                 words_for(sim->netlist().dff_count())),
      key_scratch_(key_words_) {
  if (cfg_.max_entries == 0) cfg_.max_entries = 1;
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
  const bool drop = cfg.enabled != cfg_.enabled ||
                    cfg.telemetry_prefix != cfg_.telemetry_prefix ||
                    cfg.max_entries < entries_.size();
  if (cfg.telemetry_prefix != cfg_.telemetry_prefix) counters_ = nullptr;
  cfg_ = cfg;
  if (cfg_.max_entries == 0) cfg_.max_entries = 1;
  if (drop) clear();
}

void ReactionCache::clear() {
  // The flat arrays keep their capacity for the entries that repopulate the
  // table. The toggle blocks go back to the allocator, which hands the same
  // memory to the next generation's blocks: kept here, they would hold the
  // high-water mark of every generation for the life of the cache.
  entries_.clear();
  keys_.clear();
  std::fill(slots_.begin(), slots_.end(), Slot{});
  blocks_.clear();
  fill_used_ = 0;
}

std::uint32_t ReactionCache::find(const std::uint64_t* key,
                                  std::uint64_t hash) const {
  if (slots_.empty()) return kNoEntry;
  const std::size_t mask = slots_.size() - 1;
  const auto tag = static_cast<std::uint32_t>(hash >> 32);
  const std::size_t key_bytes = key_words_ * sizeof(std::uint64_t);
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot s = slots_[i];
    if (s.entry == kNoEntry) return kNoEntry;
    if (s.tag == tag &&
        std::memcmp(keys_.data() + s.entry * key_words_, key, key_bytes) == 0)
      return s.entry;
  }
}

void ReactionCache::place(std::vector<Slot>& slots, std::uint64_t hash,
                          std::size_t entry) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = hash & mask;
  while (slots[i].entry != kNoEntry) i = (i + 1) & mask;
  slots[i] = {static_cast<std::uint32_t>(hash >> 32),
              static_cast<std::uint32_t>(entry)};
}

void ReactionCache::grow_slots() {
  std::vector<Slot> grown(slots_.empty() ? 16 : 2 * slots_.size());
  for (std::size_t e = 0; e < entries_.size(); ++e)
    place(grown, entries_[e].hash, e);
  slots_ = std::move(grown);
}

void ReactionCache::store_toggles(std::span<const NetId> toggles, Entry& e) {
  const std::size_t n = toggles.size();
  if (blocks_.empty() || fill_used_ + n > blocks_.back().capacity) {
    const std::size_t cap = std::max(kToggleBlockNets, n);
    blocks_.push_back({std::make_unique_for_overwrite<NetId[]>(cap), cap});
    fill_used_ = 0;
  }
  std::copy(toggles.begin(), toggles.end(),
            blocks_.back().nets.get() + fill_used_);
  e.block = static_cast<std::uint32_t>(blocks_.size() - 1);
  e.offset = static_cast<std::uint32_t>(fill_used_);
  e.toggle_count = static_cast<std::uint32_t>(n);
  fill_used_ += n;
}

std::span<const NetId> ReactionCache::toggles_of(const Entry& e) const {
  return {blocks_[e.block].nets.get() + e.offset, e.toggle_count};
}

void ReactionCache::insert(const std::uint64_t* key, std::uint64_t hash,
                           Joules energy, std::span<const NetId> toggles,
                           std::uint32_t latch_begin,
                           std::uint64_t gate_evals) {
  if (2 * (entries_.size() + 1) > slots_.size()) grow_slots();
  place(slots_, hash, entries_.size());
  Entry e;
  e.hash = hash;
  e.energy = energy;
  e.gate_evals = gate_evals;
  e.latch_begin = latch_begin;
  store_toggles(toggles, e);
  entries_.push_back(e);
  keys_.insert(keys_.end(), key, key + key_words_);
}

std::vector<ExportedReaction> ReactionCache::export_entries() const {
  std::vector<ExportedReaction> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const std::uint64_t* key = keys_.data() + i * key_words_;
    const std::span<const NetId> toggles = toggles_of(e);
    out.push_back(ExportedReaction{
        {key, key + key_words_}, e.energy, {toggles.begin(), toggles.end()},
        e.latch_begin, e.gate_evals});
  }
  std::sort(out.begin(), out.end(),
            [](const ExportedReaction& a, const ExportedReaction& b) {
              return a.key < b.key;
            });
  return out;
}

void ReactionCache::import_entries(std::vector<ExportedReaction> entries) {
  clear();
  const auto net_count = static_cast<NetId>(sim_->netlist().net_count());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const ExportedReaction& x = entries[i];
    const bool fits =
        x.key.size() == key_words_ && x.latch_begin <= x.toggles.size() &&
        std::all_of(x.toggles.begin(), x.toggles.end(),
                    [net_count](NetId n) { return n >= 0 && n < net_count; });
    if (!fits) {
      ++stats_.rejected_imports;
      continue;
    }
    if (entries_.size() >= cfg_.max_entries) {
      stats_.evicted_entries += entries.size() - i;
      break;
    }
    // A repeated key keeps its first entry, as a map insert would.
    const std::uint64_t h = hash_words(x.key.data(), key_words_);
    if (find(x.key.data(), h) == kNoEntry)
      insert(x.key.data(), h, x.energy, x.toggles, x.latch_begin,
             x.gate_evals);
  }
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
  if (const std::uint32_t hit = find(key_scratch_.data(), hash);
      hit != kNoEntry) {
    const Entry& e = entries_[hit];
    ++stats_.hits;
    stats_.skipped_gate_evals += e.gate_evals;
    std::swap(q_prev_, q_cur_scratch_);
    after_reset_ = false;
    if (TelemetryCounters* c = counters()) {
      c->hits->add();
      c->skipped_gate_evals->add(e.gate_evals);
    }
    return sim_->apply_cached_reaction(toggles_of(e), e.latch_begin,
                                       e.energy);
  }

  ++stats_.misses;
  const std::uint64_t evals_before = sim_->gates_evaluated();
  const CycleResult r = sim_->step();
  if (entries_.size() >= cfg_.max_entries) {
    // Generation clear, like the ISS block cache: drop everything rather
    // than track per-entry age. Keys are pure content, so dropped entries
    // simply repopulate on their next miss.
    ++stats_.capacity_clears;
    stats_.evicted_entries += entries_.size();
    if (TelemetryCounters* c = counters()) c->evictions->add(entries_.size());
    clear();
  }
  ++stats_.insertions;
  insert(key_scratch_.data(), hash, r.energy, sim_->last_toggles(),
         static_cast<std::uint32_t>(sim_->last_latch_begin()),
         sim_->gates_evaluated() - evals_before);
  std::swap(q_prev_, q_cur_scratch_);
  after_reset_ = false;
  if (TelemetryCounters* c = counters()) c->misses->add();
  return r;
}

}  // namespace socpower::hw
