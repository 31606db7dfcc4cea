#include "hw/reaction_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "telemetry/registry.hpp"

namespace socpower::hw {

namespace {

/// FNV-1a over the key words; distributes fine for the table sizes involved.
std::size_t hash_words(const std::vector<std::uint64_t>& k) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : k) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

/// Appends the bits of a 0/1 byte array, 64 per word, LSB first; a partial
/// last word is zero-padded. Eight bytes at a time: multiplying 0/1 bytes by
/// 0x0102040810204080 gathers byte i's bit into bit 56 + i, carry-free.
void pack_bytes(const std::vector<std::uint8_t>& bytes,
                std::vector<std::uint64_t>* out) {
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
    out->push_back(word);
  }
}

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

std::size_t ReactionCache::KeyHash::operator()(
    const std::vector<std::uint64_t>& k) const {
  return hash_words(k);
}

ReactionCache::ReactionCache(GateSim* sim, ReactionCacheConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
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
                    cfg.max_entries < table_.size();
  if (cfg.telemetry_prefix != cfg_.telemetry_prefix) counters_ = nullptr;
  cfg_ = cfg;
  if (cfg_.max_entries == 0) cfg_.max_entries = 1;
  if (drop) clear();
}

void ReactionCache::clear() { table_.clear(); }

std::vector<ExportedReaction> ReactionCache::export_entries() const {
  std::vector<ExportedReaction> out;
  out.reserve(table_.size());
  for (const auto& [key, e] : table_)
    out.push_back(
        ExportedReaction{key, e.energy, e.toggles, e.latch_begin, e.gate_evals});
  std::sort(out.begin(), out.end(),
            [](const ExportedReaction& a, const ExportedReaction& b) {
              return a.key < b.key;
            });
  return out;
}

void ReactionCache::import_entries(std::vector<ExportedReaction> entries) {
  table_.clear();
  const std::size_t key_len = key_words();
  const auto net_count = static_cast<NetId>(sim_->netlist().net_count());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ExportedReaction& x = entries[i];
    const bool fits =
        x.key.size() == key_len && x.latch_begin <= x.toggles.size() &&
        std::all_of(x.toggles.begin(), x.toggles.end(),
                    [net_count](NetId n) { return n >= 0 && n < net_count; });
    if (!fits) {
      ++stats_.rejected_imports;
      continue;
    }
    if (table_.size() >= cfg_.max_entries) {
      stats_.evicted_entries += entries.size() - i;
      break;
    }
    Entry e;
    e.energy = x.energy;
    e.toggles = std::move(x.toggles);
    e.latch_begin = x.latch_begin;
    e.gate_evals = x.gate_evals;
    table_.emplace(std::move(x.key), std::move(e));
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
  out->clear();
  gather(q_runs_);
  pack_bytes(bytes_scratch_, out);
}

std::size_t ReactionCache::key_words() const {
  const auto words = [](std::size_t bits) { return (bits + 63) / 64; };
  return 1 + 2 * words(sim_->netlist().primary_inputs().size()) +
         words(sim_->netlist().dff_count());
}

void ReactionCache::build_key() {
  key_scratch_.clear();
  // Word 0 distinguishes the post-reset state: it is the one state whose
  // (empty) pending-mark set is not implied by the value words that follow.
  key_scratch_.push_back(after_reset_ ? 1u : 0u);
  // PI vector the previous step applied (the input nets hold it).
  gather(pi_runs_);
  pack_bytes(bytes_scratch_, &key_scratch_);
  // Register values at the previous step's entry (tracked, not readable).
  key_scratch_.insert(key_scratch_.end(), q_prev_.begin(), q_prev_.end());
  // Staged PI vector the upcoming step will apply.
  pack_bytes(sim_->staged_inputs(), &key_scratch_);
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

  const auto it = table_.find(key_scratch_);
  if (it != table_.end()) {
    const Entry& e = it->second;
    ++stats_.hits;
    stats_.skipped_gate_evals += e.gate_evals;
    std::swap(q_prev_, q_cur_scratch_);
    after_reset_ = false;
    if (TelemetryCounters* c = counters()) {
      c->hits->add();
      c->skipped_gate_evals->add(e.gate_evals);
    }
    return sim_->apply_cached_reaction(e.toggles, e.latch_begin, e.energy);
  }

  ++stats_.misses;
  const std::uint64_t evals_before = sim_->gates_evaluated();
  const CycleResult r = sim_->step();
  Entry e;
  e.energy = r.energy;
  e.toggles.assign(sim_->last_toggles().begin(), sim_->last_toggles().end());
  e.latch_begin = static_cast<std::uint32_t>(sim_->last_latch_begin());
  e.gate_evals = sim_->gates_evaluated() - evals_before;
  if (table_.size() >= cfg_.max_entries) {
    // Generation clear, like the ISS block cache: drop everything rather
    // than track per-entry age. Keys are pure content, so dropped entries
    // simply repopulate on their next miss.
    ++stats_.capacity_clears;
    stats_.evicted_entries += table_.size();
    if (TelemetryCounters* c = counters()) c->evictions->add(table_.size());
    table_.clear();
  }
  ++stats_.insertions;
  table_.emplace(key_scratch_, std::move(e));
  std::swap(q_prev_, q_cur_scratch_);
  after_reset_ = false;
  if (TelemetryCounters* c = counters()) c->misses->add();
  return r;
}

}  // namespace socpower::hw
