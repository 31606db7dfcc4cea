#include "core/compactor.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

namespace socpower::core {

namespace {

using Unigram = std::unordered_map<std::uint32_t, double>;
using Bigram = std::unordered_map<std::uint64_t, double>;

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void accumulate(std::span<const std::uint32_t> s, std::size_t begin,
                std::size_t end, Unigram& uni, Bigram& bi) {
  for (std::size_t i = begin; i < end; ++i) {
    uni[s[i]] += 1.0;
    if (i + 1 < end) bi[pair_key(s[i], s[i + 1])] += 1.0;
  }
}

double l1_normalized(const std::unordered_map<std::uint64_t, double>& a,
                     double asum,
                     const std::unordered_map<std::uint64_t, double>& b,
                     double bsum) {
  if (asum == 0 || bsum == 0) return asum == bsum ? 0.0 : 2.0;
  double d = 0;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    d += std::fabs(v / asum - (it == b.end() ? 0.0 : it->second / bsum));
  }
  for (const auto& [k, v] : b)
    if (!a.count(k)) d += v / bsum;
  return d;
}

double l1_normalized32(const Unigram& a, double asum, const Unigram& b,
                       double bsum) {
  if (asum == 0 || bsum == 0) return asum == bsum ? 0.0 : 2.0;
  double d = 0;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    d += std::fabs(v / asum - (it == b.end() ? 0.0 : it->second / bsum));
  }
  for (const auto& [k, v] : b)
    if (!a.count(k)) d += v / bsum;
  return d;
}

}  // namespace

SequenceCompactor::SequenceCompactor(CompactionParams params)
    : params_(params) {
  assert(params_.keep_ratio > 0.0 && params_.keep_ratio <= 1.0);
  assert(params_.window > 0);
}

std::vector<std::size_t> SequenceCompactor::select(
    std::span<const std::uint32_t> symbols) const {
  const std::size_t n = symbols.size();
  std::vector<std::size_t> kept;
  if (n == 0) return kept;
  if (n < params_.min_length || params_.keep_ratio >= 1.0) {
    kept.resize(n);
    for (std::size_t i = 0; i < n; ++i) kept[i] = i;
    return kept;
  }

  // Reference statistics of the full buffer.
  Unigram full_uni;
  Bigram full_bi;
  accumulate(symbols, 0, n, full_uni, full_bi);
  const double full_usum = static_cast<double>(n);
  const double full_bsum = static_cast<double>(n - 1);

  // Candidate windows tile the buffer.
  const std::size_t w = std::min(params_.window, n);
  std::vector<std::size_t> starts;
  for (std::size_t s = 0; s + w <= n; s += w) starts.push_back(s);
  if (starts.empty()) starts.push_back(0);

  const std::size_t target =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::ceil(params_.keep_ratio *
                                             static_cast<double>(n) /
                                             static_cast<double>(w))));

  // Greedy: repeatedly add the window whose inclusion minimizes the combined
  // unigram+bigram L1 distance to the full distribution.
  Unigram sel_uni;
  Bigram sel_bi;
  double sel_usum = 0, sel_bsum = 0;
  std::vector<bool> used(starts.size(), false);
  std::vector<std::size_t> chosen;
  for (std::size_t round = 0; round < target && round < starts.size();
       ++round) {
    double best_score = 1e300;
    std::size_t best = starts.size();
    for (std::size_t ci = 0; ci < starts.size(); ++ci) {
      if (used[ci]) continue;
      Unigram u = sel_uni;
      Bigram b = sel_bi;
      const std::size_t begin = starts[ci];
      const std::size_t end = std::min(begin + w, n);
      accumulate(symbols, begin, end, u, b);
      const double usum = sel_usum + static_cast<double>(end - begin);
      const double bsum =
          sel_bsum + static_cast<double>(end - begin > 0 ? end - begin - 1 : 0);
      const double score = l1_normalized32(full_uni, full_usum, u, usum) +
                           l1_normalized(full_bi, full_bsum, b, bsum);
      if (score < best_score) {
        best_score = score;
        best = ci;
      }
    }
    if (best == starts.size()) break;
    used[best] = true;
    const std::size_t begin = starts[best];
    const std::size_t end = std::min(begin + w, n);
    accumulate(symbols, begin, end, sel_uni, sel_bi);
    sel_usum += static_cast<double>(end - begin);
    sel_bsum += static_cast<double>(end - begin - 1);
    chosen.push_back(best);
  }

  std::sort(chosen.begin(), chosen.end());
  for (const std::size_t ci : chosen) {
    const std::size_t begin = starts[ci];
    const std::size_t end = std::min(begin + w, n);
    for (std::size_t i = begin; i < end; ++i) kept.push_back(i);
  }
  if (kept.empty()) kept.push_back(0);
  return kept;
}

double SequenceCompactor::unigram_distance(
    std::span<const std::uint32_t> symbols,
    std::span<const std::size_t> kept) {
  Unigram full, sel;
  Bigram dummy_full, dummy_sel;
  accumulate(symbols, 0, symbols.size(), full, dummy_full);
  for (const std::size_t i : kept) sel[symbols[i]] += 1.0;
  return l1_normalized32(full, static_cast<double>(symbols.size()), sel,
                         static_cast<double>(kept.size()));
}

double SequenceCompactor::bigram_distance(
    std::span<const std::uint32_t> symbols,
    std::span<const std::size_t> kept) {
  Bigram full, sel;
  double full_sum = symbols.size() > 1
                        ? static_cast<double>(symbols.size() - 1)
                        : 0.0;
  for (std::size_t i = 0; i + 1 < symbols.size(); ++i)
    full[pair_key(symbols[i], symbols[i + 1])] += 1.0;
  double sel_sum = 0;
  for (std::size_t k = 0; k + 1 < kept.size(); ++k) {
    if (kept[k + 1] == kept[k] + 1) {  // adjacent in the original sequence
      sel[pair_key(symbols[kept[k]], symbols[kept[k + 1]])] += 1.0;
      sel_sum += 1.0;
    }
  }
  return l1_normalized(full, full_sum, sel, sel_sum);
}

DynamicCompactionStream::DynamicCompactionStream(CompactionParams params)
    : compactor_(params), params_(params) {}

bool DynamicCompactionStream::feed(std::uint32_t symbol) {
  ++fed_;
  bool simulate;
  if (bootstrap_) {
    simulate = true;  // first K symbols: no statistics yet
  } else {
    simulate = pattern_pos_ < keep_pattern_.size()
                   ? keep_pattern_[pattern_pos_]
                   : true;
  }
  ++pattern_pos_;
  buffer_.push_back(symbol);
  if (buffer_.size() >= params_.k_memory) {
    // Derive the keep pattern for the NEXT buffer from this one (causal,
    // "dynamic" compaction: I' is generated without seeing all of I).
    const auto kept = compactor_.select(buffer_);
    keep_pattern_.assign(buffer_.size(), false);
    for (const std::size_t i : kept)
      if (i < keep_pattern_.size()) keep_pattern_[i] = true;
    buffer_.clear();
    pattern_pos_ = 0;
    bootstrap_ = false;
  }
  if (simulate) ++simulated_;
  return simulate;
}

}  // namespace socpower::core
