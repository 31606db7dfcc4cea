// Statistical sampling / sequence compaction (paper Section 4.3).
//
// Problem: given a long sequence I of input vectors (instructions) produced
// by the master during co-simulation, construct I' with length(I') <<
// length(I) whose average power matches I as closely as possible. I' is
// composed of small sub-sequences of I chosen to preserve single-symbol
// statistics (value probabilities) and two-symbol statistics (transition /
// lag-one correlations).
//
// This implements the paper's K-memory *dynamic* compaction: symbols are
// buffered until K are stored, then a deterministic subset of windows is
// selected greedily to minimize the L1 distance between the kept and full
// unigram+bigram distributions. Static (whole-sequence) compaction is the
// same selection applied to the entire trace at once.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace socpower::core {

struct CompactionParams {
  /// Buffer this many symbols before each selection round (K).
  std::size_t k_memory = 64;
  /// Fraction of each buffer to keep (0 < keep_ratio <= 1).
  double keep_ratio = 0.25;
  /// Length of each kept sub-sequence; adjacent symbols inside a window keep
  /// their pairwise statistics exactly.
  std::size_t window = 4;
  /// Buffers shorter than this are simulated in full (start-up, tails).
  std::size_t min_length = 8;
};

class SequenceCompactor {
 public:
  explicit SequenceCompactor(CompactionParams params = {});

  /// Select positions of `symbols` to keep. Returns sorted, unique indices;
  /// always non-empty for non-empty input, and the whole range when the
  /// input is shorter than min_length or keep_ratio == 1.
  [[nodiscard]] std::vector<std::size_t> select(
      std::span<const std::uint32_t> symbols) const;

  /// L1 distance between the unigram distributions of the full sequence and
  /// of the subset given by `kept` (diagnostic / tests).
  [[nodiscard]] static double unigram_distance(
      std::span<const std::uint32_t> symbols,
      std::span<const std::size_t> kept);
  /// Same for lag-one bigram distributions (pairs within kept windows only).
  [[nodiscard]] static double bigram_distance(
      std::span<const std::uint32_t> symbols,
      std::span<const std::size_t> kept);

  [[nodiscard]] const CompactionParams& params() const { return params_; }

 private:
  CompactionParams params_;
};

/// Streaming adapter implementing the dynamic variant: feed symbols one by
/// one; whenever K have accumulated, the compactor selects the keep pattern
/// for that buffer and `should_simulate` answers for each position.
class DynamicCompactionStream {
 public:
  explicit DynamicCompactionStream(CompactionParams params = {});

  /// Feed the next symbol; returns true when the caller should simulate this
  /// occurrence (selected), false when it should extrapolate. The first
  /// buffer is always fully simulated (the model needs bootstrap data).
  bool feed(std::uint32_t symbol);

  [[nodiscard]] std::uint64_t fed() const { return fed_; }
  [[nodiscard]] std::uint64_t simulated() const { return simulated_; }

 private:
  SequenceCompactor compactor_;
  CompactionParams params_;
  std::vector<std::uint32_t> buffer_;
  std::vector<bool> keep_pattern_;  // selection computed from last buffer
  std::size_t pattern_pos_ = 0;
  bool bootstrap_ = true;
  std::uint64_t fed_ = 0;
  std::uint64_t simulated_ = 0;
};

}  // namespace socpower::core
