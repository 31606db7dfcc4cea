// Versioned, bit-exact serialization of a session's prepared-system identity
// plus its warm-cache state — the server's checkpoint/restore format.
//
// A checkpoint does NOT carry the compiled SW images or synthesized
// netlists: those are deterministic functions of (SystemParams,
// StructuralConfig), so restore re-derives them by preparing a fresh
// CoEstimator and then imports only the state that took simulation work to
// earn — ISS block-cache entry points (re-decoded locally, which is exact),
// the gate-level reaction tables, and the (task, path) energy cache with
// its Welford moments as raw IEEE-754 bit patterns. Restored sessions
// therefore reproduce the uninterrupted session's results bit-identically
// (test_checkpoint.cpp fuzzes exactly this).
//
// Container format:
//   [u32 magic "SPCK"][u32 version][u64 payload_len][u64 fnv1a64(payload)]
//   [payload]
// The payload is the dist-wire encoding of (system, structural, warm).
// decode_checkpoint rejects bad magic, unknown versions, truncation, length
// mismatches, and hash mismatches with a distinct message each, so fault-
// injection tests can tell the failure modes apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/coestimator.hpp"
#include "serve/protocol.hpp"

namespace socpower::serve {

inline constexpr std::uint32_t kCheckpointMagic = 0x4b435053u;  // "SPCK" LE
// v2: BackendWarmState gained the calibrated AnalyticalModel coefficients.
// v3: the structural block lost the ISS and RTOS knobs.
inline constexpr std::uint32_t kCheckpointVersion = 3;

struct Checkpoint {
  SystemParams system;
  StructuralConfig structural;
  core::CoEstimator::WarmSnapshot warm;
};

[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& c);
[[nodiscard]] bool decode_checkpoint(const std::uint8_t* data,
                                     std::size_t size, Checkpoint* out,
                                     std::string* error);
[[nodiscard]] bool decode_checkpoint(const std::vector<std::uint8_t>& blob,
                                     Checkpoint* out, std::string* error);

/// Whole-file convenience wrappers for the daemon and the examples.
[[nodiscard]] bool write_checkpoint_file(const std::string& path,
                                         const Checkpoint& c);
[[nodiscard]] bool read_checkpoint_file(const std::string& path,
                                        Checkpoint* out, std::string* error);

}  // namespace socpower::serve
