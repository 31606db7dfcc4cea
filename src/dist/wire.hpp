// Length-prefixed binary wire protocol of the distributed co-estimation
// subsystem (the out-of-process analogue of the paper's IPC backplane: the
// simulation master drives component estimators living in other processes).
//
// Framing: every message is  [u32 payload_len][u8 type][payload bytes].
// Integers are little-endian fixed-width; doubles travel as their IEEE-754
// bit pattern (std::bit_cast through uint64_t), so energies round-trip
// bit-exactly — including NaN payloads, denormals and negative zero. That is
// what lets the remote backends honour the repo-wide bit-identity contract:
// a remote run must reproduce the in-process run's doubles to the last bit.
//
// Decoding is defensive: every get_* bounds-checks against the payload and
// latches an error instead of reading past the end, so a truncated or
// corrupted frame is rejected (decoder returns false), never crashes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/estimators/component_estimator.hpp"

namespace socpower::dist {

/// True when this platform can run out-of-process workers (POSIX fork +
/// socketpair). On anything else the remote backends degrade to their
/// in-process fallback at prepare() and sharded exploration runs serially.
[[nodiscard]] bool supported();

enum class MsgType : std::uint8_t {
  // master -> estimator worker
  kBeginRun = 1,       // run knob block; resets worker batch state
  kResync = 2,         // task + behavioral state (resync_if_dirty)
  kMarkSkipped = 3,    // task + flag
  kResetUnit = 4,      // task
  kEnqueueChunk = 5,   // batched vectors + new path traces (one-way, eager)
  kCost = 6,           // online transition pricing (RPC)
  kFlushUnit = 7,      // final chunk + collect the unit's FlushResult (RPC)
  kSeparateReset = 8,  // Section 2 baseline reset
  kSeparateStep = 9,   // Section 2 baseline step (RPC)
  kStats = 10,         // per-run backend counters (RPC)
  kShutdown = 11,      // worker exits cleanly
  // master -> sharded-exploration worker
  kEvalPoint = 12,     // phase + point index (RPC)
  // client -> session server (src/serve). All are request/reply.
  kServeHello = 32,      // protocol-version handshake (RPC)
  kServeOpen = 33,       // system + structural config -> session key (RPC)
  kServeEstimate = 34,   // session key + per-run request -> results (RPC)
  kServeCheckpoint = 35, // session key -> serialized checkpoint (RPC)
  kServeRestore = 36,    // checkpoint blob -> rebuilt warm session (RPC)
  kServeStats = 37,      // server-wide serve.* counters + latency (RPC)
  kServeShutdown = 38,   // stop the server after replying (RPC)
  // worker -> master
  kReply = 64,         // RPC reply (payload shape depends on the request)
  kServeError = 65,    // serve-layer error reply (payload: message string)
};

/// Does a request of this type produce a kReply frame?
[[nodiscard]] bool expects_reply(MsgType t);

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::vector<std::uint8_t> payload;
};

// ---- primitive encode/decode ----------------------------------------------

class WireWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v);
  void put_f64(double v);  // bit-exact (IEEE-754 bit pattern)

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), n_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] std::int32_t get_i32();
  [[nodiscard]] double get_f64();

  /// False once any read ran past the payload end (the value returned by
  /// that and every later get_* is zero). Also false when a decoder found a
  /// structurally invalid value. Check after decoding, not per field.
  [[nodiscard]] bool ok() const { return ok_; }
  void mark_bad() { ok_ = false; }
  /// All payload bytes consumed? Full-frame decoders require this so a
  /// frame with trailing garbage is rejected too.
  [[nodiscard]] bool at_end() const { return pos_ == n_; }

 private:
  [[nodiscard]] bool take(std::size_t k) {
    if (!ok_ || n_ - pos_ < k) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- co-estimation vocabulary codecs --------------------------------------
//
// Sanity bound on decoded container lengths: a corrupted length field must
// not allocate unbounded memory before the bounds check trips.
inline constexpr std::uint32_t kMaxWireElems = 1u << 24;

/// Length-prefixed UTF-8-agnostic byte string (the serve layer's system
/// names and error messages).
void put_string(WireWriter& w, const std::string& s);
[[nodiscard]] bool get_string(WireReader& r, std::string* out);

void put_inputs(WireWriter& w, const cfsm::ReactionInputs& in);
[[nodiscard]] bool get_inputs(WireReader& r, cfsm::ReactionInputs* out);

void put_state(WireWriter& w, const cfsm::CfsmState& st);
[[nodiscard]] bool get_state(WireReader& r, cfsm::CfsmState* out);

void put_trace(WireWriter& w, const std::vector<cfsm::NodeId>& trace);
[[nodiscard]] bool get_trace(WireReader& r, std::vector<cfsm::NodeId>* out);

void put_emissions(WireWriter& w, const std::vector<cfsm::EmittedEvent>& ems);
[[nodiscard]] bool get_emissions(WireReader& r,
                                 std::vector<cfsm::EmittedEvent>* out);

/// The knobs of `scope` (core::for_each_knob), in table order: unsigned
/// 32/64-bit integers as u32/u64, bools and enums as u8, doubles bit-exact,
/// strings length-prefixed. The run block rides in kBeginRun so the worker's
/// config copy tracks the master's per-run mutations; the structural block
/// is the serve layer's session identity. get_knobs overwrites only the
/// knobs of `scope` and rejects an out-of-range enum byte.
void put_knobs(WireWriter& w, const core::CoEstimatorConfig& cfg,
               core::KnobScope scope);
[[nodiscard]] bool get_knobs(WireReader& r, core::CoEstimatorConfig* cfg,
                             core::KnobScope scope);

/// One shipped batch slice for one hardware unit. `base_paths` is the size
/// the worker's path table for `task` must have before interning
/// `new_paths` (explicit sync: the master interns paths its estimator never
/// sees — e.g. under accelerate_hw — so the worker can never infer them
/// from the request stream). Entries reference path ids < base + new.
struct ChunkPayload {
  cfsm::CfsmId task = cfsm::kNoCfsm;
  std::uint32_t base_paths = 0;
  std::vector<std::vector<cfsm::NodeId>> new_paths;
  struct Entry {
    sim::SimTime time = 0;
    cfsm::ReactionInputs inputs;
    cfsm::PathId path = cfsm::kNoPath;
    cfsm::CfsmState pre;
  };
  std::vector<Entry> entries;
};
void put_chunk(WireWriter& w, const ChunkPayload& c);
[[nodiscard]] bool get_chunk(WireReader& r, ChunkPayload* out);

/// kCost request: everything a hardware backend reads from a
/// TransitionRequest (the reaction and both states travel by value; the
/// worker rebuilds the request with pointers into the decoded storage).
struct CostPayload {
  cfsm::CfsmId task = cfsm::kNoCfsm;
  cfsm::ReactionInputs inputs;
  cfsm::Reaction reaction;
  cfsm::CfsmState pre_state;
  cfsm::CfsmState post_state;
};
void put_cost(WireWriter& w, const CostPayload& c);
[[nodiscard]] bool get_cost(WireReader& r, CostPayload* out);

void put_transition_cost(WireWriter& w, const core::TransitionCost& c);
[[nodiscard]] bool get_transition_cost(WireReader& r,
                                       core::TransitionCost* out);

void put_flush_result(WireWriter& w,
                      const core::ComponentEstimator::FlushResult& fr);
[[nodiscard]] bool get_flush_result(
    WireReader& r, core::ComponentEstimator::FlushResult* out);

void put_run_results(WireWriter& w, const core::RunResults& res);
[[nodiscard]] bool get_run_results(WireReader& r, core::RunResults* out);

/// Calibrated analytical-model coefficients (hw/analytical.hpp). Doubles
/// travel bit-exactly, so a decoded model predicts bit-identically to the
/// one the calibration fitted — the sharded prefilter and the serve
/// checkpoint both rely on that.
void put_analytical_model(WireWriter& w, const hw::AnalyticalModel& m);
[[nodiscard]] bool get_analytical_model(WireReader& r,
                                        hw::AnalyticalModel* out);

}  // namespace socpower::dist
