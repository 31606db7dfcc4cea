// Length-prefixed binary wire protocol of the distributed co-estimation
// subsystem (the out-of-process analogue of the paper's IPC backplane: the
// simulation master drives component estimators living in other processes).
// The serve protocol (serve/protocol.hpp) and checkpoints
// (serve/checkpoint.cpp) ride the same codec.
//
// Framing: every message is  [u32 payload_len][u8 type][payload bytes].
// Integers are little-endian fixed-width; doubles travel as their IEEE-754
// bit pattern (std::bit_cast through uint64_t), so energies round-trip
// bit-exactly — including NaN payloads, denormals and negative zero. That is
// what lets the remote backends honour the repo-wide bit-identity contract:
// a remote run must reproduce the in-process run's doubles to the last bit.
//
// One field list per message. WireWriter and WireReader offer the same
// field primitives under the same names, and each message declares its wire
// order once, as
//
//   template <class Io, MaybeConst<X> M> void fields(Io& io, M& m);
//
// encode() runs that list with a writer (M = const X), decode() with a
// reader (M = X). Everything that depends on the direction lives in the two
// classes, so an encoder and its decoder cannot drift apart.
//
// Decoding is defensive: every read is bounds-checked against the payload
// and latches an error instead of reading past the end, so a truncated or
// corrupted frame is rejected (decode returns false), never crashes. A
// declared sequence length is accepted only if that many elements, each at
// its shortest encoding, fit in the bytes left (WireReader::seq), so what a
// decode allocates is proportional to the bytes it was given.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/estimators/component_estimator.hpp"

namespace socpower::dist {

/// True when this platform can run out-of-process workers (POSIX fork +
/// socketpair). On anything else the remote backends degrade to their
/// in-process fallback at prepare().
[[nodiscard]] bool supported();

enum class MsgType : std::uint8_t {
  // master -> estimator worker
  kBeginRun = 1,       // run knob block; resets worker batch state
  kResync = 2,         // task + behavioral state of a unit whose gate-level
                       // registers went stale while its reactions were
                       // served without simulation
  kResetUnit = 4,      // task (reset transition and Section 2 baseline reset)
  kEnqueueChunk = 5,   // batched vectors + new path traces (one-way, eager)
  kCost = 6,           // online transition pricing (RPC)
  kFlushUnit = 7,      // final chunk + collect the unit's FlushResult (RPC)
  kSeparateStep = 9,   // Section 2 baseline step (RPC)
  kStats = 10,         // per-run backend counters (RPC)
  kShutdown = 11,      // worker exits cleanly
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

// ---- field primitives ------------------------------------------------------
//
// u8/u32/u64/i32/i64/f64 are fixed-width; boolean is a u8 0/1; enumeration
// is a u8 the reader rejects beyond `last`; string is a u32 byte count plus
// the bytes; seq is a u32 element count plus each element through `elem`
// (called as elem(io, element)).

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);  // bit-exact (IEEE-754 bit pattern)
  void boolean(bool v) { u8(v ? 1 : 0); }
  template <class E>
  void enumeration(E v, E /*last*/) {
    u8(static_cast<std::uint8_t>(v));
  }
  void string(const std::string& s);
  template <class Seq, class F>
  void seq(const Seq& s, F&& elem) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const auto& e : s) elem(*this, e);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Counts the bytes of a value's shortest encoding: its fields with every
/// sequence and string empty. WireReader::seq runs an element's field list
/// through it to learn what one element costs at least.
class WireSizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i32(std::int32_t) { n_ += 4; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void boolean(bool) { n_ += 1; }
  template <class E>
  void enumeration(E, E) {
    n_ += 1;
  }
  void string(const std::string&) { n_ += 4; }
  template <class Seq, class F>
  void seq(const Seq&, F&&) {
    n_ += 4;
  }

  [[nodiscard]] std::size_t bytes() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : p_(data), n_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& buf)
      : WireReader(buf.data(), buf.size()) {}

  // A read past the payload end marks the reader bad and stores zero.
  void u8(std::uint8_t& v);
  void u32(std::uint32_t& v);
  void u64(std::uint64_t& v);
  void i32(std::int32_t& v);
  void i64(std::int64_t& v);
  void f64(double& v);
  void boolean(bool& v);
  template <class E>
  void enumeration(E& v, E last) {
    std::uint8_t b = 0;
    u8(b);
    if (b > static_cast<std::uint8_t>(last)) ok_ = false;
    if (ok_) v = static_cast<E>(b);
  }
  void string(std::string& s);
  template <class Seq, class F>
  void seq(Seq& s, F&& elem) {
    WireSizer shortest;
    const typename Seq::value_type empty{};
    elem(shortest, empty);
    s.clear();
    s.resize(length(shortest.bytes()));
    for (auto& e : s) {
      if (!ok_) return;
      elem(*this, e);
    }
  }

  /// False once any read ran past the payload end, a sequence declared more
  /// elements than the payload can hold, or an enum byte was out of range.
  /// Check after decoding, not per field.
  [[nodiscard]] bool ok() const { return ok_; }
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
  /// The one length rule: reads a u32 count and rejects it unless count ×
  /// `min_elem_bytes` fits in the bytes left.
  std::uint32_t length(std::size_t min_elem_bytes);

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// M is X, or const X: the one field list of X serves the writer (const)
/// and the reader (mutable).
template <class M, class X>
concept MaybeConst = std::same_as<std::remove_const_t<M>, X>;

/// seq() element codecs for scalar elements and for messages.
inline constexpr auto as_i32 = [](auto& io, auto& v) { io.i32(v); };
inline constexpr auto as_u32 = [](auto& io, auto& v) { io.u32(v); };
inline constexpr auto as_u64 = [](auto& io, auto& v) { io.u64(v); };
inline constexpr auto as_f64 = [](auto& io, auto& v) { io.f64(v); };
inline constexpr auto as_fields = [](auto& io, auto& m) { fields(io, m); };

// ---- co-estimation vocabulary ----------------------------------------------

template <class Io, MaybeConst<cfsm::ReactionInputs> M>
void fields(Io& io, M& in) {
  io.seq(in.all(), [](auto& sub, auto& ev) {
    sub.i32(ev.first);
    sub.i32(ev.second);
  });
}

template <class Io, MaybeConst<cfsm::CfsmState> M>
void fields(Io& io, M& st) {
  io.seq(st.vars, as_i32);
}

template <class Io, MaybeConst<cfsm::EmittedEvent> M>
void fields(Io& io, M& em) {
  io.i32(em.event);
  io.i32(em.value);
}

/// The knob block of `scope` (core::for_each_knob), in table order:
/// unsigned 32/64-bit integers as u32/u64, bools as u8, enums as a
/// range-checked u8, doubles bit-exact, strings length-prefixed. The run
/// block rides in kBeginRun so the worker's config copy tracks the master's
/// per-run mutations; the structural block is the serve layer's session
/// identity. Decoding overwrites only the knobs of `scope`.
template <class Io, MaybeConst<core::CoEstimatorConfig> Cfg>
void knobs(Io& io, Cfg& cfg, core::KnobScope scope) {
  core::for_each_knob(cfg, [&](const char*, auto& v, core::KnobScope s) {
    if (s != scope) return;
    using V = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<V, bool>) {
      io.boolean(v);
    } else if constexpr (std::is_same_v<V, double>) {
      io.f64(v);
    } else if constexpr (std::is_same_v<V, std::string>) {
      io.string(v);
    } else if constexpr (std::is_same_v<V, core::Acceleration>) {
      io.enumeration(v, core::Acceleration::kSampling);
    } else if constexpr (std::is_same_v<V, core::InterconnectKind>) {
      io.enumeration(v, core::InterconnectKind::kNoc);
    } else {
      static_assert(std::is_unsigned_v<V> && (sizeof(V) == 4 || sizeof(V) == 8),
                    "a knob of a type the wire cannot carry");
      if constexpr (sizeof(V) == 4)
        io.u32(v);
      else
        io.u64(v);
    }
  });
}

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

template <class Io, MaybeConst<ChunkPayload::Entry> M>
void fields(Io& io, M& e) {
  io.u64(e.time);
  fields(io, e.inputs);
  io.i32(e.path);
  fields(io, e.pre);
}

template <class Io, MaybeConst<ChunkPayload> M>
void fields(Io& io, M& c) {
  io.i32(c.task);
  io.u32(c.base_paths);
  io.seq(c.new_paths, [](auto& sub, auto& trace) { sub.seq(trace, as_i32); });
  io.seq(c.entries, as_fields);
}

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

template <class Io, MaybeConst<CostPayload> M>
void fields(Io& io, M& c) {
  io.i32(c.task);
  fields(io, c.inputs);
  io.seq(c.reaction.emissions, as_fields);
  io.seq(c.reaction.trace, as_i32);
  fields(io, c.pre_state);
  fields(io, c.post_state);
}

template <class Io, MaybeConst<core::TransitionCost> M>
void fields(Io& io, M& c) {
  io.f64(c.cycles);
  io.f64(c.energy);
  io.boolean(c.simulated);
}

template <class Io, MaybeConst<core::ComponentEstimator::FlushEntry> M>
void fields(Io& io, M& e) {
  io.u64(e.time);
  io.i32(e.path);
  io.f64(e.energy);
}

template <class Io, MaybeConst<core::ComponentEstimator::FlushResult> M>
void fields(Io& io, M& fr) {
  io.u64(fr.gate_cycles);
  io.seq(fr.entries, as_fields);
}

template <class Io, MaybeConst<core::RunResults> M>
void fields(Io& io, M& r) {
  io.f64(r.total_energy);
  io.seq(r.process_energy, as_f64);
  io.f64(r.cpu_energy);
  io.f64(r.hw_energy);
  io.f64(r.bus_energy);
  io.f64(r.cache_energy);
  io.u64(r.end_time);
  io.u64(r.reactions);
  io.u64(r.sw_reactions);
  io.u64(r.hw_reactions);
  io.u64(r.iss_invocations);
  io.u64(r.iss_instructions);
  io.u64(r.gate_sim_cycles);
  io.u64(r.cache_hits_served);
  io.u64(r.icache.accesses);
  io.u64(r.icache.misses);
  io.u64(r.icache.penalty_cycles);
  io.f64(r.icache.energy);
  io.u64(r.bus_totals.transfers);
  io.u64(r.bus_totals.grants);
  io.u64(r.bus_totals.bytes);
  io.u64(r.bus_totals.addr_toggles);
  io.u64(r.bus_totals.data_toggles);
  io.u64(r.bus_totals.wait_cycles);
  io.f64(r.bus_totals.energy);
  io.u64(r.coherence.accesses);
  io.u64(r.coherence.l1_hits);
  io.u64(r.coherence.l1_misses);
  io.u64(r.coherence.upgrades);
  io.u64(r.coherence.invalidations);
  io.u64(r.coherence.writebacks);
  io.f64(r.coherence.energy);
  io.f64(r.wall_seconds);
  io.boolean(r.truncated);
  io.seq(r.process_leakage, as_f64);
  io.f64(r.leakage_energy);
}

/// Calibrated analytical-model coefficients (hw/analytical.hpp). Doubles
/// travel bit-exactly, so a decoded model predicts bit-identically to the
/// one the calibration fitted — the serve checkpoint relies on that.
template <class Io, MaybeConst<hw::AnalyticalUnitModel> M>
void fields(Io& io, M& u) {
  io.i32(u.task);
  for (auto& c : u.coeff) io.f64(c);
  io.f64(u.leakage_watts);
  io.u32(u.calibration_vectors);
  io.f64(u.residual_rms_j);
}

template <class Io, MaybeConst<hw::AnalyticalCalibrationState> M>
void fields(Io& io, M& c) {
  io.i32(c.task);
  for (auto& x : c.moments.xtx) io.f64(x);
  for (auto& x : c.moments.xty) io.f64(x);
  io.f64(c.moments.yty);
  io.u64(c.moments.n);
}

template <class Io, MaybeConst<hw::AnalyticalModel> M>
void fields(Io& io, M& m) {
  io.seq(m.units, as_fields);
  io.seq(m.pending, as_fields);
}

// ---- encode / decode -------------------------------------------------------

/// Appends `m` to `w` through its field list.
template <class M>
void encode(WireWriter& w, const M& m) {
  fields(w, m);
}

/// Decodes into a fresh *out through its field list. False on a malformed
/// payload; full-frame callers also check r.at_end().
template <class M>
[[nodiscard]] bool decode(WireReader& r, M* out) {
  *out = M{};
  fields(r, *out);
  return r.ok();
}

}  // namespace socpower::dist
