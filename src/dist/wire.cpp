#include "dist/wire.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

namespace socpower::dist {

bool supported() {
#if defined(_WIN32)
  return false;
#else
  return true;
#endif
}

bool expects_reply(MsgType t) {
  switch (t) {
    case MsgType::kCost:
    case MsgType::kFlushUnit:
    case MsgType::kSeparateStep:
    case MsgType::kStats:
    case MsgType::kEvalPoint:
    case MsgType::kServeHello:
    case MsgType::kServeOpen:
    case MsgType::kServeEstimate:
    case MsgType::kServeCheckpoint:
    case MsgType::kServeRestore:
    case MsgType::kServeStats:
    case MsgType::kServeShutdown:
      return true;
    default:
      return false;
  }
}

// ---- primitives ------------------------------------------------------------

void WireWriter::put_u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void WireWriter::put_i32(std::int32_t v) {
  put_u32(static_cast<std::uint32_t>(v));
}

void WireWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

std::uint8_t WireReader::get_u8() {
  if (!take(1)) return 0;
  return p_[pos_++];
}

std::uint32_t WireReader::get_u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(p_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::get_u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(p_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  pos_ += 8;
  return v;
}

std::int32_t WireReader::get_i32() {
  return static_cast<std::int32_t>(get_u32());
}

double WireReader::get_f64() { return std::bit_cast<double>(get_u64()); }

// ---- vocabulary ------------------------------------------------------------

namespace {

/// Reads a container length and rejects values that could not possibly fit
/// in the remaining payload (each element is >= min_elem_bytes), so a
/// corrupted length never triggers a giant allocation.
std::uint32_t get_len(WireReader& r, std::uint32_t min_elem_bytes = 1) {
  const std::uint32_t n = r.get_u32();
  if (n > kMaxWireElems / (min_elem_bytes ? min_elem_bytes : 1)) {
    r.mark_bad();
    return 0;
  }
  return n;
}

}  // namespace

void put_string(WireWriter& w, const std::string& s) {
  w.put_u32(static_cast<std::uint32_t>(s.size()));
  for (const char c : s) w.put_u8(static_cast<std::uint8_t>(c));
}

bool get_string(WireReader& r, std::string* out) {
  out->clear();
  const std::uint32_t n = get_len(r, 1);
  out->reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i)
    out->push_back(static_cast<char>(r.get_u8()));
  if (!r.ok()) out->clear();
  return r.ok();
}

void put_inputs(WireWriter& w, const cfsm::ReactionInputs& in) {
  const auto& all = in.all();
  w.put_u32(static_cast<std::uint32_t>(all.size()));
  for (const auto& [e, v] : all) {
    w.put_i32(e);
    w.put_i32(v);
  }
}

bool get_inputs(WireReader& r, cfsm::ReactionInputs* out) {
  *out = {};
  const std::uint32_t n = get_len(r, 8);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const cfsm::EventId e = r.get_i32();
    const std::int32_t v = r.get_i32();
    if (r.ok()) out->set(e, v);
  }
  return r.ok();
}

void put_state(WireWriter& w, const cfsm::CfsmState& st) {
  w.put_u32(static_cast<std::uint32_t>(st.vars.size()));
  for (const std::int32_t v : st.vars) w.put_i32(v);
}

bool get_state(WireReader& r, cfsm::CfsmState* out) {
  out->vars.clear();
  const std::uint32_t n = get_len(r, 4);
  out->vars.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i)
    out->vars.push_back(r.get_i32());
  return r.ok();
}

void put_trace(WireWriter& w, const std::vector<cfsm::NodeId>& trace) {
  w.put_u32(static_cast<std::uint32_t>(trace.size()));
  for (const cfsm::NodeId n : trace) w.put_i32(n);
}

bool get_trace(WireReader& r, std::vector<cfsm::NodeId>* out) {
  out->clear();
  const std::uint32_t n = get_len(r, 4);
  out->reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) out->push_back(r.get_i32());
  return r.ok();
}

void put_emissions(WireWriter& w, const std::vector<cfsm::EmittedEvent>& ems) {
  w.put_u32(static_cast<std::uint32_t>(ems.size()));
  for (const auto& em : ems) {
    w.put_i32(em.event);
    w.put_i32(em.value);
  }
}

bool get_emissions(WireReader& r, std::vector<cfsm::EmittedEvent>* out) {
  out->clear();
  const std::uint32_t n = get_len(r, 8);
  out->reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    cfsm::EmittedEvent em;
    em.event = r.get_i32();
    em.value = r.get_i32();
    out->push_back(em);
  }
  return r.ok();
}

namespace {

void put_knob(WireWriter& w, bool v) { w.put_u8(v ? 1 : 0); }
void put_knob(WireWriter& w, double v) { w.put_f64(v); }
void put_knob(WireWriter& w, const std::string& v) { put_string(w, v); }
template <class E>
  requires std::is_enum_v<E>
void put_knob(WireWriter& w, E v) {
  w.put_u8(static_cast<std::uint8_t>(v));
}
/// unsigned / uint32_t -> u32, uint64_t / size_t -> u64.
template <class T>
  requires std::is_unsigned_v<T>
void put_knob(WireWriter& w, T v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 4)
    w.put_u32(v);
  else
    w.put_u64(v);
}

void get_knob(WireReader& r, bool* v) { *v = r.get_u8() != 0; }
void get_knob(WireReader& r, double* v) { *v = r.get_f64(); }
void get_knob(WireReader& r, std::string* v) { (void)get_string(r, v); }
/// Enum bytes beyond the last enumerator `last` mark the reader bad.
template <class E>
void get_enum(WireReader& r, E* v, E last) {
  const std::uint8_t b = r.get_u8();
  if (b > static_cast<std::uint8_t>(last)) r.mark_bad();
  if (r.ok()) *v = static_cast<E>(b);
}
void get_knob(WireReader& r, core::Acceleration* v) {
  get_enum(r, v, core::Acceleration::kSampling);
}
void get_knob(WireReader& r, core::InterconnectKind* v) {
  get_enum(r, v, core::InterconnectKind::kNoc);
}
template <class T>
  requires std::is_unsigned_v<T>
void get_knob(WireReader& r, T* v) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  if constexpr (sizeof(T) == 4)
    *v = r.get_u32();
  else
    *v = r.get_u64();
}

}  // namespace

void put_knobs(WireWriter& w, const core::CoEstimatorConfig& cfg,
               core::KnobScope scope) {
  core::for_each_knob(cfg, [&](const char*, const auto& v,
                               core::KnobScope s) {
    if (s == scope) put_knob(w, v);
  });
}

bool get_knobs(WireReader& r, core::CoEstimatorConfig* cfg,
               core::KnobScope scope) {
  core::for_each_knob(*cfg, [&](const char*, auto& v, core::KnobScope s) {
    if (s == scope) get_knob(r, &v);
  });
  return r.ok();
}

void put_chunk(WireWriter& w, const ChunkPayload& c) {
  w.put_i32(c.task);
  w.put_u32(c.base_paths);
  w.put_u32(static_cast<std::uint32_t>(c.new_paths.size()));
  for (const auto& trace : c.new_paths) put_trace(w, trace);
  w.put_u32(static_cast<std::uint32_t>(c.entries.size()));
  for (const auto& e : c.entries) {
    w.put_u64(e.time);
    put_inputs(w, e.inputs);
    w.put_i32(e.path);
    put_state(w, e.pre);
  }
}

bool get_chunk(WireReader& r, ChunkPayload* out) {
  *out = {};
  out->task = r.get_i32();
  out->base_paths = r.get_u32();
  const std::uint32_t np = get_len(r, 4);
  out->new_paths.resize(np);
  for (std::uint32_t i = 0; i < np && r.ok(); ++i)
    if (!get_trace(r, &out->new_paths[i])) return false;
  const std::uint32_t ne = get_len(r, 8);
  out->entries.resize(ne);
  for (std::uint32_t i = 0; i < ne && r.ok(); ++i) {
    ChunkPayload::Entry& e = out->entries[i];
    e.time = r.get_u64();
    if (!get_inputs(r, &e.inputs)) return false;
    e.path = r.get_i32();
    if (!get_state(r, &e.pre)) return false;
  }
  return r.ok();
}

void put_cost(WireWriter& w, const CostPayload& c) {
  w.put_i32(c.task);
  put_inputs(w, c.inputs);
  put_emissions(w, c.reaction.emissions);
  put_trace(w, c.reaction.trace);
  put_state(w, c.pre_state);
  put_state(w, c.post_state);
}

bool get_cost(WireReader& r, CostPayload* out) {
  *out = {};
  out->task = r.get_i32();
  return get_inputs(r, &out->inputs) &&
         get_emissions(r, &out->reaction.emissions) &&
         get_trace(r, &out->reaction.trace) && get_state(r, &out->pre_state) &&
         get_state(r, &out->post_state);
}

void put_transition_cost(WireWriter& w, const core::TransitionCost& c) {
  w.put_f64(c.cycles);
  w.put_f64(c.energy);
  w.put_u8(c.simulated ? 1 : 0);
}

bool get_transition_cost(WireReader& r, core::TransitionCost* out) {
  out->cycles = r.get_f64();
  out->energy = r.get_f64();
  out->simulated = r.get_u8() != 0;
  return r.ok();
}

void put_flush_result(WireWriter& w,
                      const core::ComponentEstimator::FlushResult& fr) {
  w.put_u64(fr.gate_cycles);
  w.put_u32(static_cast<std::uint32_t>(fr.entries.size()));
  for (const auto& e : fr.entries) {
    w.put_u64(e.time);
    w.put_i32(e.path);
    w.put_f64(e.energy);
  }
}

bool get_flush_result(WireReader& r,
                      core::ComponentEstimator::FlushResult* out) {
  out->entries.clear();
  out->gate_cycles = r.get_u64();
  const std::uint32_t n = get_len(r, 20);
  out->entries.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    core::ComponentEstimator::FlushEntry e;
    e.time = r.get_u64();
    e.path = r.get_i32();
    e.energy = r.get_f64();
    out->entries.push_back(e);
  }
  return r.ok();
}

void put_run_results(WireWriter& w, const core::RunResults& res) {
  w.put_f64(res.total_energy);
  w.put_u32(static_cast<std::uint32_t>(res.process_energy.size()));
  for (const Joules e : res.process_energy) w.put_f64(e);
  w.put_f64(res.cpu_energy);
  w.put_f64(res.hw_energy);
  w.put_f64(res.bus_energy);
  w.put_f64(res.cache_energy);
  w.put_u64(res.end_time);
  w.put_u64(res.reactions);
  w.put_u64(res.sw_reactions);
  w.put_u64(res.hw_reactions);
  w.put_u64(res.iss_invocations);
  w.put_u64(res.iss_instructions);
  w.put_u64(res.gate_sim_cycles);
  w.put_u64(res.cache_hits_served);
  w.put_u64(res.icache.accesses);
  w.put_u64(res.icache.misses);
  w.put_u64(res.icache.penalty_cycles);
  w.put_f64(res.icache.energy);
  w.put_u64(res.bus_totals.transfers);
  w.put_u64(res.bus_totals.grants);
  w.put_u64(res.bus_totals.bytes);
  w.put_u64(res.bus_totals.addr_toggles);
  w.put_u64(res.bus_totals.data_toggles);
  w.put_u64(res.bus_totals.wait_cycles);
  w.put_f64(res.bus_totals.energy);
  w.put_u64(res.coherence.accesses);
  w.put_u64(res.coherence.l1_hits);
  w.put_u64(res.coherence.l1_misses);
  w.put_u64(res.coherence.upgrades);
  w.put_u64(res.coherence.invalidations);
  w.put_u64(res.coherence.writebacks);
  w.put_f64(res.coherence.energy);
  w.put_f64(res.wall_seconds);
  w.put_u8(res.truncated ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(res.process_leakage.size()));
  for (const Joules e : res.process_leakage) w.put_f64(e);
  w.put_f64(res.leakage_energy);
}

bool get_run_results(WireReader& r, core::RunResults* out) {
  *out = {};
  out->total_energy = r.get_f64();
  const std::uint32_t n = get_len(r, 8);
  out->process_energy.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i)
    out->process_energy.push_back(r.get_f64());
  out->cpu_energy = r.get_f64();
  out->hw_energy = r.get_f64();
  out->bus_energy = r.get_f64();
  out->cache_energy = r.get_f64();
  out->end_time = r.get_u64();
  out->reactions = r.get_u64();
  out->sw_reactions = r.get_u64();
  out->hw_reactions = r.get_u64();
  out->iss_invocations = r.get_u64();
  out->iss_instructions = r.get_u64();
  out->gate_sim_cycles = r.get_u64();
  out->cache_hits_served = r.get_u64();
  out->icache.accesses = r.get_u64();
  out->icache.misses = r.get_u64();
  out->icache.penalty_cycles = r.get_u64();
  out->icache.energy = r.get_f64();
  out->bus_totals.transfers = r.get_u64();
  out->bus_totals.grants = r.get_u64();
  out->bus_totals.bytes = r.get_u64();
  out->bus_totals.addr_toggles = r.get_u64();
  out->bus_totals.data_toggles = r.get_u64();
  out->bus_totals.wait_cycles = r.get_u64();
  out->bus_totals.energy = r.get_f64();
  out->coherence.accesses = r.get_u64();
  out->coherence.l1_hits = r.get_u64();
  out->coherence.l1_misses = r.get_u64();
  out->coherence.upgrades = r.get_u64();
  out->coherence.invalidations = r.get_u64();
  out->coherence.writebacks = r.get_u64();
  out->coherence.energy = r.get_f64();
  out->wall_seconds = r.get_f64();
  out->truncated = r.get_u8() != 0;
  const std::uint32_t nl = get_len(r, 8);
  out->process_leakage.reserve(nl);
  for (std::uint32_t i = 0; i < nl && r.ok(); ++i)
    out->process_leakage.push_back(r.get_f64());
  out->leakage_energy = r.get_f64();
  return r.ok();
}

void put_analytical_model(WireWriter& w, const hw::AnalyticalModel& m) {
  w.put_u32(static_cast<std::uint32_t>(m.units.size()));
  for (const hw::AnalyticalUnitModel& u : m.units) {
    w.put_i32(u.task);
    for (const double c : u.coeff) w.put_f64(c);
    w.put_f64(u.leakage_watts);
    w.put_u32(u.calibration_vectors);
    w.put_f64(u.residual_rms_j);
  }
  w.put_u32(static_cast<std::uint32_t>(m.pending.size()));
  for (const hw::AnalyticalCalibrationState& c : m.pending) {
    w.put_i32(c.task);
    for (const double x : c.moments.xtx) w.put_f64(x);
    for (const double x : c.moments.xty) w.put_f64(x);
    w.put_f64(c.moments.yty);
    w.put_u64(c.moments.n);
  }
}

bool get_analytical_model(WireReader& r, hw::AnalyticalModel* out) {
  out->units.clear();
  out->pending.clear();
  const std::uint32_t n = get_len(r, 4);
  out->units.resize(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    hw::AnalyticalUnitModel& u = out->units[i];
    u.task = r.get_i32();
    for (double& c : u.coeff) c = r.get_f64();
    u.leakage_watts = r.get_f64();
    u.calibration_vectors = r.get_u32();
    u.residual_rms_j = r.get_f64();
  }
  const std::uint32_t np = get_len(r, 4);
  out->pending.resize(np);
  for (std::uint32_t i = 0; i < np && r.ok(); ++i) {
    hw::AnalyticalCalibrationState& c = out->pending[i];
    c.task = r.get_i32();
    for (double& x : c.moments.xtx) x = r.get_f64();
    for (double& x : c.moments.xty) x = r.get_f64();
    c.moments.yty = r.get_f64();
    c.moments.n = r.get_u64();
  }
  return r.ok();
}

}  // namespace socpower::dist
