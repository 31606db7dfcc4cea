#include "dist/worker.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "core/estimators/hw_estimator.hpp"
#include "core/estimators/registry.hpp"

namespace socpower::dist {

namespace {

[[noreturn]] void protocol_abort(const char* what) {
  std::fprintf(stderr, "dist::Worker: malformed %s frame\n", what);
  std::abort();
}

}  // namespace

Worker::Worker(const std::string& inner_name, const cfsm::Network* net,
               const core::CoEstimatorConfig& config,
               std::vector<cfsm::CfsmId> components)
    : cfg_(config), net_(net), components_(std::move(components)) {
  paths_.resize(net_->cfsm_count());
  accum_.resize(net_->cfsm_count());
  inner_ = core::estimator_registry().create(inner_name);
  if (!inner_) {
    std::fprintf(stderr, "dist::Worker: inner backend \"%s\" not registered\n",
                 inner_name.c_str());
    std::abort();
  }
  hw_ = dynamic_cast<core::HwBackend*>(inner_.get());
  if (!hw_) {
    std::fprintf(stderr,
                 "dist::Worker: inner backend \"%s\" is not a HwBackend\n",
                 inner_name.c_str());
    std::abort();
  }
  streaming_ = dynamic_cast<core::HwEstimatorBase*>(inner_.get());
  core::EstimatorContext ctx;
  ctx.network = net_;
  ctx.config = &cfg_;
  ctx.components = components_;
  ctx.path_tables = &paths_;
  inner_->prepare(ctx);
}

Worker::~Worker() = default;

void Worker::handle_chunk(const ChunkPayload& chunk) {
  const auto c = static_cast<std::size_t>(chunk.task);
  cfsm::PathTable& table = paths_.at(c);
  // Path deltas are cumulative and complete (the request log starts with
  // kPathPreload-equivalent chunks on replay), so the base must line up.
  if (table.size() != chunk.base_paths) protocol_abort("path-delta");
  for (const auto& trace : chunk.new_paths) {
    const cfsm::PathId id = table.intern(trace);
    (void)id;
    assert(static_cast<std::size_t>(id) == table.size() - 1);
  }
  for (const auto& e : chunk.entries)
    hw_->enqueue(chunk.task, e.time, e.inputs, e.path, e.pre);
  if (streaming_ && !chunk.entries.empty()) {
    // Eager evaluation: price the shipped slice now, while the master's DE
    // loop keeps running. Slice results concatenate bit-identically to one
    // whole-batch flush (see HwEstimatorBase::drain_batch).
    UnitAccum& a = accum_[c];
    core::ComponentEstimator::FlushResult part =
        streaming_->drain_batch(chunk.task, !a.started);
    a.started = true;
    a.acc.gate_cycles += part.gate_cycles;
    a.acc.entries.insert(a.acc.entries.end(), part.entries.begin(),
                         part.entries.end());
  }
}

core::ComponentEstimator::FlushResult Worker::collect_flush(
    cfsm::CfsmId task) {
  const auto c = static_cast<std::size_t>(task);
  UnitAccum& a = accum_[c];
  core::ComponentEstimator::FlushResult out = std::move(a.acc);
  a.acc = {};
  if (streaming_) {
    core::ComponentEstimator::FlushResult tail =
        streaming_->drain_batch(task, !a.started);
    out.gate_cycles += tail.gate_cycles;
    out.entries.insert(out.entries.end(), tail.entries.begin(),
                       tail.entries.end());
  } else {
    // Non-streaming inner backend: everything is still buffered; run its
    // own flush job for this unit.
    std::vector<core::ComponentEstimator::FlushJob> jobs;
    inner_->flush(jobs);
    for (auto& job : jobs) {
      if (job.component != task) continue;
      core::ComponentEstimator::FlushResult fr = job.work();
      out.gate_cycles += fr.gate_cycles;
      out.entries.insert(out.entries.end(), fr.entries.begin(),
                         fr.entries.end());
    }
  }
  a.started = false;
  return out;
}

std::optional<std::vector<std::uint8_t>> Worker::dispatch(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  switch (type) {
    case MsgType::kBeginRun: {
      if (!get_knobs(r, &cfg_, core::KnobScope::kRun) || !r.at_end())
        protocol_abort("begin_run");
      inner_->begin_run();
      for (auto& a : accum_) a = {};
      return std::nullopt;
    }
    case MsgType::kResync: {
      const cfsm::CfsmId task = r.get_i32();
      cfsm::CfsmState st;
      if (!get_state(r, &st) || !r.at_end()) protocol_abort("resync");
      hw_->resync_if_dirty(task, st);
      return std::nullopt;
    }
    case MsgType::kMarkSkipped: {
      const cfsm::CfsmId task = r.get_i32();
      const bool skipped = r.get_u8() != 0;
      if (!r.ok() || !r.at_end()) protocol_abort("mark_skipped");
      hw_->mark_skipped(task, skipped);
      return std::nullopt;
    }
    case MsgType::kResetUnit: {
      const cfsm::CfsmId task = r.get_i32();
      if (!r.ok() || !r.at_end()) protocol_abort("reset_unit");
      hw_->reset_unit(task);
      return std::nullopt;
    }
    case MsgType::kEnqueueChunk: {
      ChunkPayload chunk;
      if (!get_chunk(r, &chunk) || !r.at_end()) protocol_abort("chunk");
      handle_chunk(chunk);
      return std::nullopt;
    }
    case MsgType::kCost: {
      CostPayload c;
      if (!get_cost(r, &c) || !r.at_end()) protocol_abort("cost");
      core::TransitionRequest req;
      req.task = c.task;
      req.path = c.path;
      req.now = c.now;
      req.inputs = &c.inputs;
      req.reaction = &c.reaction;
      req.post_state = &c.post_state;
      const core::TransitionCost cost = inner_->cost(req);
      WireWriter w;
      put_transition_cost(w, cost);
      return w.take();
    }
    case MsgType::kFlushUnit: {
      ChunkPayload chunk;
      if (!get_chunk(r, &chunk) || !r.at_end()) protocol_abort("flush_unit");
      handle_chunk(chunk);
      WireWriter w;
      put_flush_result(w, collect_flush(chunk.task));
      return w.take();
    }
    case MsgType::kSeparateReset: {
      const cfsm::CfsmId task = r.get_i32();
      if (!r.ok() || !r.at_end()) protocol_abort("separate_reset");
      hw_->separate_reset(task);
      return std::nullopt;
    }
    case MsgType::kSeparateStep: {
      const cfsm::CfsmId task = r.get_i32();
      cfsm::ReactionInputs inputs;
      if (!get_inputs(r, &inputs) || !r.at_end())
        protocol_abort("separate_step");
      const Joules e = hw_->separate_step(task, inputs);
      WireWriter w;
      w.put_f64(e);
      return w.take();
    }
    case MsgType::kStats: {
      if (!r.at_end()) protocol_abort("stats");
      core::RunResults tmp;
      inner_->stats(tmp);
      WireWriter w;
      w.put_u64(tmp.gate_sim_cycles);
      return w.take();
    }
    default:
      protocol_abort("unknown-type");
  }
}

int Worker::serve(Channel& ch) {
  for (;;) {
    Frame f;
    const Channel::RecvStatus st = ch.recv_frame(&f, /*timeout_ms=*/-1);
    if (st != Channel::RecvStatus::kOk) return st == Channel::RecvStatus::kClosed ? 0 : 1;
    if (f.type == MsgType::kShutdown) return 0;
    const auto reply = dispatch(f.type, f.payload);
    if (reply) {
      if (!ch.send_frame(MsgType::kReply, *reply)) return 1;
    }
  }
}

}  // namespace socpower::dist
