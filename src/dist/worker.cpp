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
  hw_ = dynamic_cast<core::HwEstimatorBase*>(inner_.get());
  if (!hw_) {
    std::fprintf(stderr,
                 "dist::Worker: inner backend \"%s\" is not an in-process "
                 "hardware backend\n",
                 inner_name.c_str());
    std::abort();
  }
  core::EstimatorContext ctx;
  ctx.network = net_;
  ctx.config = &cfg_;
  ctx.components = components_;
  ctx.path_tables = &paths_;
  hw_->prepare(ctx);
}

Worker::~Worker() = default;

void Worker::use_private_reaction_tables() {
  hw_->use_private_reaction_tables();
}

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
  if (!chunk.entries.empty()) {
    // Eager evaluation: price the shipped slice now, while the master's DE
    // loop keeps running. Slice results concatenate bit-identically to one
    // whole-batch flush (see HwEstimatorBase::drain_batch).
    UnitAccum& a = accum_[c];
    core::ComponentEstimator::FlushResult part =
        hw_->drain_batch(chunk.task, !a.started);
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
  core::ComponentEstimator::FlushResult tail =
      hw_->drain_batch(task, !a.started);
  out.gate_cycles += tail.gate_cycles;
  out.entries.insert(out.entries.end(), tail.entries.begin(),
                     tail.entries.end());
  a.started = false;
  return out;
}

std::optional<std::vector<std::uint8_t>> Worker::dispatch(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  WireReader r(payload);
  switch (type) {
    case MsgType::kBeginRun: {
      knobs(r, cfg_, core::KnobScope::kRun);
      if (!r.ok() || !r.at_end()) protocol_abort("begin_run");
      hw_->begin_run();
      for (auto& a : accum_) a = {};
      return std::nullopt;
    }
    case MsgType::kResync: {
      cfsm::CfsmId task = cfsm::kNoCfsm;
      r.i32(task);
      cfsm::CfsmState st;
      if (!decode(r, &st) || !r.at_end()) protocol_abort("resync");
      // The master sends kResync only when its mirror of this unit's
      // registers says they went stale, so the sync is unconditional.
      hw_->mark_skipped(task, true);
      hw_->resync_if_dirty(task, st);
      return std::nullopt;
    }
    case MsgType::kResetUnit: {
      cfsm::CfsmId task = cfsm::kNoCfsm;
      r.i32(task);
      if (!r.ok() || !r.at_end()) protocol_abort("reset_unit");
      hw_->reset_unit(task);
      return std::nullopt;
    }
    case MsgType::kEnqueueChunk: {
      ChunkPayload chunk;
      if (!decode(r, &chunk) || !r.at_end()) protocol_abort("chunk");
      handle_chunk(chunk);
      return std::nullopt;
    }
    case MsgType::kCost: {
      CostPayload c;
      if (!decode(r, &c) || !r.at_end()) protocol_abort("cost");
      core::TransitionRequest req;
      req.task = c.task;
      req.inputs = &c.inputs;
      req.pre_state = &c.pre_state;
      req.reaction = &c.reaction;
      req.post_state = &c.post_state;
      WireWriter w;
      encode(w, hw_->cost(req));
      return w.take();
    }
    case MsgType::kFlushUnit: {
      ChunkPayload chunk;
      if (!decode(r, &chunk) || !r.at_end()) protocol_abort("flush_unit");
      handle_chunk(chunk);
      WireWriter w;
      encode(w, collect_flush(chunk.task));
      return w.take();
    }
    case MsgType::kSeparateStep: {
      cfsm::CfsmId task = cfsm::kNoCfsm;
      r.i32(task);
      cfsm::ReactionInputs inputs;
      if (!decode(r, &inputs) || !r.at_end())
        protocol_abort("separate_step");
      WireWriter w;
      w.f64(hw_->separate_step(task, inputs));
      return w.take();
    }
    case MsgType::kStats: {
      if (!r.at_end()) protocol_abort("stats");
      core::RunResults tmp;
      hw_->stats(tmp);
      WireWriter w;
      w.u64(tmp.gate_sim_cycles);
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
