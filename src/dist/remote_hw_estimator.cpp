#include "dist/remote_hw_estimator.hpp"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#if !defined(_WIN32)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace socpower::dist {

namespace {

[[noreturn]] void reply_abort(const char* what) {
  std::fprintf(stderr, "dist::RemoteHwEstimator: malformed %s reply\n", what);
  std::abort();
}

}  // namespace

RemoteHwEstimator::RemoteHwEstimator(std::string inner_name)
    : inner_(std::move(inner_name)), name_(inner_ + ".remote") {}

RemoteHwEstimator::~RemoteHwEstimator() {
  std::lock_guard<std::mutex> lk(mu_);
  shutdown_proc(&primary_, /*graceful=*/true);
  shutdown_proc(&standby_, /*graceful=*/true);
}

int RemoteHwEstimator::timeout_ms() const {
  return static_cast<int>(config_->dist_rpc_timeout_ms);
}

bool RemoteHwEstimator::spawn(Proc* p) {
#if defined(_WIN32)
  (void)p;
  return false;
#else
  Channel parent_end;
  Channel child_end;
  if (!Channel::make_pair(&parent_end, &child_end)) return false;
  parent_end.set_parent_side();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Worker child. Drop every parent-side endpoint (ours included — the
    // parent keeps it) so a sibling's crash is observed as EOF, then serve
    // until shutdown. _Exit: no atexit/static destructors of the parent.
    close_parent_fds_in_child();
    int code = 1;
    {
      Worker w(inner_, net_, prep_cfg_, components_);
      code = w.serve(child_end);
    }
    std::_Exit(code);
  }
  child_end.close();
  p->pid = static_cast<long>(pid);
  p->ch = std::move(parent_end);
  return true;
#endif
}

void RemoteHwEstimator::shutdown_proc(Proc* p, bool graceful) {
#if !defined(_WIN32)
  if (p->pid < 0) return;
  if (graceful && p->ch.valid())
    (void)p->ch.send_frame(MsgType::kShutdown, {}, /*timeout_ms=*/1000);
  else
    ::kill(static_cast<pid_t>(p->pid), SIGKILL);
  p->ch.close();
  int status = 0;
  (void)::waitpid(static_cast<pid_t>(p->pid), &status, 0);
#endif
  p->pid = -1;
  p->ch.close();
}

void RemoteHwEstimator::prepare(const core::EstimatorContext& ctx) {
  net_ = ctx.network;
  config_ = ctx.config;
  path_tables_ = ctx.path_tables;
  components_ = ctx.components;
  prep_cfg_ = *ctx.config;
  const std::size_t n = net_->cfsm_count();
  pending_.assign(n, {});
  synced_paths_.assign(n, 0);
  unit_has_work_.assign(n, false);
  worker_dirty_.assign(n, false);
  images_.clear();
  images_.resize(n);

  const std::string prefix = "estimator." + name_ + ".dist.";
  auto& reg = telemetry::registry();
  rpcs_telem_ = &reg.counter(prefix + "rpcs");
  bytes_tx_telem_ = &reg.counter(prefix + "bytes_tx");
  bytes_rx_telem_ = &reg.counter(prefix + "bytes_rx");
  respawns_telem_ = &reg.counter(prefix + "respawns");
  fallbacks_telem_ = &reg.counter(prefix + "fallbacks");
  global_fallbacks_telem_ = &reg.counter("dist.fallbacks");
  latency_telem_ = &reg.histogram(prefix + "rpc_latency_ms", 0.0, 1e3, 32);

  std::lock_guard<std::mutex> lk(mu_);
  if (supported() && spawn(&primary_)) {
    // A dead standby is not fatal — one respawn credit is just unavailable.
    (void)spawn(&standby_);
  } else {
    fallbacks_telem_->add();
    global_fallbacks_telem_->add();
    local_ = std::make_unique<Worker>(inner_, net_, prep_cfg_, components_);
  }
}

bool RemoteHwEstimator::remote_active() const {
  std::lock_guard<std::mutex> lk(mu_);
  return !local_ && primary_.pid >= 0;
}

void RemoteHwEstimator::debug_kill_workers(bool include_standby) {
#if !defined(_WIN32)
  std::lock_guard<std::mutex> lk(mu_);
  if (primary_.pid >= 0) ::kill(static_cast<pid_t>(primary_.pid), SIGKILL);
  if (include_standby && standby_.pid >= 0)
    ::kill(static_cast<pid_t>(standby_.pid), SIGKILL);
#else
  (void)include_standby;
#endif
}

void RemoteHwEstimator::note_bytes() {
  if (!primary_.ch.valid()) return;
  bytes_tx_telem_->add(primary_.ch.bytes_tx() - tx_seen_);
  bytes_rx_telem_->add(primary_.ch.bytes_rx() - rx_seen_);
  tx_seen_ = primary_.ch.bytes_tx();
  rx_seen_ = primary_.ch.bytes_rx();
}

std::vector<std::uint8_t> RemoteHwEstimator::recover() {
  shutdown_proc(&primary_, /*graceful=*/false);
  if (standby_.pid >= 0) {
    respawns_telem_->add();
    primary_ = std::move(standby_);
    standby_ = Proc{};
    tx_seen_ = rx_seen_ = 0;
    std::vector<std::uint8_t> last;
    bool ok = true;
    for (const Frame& f : log_) {
      if (!primary_.ch.send_frame(f.type, f.payload, timeout_ms())) {
        ok = false;
        break;
      }
      if (expects_reply(f.type)) {
        Frame rep;
        if (primary_.ch.recv_frame(&rep, timeout_ms()) !=
                Channel::RecvStatus::kOk ||
            rep.type != MsgType::kReply) {
          ok = false;
          break;
        }
        last = std::move(rep.payload);
      } else {
        last.clear();
      }
    }
    note_bytes();
    if (ok) return last;
    shutdown_proc(&primary_, /*graceful=*/false);
  }
  // Both processes are gone: replay into an in-process Worker. Same frame
  // stream through the same dispatch code, so the results (and every
  // subsequent request) stay bit-identical to the remote execution.
  fallbacks_telem_->add();
  global_fallbacks_telem_->add();
  local_ = std::make_unique<Worker>(inner_, net_, prep_cfg_, components_);
  std::vector<std::uint8_t> last;
  for (const Frame& f : log_) {
    auto rep = local_->dispatch(f.type, f.payload);
    last = rep ? std::move(*rep) : std::vector<std::uint8_t>{};
  }
  return last;
}

std::vector<std::uint8_t> RemoteHwEstimator::transact(
    MsgType t, const std::vector<std::uint8_t>& payload) {
  rpcs_telem_->add();
  const bool telem = telemetry::enabled();
  const auto t0 = telem ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  std::vector<std::uint8_t> reply;
  if (local_) {
    auto rep = local_->dispatch(t, payload);
    if (rep) reply = std::move(*rep);
  } else {
    bool ok = primary_.ch.send_frame(t, payload, timeout_ms());
    if (ok && expects_reply(t)) {
      Frame f;
      ok = primary_.ch.recv_frame(&f, timeout_ms()) ==
               Channel::RecvStatus::kOk &&
           f.type == MsgType::kReply;
      if (ok) reply = std::move(f.payload);
    }
    note_bytes();
    if (!ok) reply = recover();
  }
  if (telem)
    latency_telem_->observe(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
  return reply;
}

std::vector<std::uint8_t> RemoteHwEstimator::xfer(
    MsgType t, std::vector<std::uint8_t> payload) {
  log_.push_back(Frame{t, std::move(payload)});
  return transact(t, log_.back().payload);
}

std::vector<std::uint8_t> RemoteHwEstimator::take_chunk(cfsm::CfsmId task) {
  const auto c = static_cast<std::size_t>(task);
  const cfsm::PathTable& table = (*path_tables_)[c];
  ChunkPayload chunk;
  chunk.task = task;
  chunk.base_paths = synced_paths_[c];
  for (std::size_t i = synced_paths_[c]; i < table.size(); ++i)
    chunk.new_paths.push_back(table.path(static_cast<cfsm::PathId>(i)));
  synced_paths_[c] = static_cast<std::uint32_t>(table.size());
  chunk.entries = std::move(pending_[c]);
  pending_[c].clear();
  WireWriter w;
  put_chunk(w, chunk);
  return w.take();
}

void RemoteHwEstimator::begin_run() {
  std::lock_guard<std::mutex> lk(mu_);
  // Compact the request log: everything a fresh Worker needs to reach the
  // start of this run is the accumulated path tables plus the per-run knobs.
  // (The live worker keeps its tables across runs, so only the kBeginRun
  // frame is actually sent.)
  log_.clear();
  for (const cfsm::CfsmId task : components_) {
    const auto c = static_cast<std::size_t>(task);
    pending_[c].clear();
    unit_has_work_[c] = false;
    worker_dirty_[c] = false;
    if (synced_paths_[c] == 0) continue;
    ChunkPayload preload;
    preload.task = task;
    preload.base_paths = 0;
    for (std::uint32_t i = 0; i < synced_paths_[c]; ++i)
      preload.new_paths.push_back(
          (*path_tables_)[c].path(static_cast<cfsm::PathId>(i)));
    WireWriter w;
    put_chunk(w, preload);
    log_.push_back(Frame{MsgType::kEnqueueChunk, w.take()});
  }
  WireWriter w;
  put_knobs(w, *config_, core::KnobScope::kRun);
  log_.push_back(Frame{MsgType::kBeginRun, w.take()});
  (void)transact(MsgType::kBeginRun, log_.back().payload);
}

core::TransitionCost RemoteHwEstimator::cost(
    const core::TransitionRequest& req) {
  CostPayload c;
  c.task = req.task;
  c.path = req.path;
  c.now = req.now;
  c.inputs = *req.inputs;
  c.reaction = *req.reaction;
  c.post_state = *req.post_state;
  WireWriter w;
  put_cost(w, c);
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<std::uint8_t> reply = xfer(MsgType::kCost, w.take());
  WireReader r(reply);
  core::TransitionCost out;
  if (!get_transition_cost(r, &out) || !r.at_end()) reply_abort("cost");
  return out;
}

void RemoteHwEstimator::flush(std::vector<FlushJob>& jobs) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const cfsm::CfsmId task : components_) {
    const auto c = static_cast<std::size_t>(task);
    if (!unit_has_work_[c]) continue;
    unit_has_work_[c] = false;
    jobs.push_back({task, [this, task] {
      SOCPOWER_TRACE_SPAN("dist.remote_flush_unit", 0,
                          static_cast<std::uint64_t>(task));
      std::lock_guard<std::mutex> jlk(mu_);
      const std::vector<std::uint8_t> reply =
          xfer(MsgType::kFlushUnit, take_chunk(task));
      WireReader r(reply);
      FlushResult out;
      if (!get_flush_result(r, &out) || !r.at_end())
        reply_abort("flush_result");
      return out;
    }});
  }
}

void RemoteHwEstimator::stats(core::RunResults& res) const {
  auto* self = const_cast<RemoteHwEstimator*>(this);
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<std::uint8_t> reply = self->xfer(MsgType::kStats, {});
  WireReader r(reply);
  const std::uint64_t cycles = r.get_u64();
  if (!r.ok() || !r.at_end()) reply_abort("stats");
  res.gate_sim_cycles += cycles;
}

const hwsyn::HwImage* RemoteHwEstimator::image(cfsm::CfsmId task) const {
  bool owned = false;
  for (const cfsm::CfsmId c : components_) owned = owned || c == task;
  if (!owned) return nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = images_[static_cast<std::size_t>(task)];
  if (!slot)
    slot = std::make_unique<hwsyn::HwImage>(
        hwsyn::synthesize_cfsm(net_->cfsm(task)));
  return slot.get();
}

void RemoteHwEstimator::resync_if_dirty(cfsm::CfsmId task,
                                        const cfsm::CfsmState& state) {
  std::lock_guard<std::mutex> lk(mu_);
  if (!worker_dirty_[static_cast<std::size_t>(task)]) return;
  worker_dirty_[static_cast<std::size_t>(task)] = false;
  WireWriter w;
  w.put_i32(task);
  put_state(w, state);
  (void)xfer(MsgType::kResync, w.take());
}

void RemoteHwEstimator::mark_skipped(cfsm::CfsmId task, bool skipped) {
  std::lock_guard<std::mutex> lk(mu_);
  auto flag = worker_dirty_[static_cast<std::size_t>(task)];
  if (flag == skipped) return;  // no worker state change: save the frame
  worker_dirty_[static_cast<std::size_t>(task)] = skipped;
  WireWriter w;
  w.put_i32(task);
  w.put_u8(skipped ? 1 : 0);
  (void)xfer(MsgType::kMarkSkipped, w.take());
}

void RemoteHwEstimator::reset_unit(cfsm::CfsmId task) {
  WireWriter w;
  w.put_i32(task);
  std::lock_guard<std::mutex> lk(mu_);
  (void)xfer(MsgType::kResetUnit, w.take());
}

void RemoteHwEstimator::enqueue(cfsm::CfsmId task, sim::SimTime time,
                                const cfsm::ReactionInputs& inputs,
                                cfsm::PathId path,
                                const cfsm::CfsmState& pre_state) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto c = static_cast<std::size_t>(task);
  pending_[c].push_back({time, inputs, path, pre_state});
  unit_has_work_[c] = true;
  if (pending_[c].size() >= config_->dist_flush_chunk)
    (void)xfer(MsgType::kEnqueueChunk, take_chunk(task));
}

void RemoteHwEstimator::separate_reset(cfsm::CfsmId task) {
  WireWriter w;
  w.put_i32(task);
  std::lock_guard<std::mutex> lk(mu_);
  (void)xfer(MsgType::kSeparateReset, w.take());
}

Joules RemoteHwEstimator::separate_step(cfsm::CfsmId task,
                                        const cfsm::ReactionInputs& inputs) {
  WireWriter w;
  w.put_i32(task);
  put_inputs(w, inputs);
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<std::uint8_t> reply =
      xfer(MsgType::kSeparateStep, w.take());
  WireReader r(reply);
  const Joules e = r.get_f64();
  if (!r.ok() || !r.at_end()) reply_abort("separate_step");
  return e;
}

}  // namespace socpower::dist
