#include "systems/multicore.hpp"

#include <cassert>
#include <string>

#include "systems/builder.hpp"

namespace socpower::systems {

namespace {

/// Base address of the shared result buffer all workers write to.
constexpr std::uint32_t kSharedBase = 0x2000;
/// Bytes each worker's per-packet result block occupies.
constexpr std::uint32_t kBlockBytes = 16;

}  // namespace

MulticoreSystem::MulticoreSystem(MulticoreParams params) : params_(params) {
  assert(params_.cores >= 1);
  ev_done_ = network_.declare_event("DONE");
  ev_tick_ = network_.declare_event("TIMER_TICK");
  ev_time_ = network_.declare_event("TIME");
  ev_iter_ = network_.declare_event("ITER");
  ev_byte_done_ = network_.declare_event("BYTE_DONE");
  ev_reset_ = network_.declare_event("RESET");
  for (unsigned w = 0; w < params_.cores; ++w) {
    ev_start_.push_back(
        network_.declare_event("START" + std::to_string(w)));
    ev_step_.push_back(network_.declare_event("STEP" + std::to_string(w)));
  }

  // ---- workers (software, one per core) -------------------------------------
  for (unsigned w = 0; w < params_.cores; ++w) {
    cfsm::Cfsm& c = network_.add_cfsm("worker" + std::to_string(w));
    c.add_input(ev_start_[w]);
    c.add_input(ev_step_[w]);
    c.add_output(ev_step_[w]);
    c.add_output(ev_done_);
    c.set_reset_event(ev_reset_);
    const auto PKTS = c.add_var("PKTS");
    const auto I = c.add_var("I");
    const auto ACC = c.add_var("ACC");
    Behavior b{c};

    // START branch (fallthrough target of STEP, as in prodcons): queue one
    // packet; begin processing if idle.
    const auto n_begin = b.assign(
        I, b.k(params_.bytes_per_packet),
        b.assign(ACC, b.k(static_cast<int>(w) * 17),
                 b.emit(ev_step_[w], b.k(0), b.end())));
    const auto n_idle_test = b.test(b.eq(b.v(I), b.k(0)), n_begin, b.end());
    const auto n_start = b.assign(PKTS, b.add(b.v(PKTS), b.k(1)), n_idle_test);
    const auto n_start_test =
        b.test(b.present(ev_start_[w]), n_start, b.end());

    // STEP branch: one checksum-like mixing step per pseudo-byte.
    const auto n_restart = b.assign(
        I, b.k(params_.bytes_per_packet),
        b.assign(ACC, b.k(static_cast<int>(w) * 17),
                 b.emit(ev_step_[w], b.k(0), n_start_test)));
    const auto n_more =
        b.test(b.gt(b.v(PKTS), b.k(0)), n_restart, n_start_test);
    const auto n_finish = b.emit(ev_done_, b.v(ACC),
                                 b.assign(PKTS, b.sub(b.v(PKTS), b.k(1)),
                                          n_more));
    const auto n_continue = b.emit(ev_step_[w], b.v(I), n_start_test);
    const auto n_cont_test =
        b.test(b.gt(b.v(I), b.k(0)), n_continue, n_finish);
    const auto mix = b.add(
        b.bxor(b.add(b.v(ACC), b.mul(b.v(I), b.k(7))), b.shr(b.v(ACC), 3)),
        b.k(1));
    const auto n_step_body = b.assign(
        ACC, mix, b.assign(I, b.sub(b.v(I), b.k(1)), n_cont_test));
    const auto n_step_guard =
        b.test(b.gt(b.v(I), b.k(0)), n_step_body, n_start_test);

    b.root(b.test(b.present(ev_step_[w]), n_step_guard, n_start_test));
    workers_.push_back(c.id());
  }

  // ---- timer (hardware) -----------------------------------------------------
  {
    cfsm::Cfsm& c = network_.add_cfsm("timer");
    c.add_input(ev_tick_);
    c.add_output(ev_time_);
    c.set_reset_event(ev_reset_);
    const auto T = c.add_var("T");
    Behavior b{c};
    b.root(b.assign(T, b.add(b.v(T), b.k(1)),
                    b.emit(ev_time_, b.v(T), b.end())));
    timer_ = c.id();
  }

  // ---- collector (hardware) -------------------------------------------------
  {
    cfsm::Cfsm& c = network_.add_cfsm("collector");
    c.add_input(ev_done_);
    c.add_input(ev_iter_);
    c.add_sampled_input(ev_time_);
    c.add_output(ev_iter_);
    c.add_output(ev_byte_done_);
    c.set_reset_event(ev_reset_);
    const auto PREV = c.add_var("PREV_TIME");
    const auto CNT = c.add_var("N_IT");
    const auto DACC = c.add_var("DACC");
    Behavior b{c};

    const auto n_iter_more =
        b.test(b.gt(b.v(CNT), b.k(0)), b.emit0(ev_iter_, b.end()), b.end());
    const auto n_iter_body = b.assign(
        DACC, b.add(b.bxor(b.v(DACC), b.shl(b.v(CNT), 2)), b.k(3)),
        b.emit(ev_byte_done_, b.v(DACC),
               b.assign(CNT, b.sub(b.v(CNT), b.k(1)), n_iter_more)));
    const auto n_iter_guard =
        b.test(b.gt(b.v(CNT), b.k(0)), n_iter_body, b.end());
    const auto n_iter_test =
        b.test(b.present(ev_iter_), n_iter_guard, b.end());

    // DONE branch: N_IT += (TIME - PREV_TIME) + base. With N workers the
    // DONE stream interleaves N timing-dependent spacings.
    const auto n_kick =
        b.test(b.gt(b.v(CNT), b.k(0)), b.emit0(ev_iter_, b.end()), b.end());
    const auto n_done = b.assign(
        CNT,
        b.add(b.v(CNT),
              b.add(b.sub(b.val(ev_time_), b.v(PREV)),
                    b.k(params_.collector_base_iterations))),
        b.assign(PREV, b.val(ev_time_), n_kick));

    b.root(b.test(b.present(ev_done_), n_done, n_iter_test));
    collector_ = c.id();
  }

  assert(network_.validate().empty());
}

core::CoEstimatorConfig MulticoreSystem::config_template() const {
  core::CoEstimatorConfig cfg;
  cfg.cores = params_.cores;
  cfg.interconnect = params_.interconnect;
  if (params_.interconnect == core::InterconnectKind::kNoc) {
    // Mesh sized to fit every worker plus the memory node in the far
    // corner: 2 columns, enough rows for cores + 1 nodes.
    cfg.noc.mesh_cols = 2;
    cfg.noc.mesh_rows = (params_.cores + 2) / 2;
    cfg.noc.memory_node = -1;
  }
  cfg.coherence.enabled = params_.coherent;
  return cfg;
}

void MulticoreSystem::configure(core::CoEstimator& est) const {
  for (unsigned w = 0; w < params_.cores; ++w)
    est.map_sw(workers_[w], /*core=*/w, /*rtos_priority=*/1);
  est.map_hw(timer_);
  est.map_hw(collector_);

  // Shared result buffer: every DONE writes the worker's result block into
  // one of a handful of shared lines (selected by the checksum), so blocks
  // from different cores collide and — with coherence on — invalidations
  // ping-pong between the private L1s. Worker i is interconnect master i,
  // which the NoC maps to mesh node i.
  const std::vector<cfsm::CfsmId> workers = workers_;
  const cfsm::EventId done = ev_done_;
  const unsigned lines = params_.shared_lines;
  est.set_traffic_hook(
      [workers, done, lines](cfsm::CfsmId task, const cfsm::Reaction& reaction,
                             const cfsm::CfsmState&,
                             std::vector<bus::BusRequest>& reqs) {
        int master = -1;
        for (std::size_t w = 0; w < workers.size(); ++w)
          if (workers[w] == task) master = static_cast<int>(w);
        if (master < 0) return;
        for (const auto& em : reaction.emissions) {
          if (em.event != done) continue;
          bus::BusRequest rq;
          rq.master = master;
          rq.priority = 3;
          rq.write = true;
          const auto v = static_cast<std::uint32_t>(em.value);
          rq.addr = kSharedBase + (v % lines) * kBlockBytes;
          rq.data.resize(kBlockBytes);
          for (std::uint32_t k = 0; k < kBlockBytes; ++k)
            rq.data[k] =
                static_cast<std::uint8_t>((v >> (8 * (k % 4))) ^ k);
          reqs.push_back(std::move(rq));
        }
      });
}

sim::Stimulus MulticoreSystem::stimulus(sim::SimTime horizon) const {
  sim::Stimulus s;
  for (unsigned w = 0; w < params_.cores; ++w)
    for (int p = 0; p < params_.num_packets; ++p)
      s.add(1 + static_cast<sim::SimTime>(w) +
                static_cast<sim::SimTime>(p) * params_.start_gap,
            ev_start_[w]);
  for (sim::SimTime t = params_.tick_period; t <= horizon;
       t += params_.tick_period)
    s.add(t, ev_tick_);
  return s;
}

}  // namespace socpower::systems
