#include "core/estimators/sw_iss_estimator.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "telemetry/registry.hpp"

namespace socpower::core {

iss::InstructionPowerModel instruction_power_model(
    const CoEstimatorConfig& config) {
  return config.data_nj_per_toggle > 0.0
             ? iss::InstructionPowerModel::dsp_like(config.data_nj_per_toggle,
                                                    config.electrical)
             : iss::InstructionPowerModel::sparclite(config.electrical);
}

void SwIssEstimator::prepare(const EstimatorContext& ctx) {
  net_ = ctx.network;
  config_ = ctx.config;
  components_ = ctx.components;

  iss_ = std::make_unique<iss::Iss>(instruction_power_model(*config_));
  images_.resize(net_->cfsm_count());
  std::uint32_t next_code_word = 16;
  std::uint32_t next_data_base = 0x4000;
  for (const cfsm::CfsmId task : components_) {
    auto img = std::make_unique<swsyn::SwImage>(swsyn::compile_cfsm(
        net_->cfsm(task), next_code_word, next_data_base));
    // Iss::load_program drops the words that do not fit, so an oversized
    // image would run truncated: refuse it in every build type.
    const std::uint64_t mem = iss_->config().memory_bytes;
    if (std::uint64_t{img->code_base_word} + img->code.size() >
            mem / iss::kInstrBytes ||
        std::uint64_t{img->data_base} + img->data_bytes > mem) {
      std::fprintf(stderr,
                   "SwIssEstimator: process \"%s\" does not fit the ISS: "
                   "%zu code words at word %u and %u data bytes at 0x%x, but "
                   "the ISS holds %llu code words and %llu data bytes\n",
                   net_->cfsm(task).name().c_str(), img->code.size(),
                   img->code_base_word, img->data_bytes, img->data_base,
                   static_cast<unsigned long long>(mem / iss::kInstrBytes),
                   static_cast<unsigned long long>(mem));
      std::abort();
    }
    next_code_word += static_cast<std::uint32_t>(img->code.size()) + 16;
    next_data_base += (img->data_bytes + 15u) & ~15u;
    iss_->load_program(img->code, img->code_base_word);
    images_[static_cast<std::size_t>(task)] = std::move(img);
  }
}

void SwIssEstimator::begin_run() {
  iss_->reset_cpu();
  invocations_ = 0;
  instructions_ = 0;
}

iss::RunResult SwIssEstimator::invoke(cfsm::CfsmId task,
                                      const cfsm::ReactionInputs& inputs,
                                      const cfsm::CfsmState& pre_state) {
  static telemetry::Counter& invocations =
      telemetry::registry().counter("estimator.sw.iss.invocations");
  static telemetry::Counter& instructions =
      telemetry::registry().counter("estimator.sw.iss.instructions");
  const swsyn::SwImage& img = *images_[static_cast<std::size_t>(task)];
  swsyn::stage_reaction(*iss_, img, inputs, pre_state);
  // Reset the CPU's inter-invocation circuit state so a path's cost is a
  // pure function of the path — the property that makes caching exact for
  // data-independent power models (paper Section 5.2).
  iss_->reset_cpu();
  iss_->set_pc(img.code_base_word);
  const iss::RunResult r = iss_->run();
  assert(r.halted && "software transition did not reach HALT");
  ++invocations_;
  instructions_ += r.instructions;
  invocations.add();
  instructions.add(r.instructions);
  return r;
}

TransitionCost SwIssEstimator::cost(const TransitionRequest& req) {
  sync_overhead(config_->sync_spin);
  const iss::RunResult r = invoke(req.task, *req.inputs, *req.pre_state);
  if (config_->verify_lowlevel) {
    const swsyn::SwImage& img = *images_[static_cast<std::size_t>(req.task)];
    cfsm::CfsmState iss_vars = *req.pre_state;
    swsyn::read_vars(*iss_, img, iss_vars);
    verify_lowlevel_match(name(), req.task, swsyn::read_emissions(*iss_, img),
                          req.reaction->emissions, iss_vars.vars,
                          req.post_state->vars);
  }
  return {static_cast<double>(r.cycles), r.energy, true};
}

Joules SwIssEstimator::replay(cfsm::CfsmId task,
                              const cfsm::ReactionInputs& inputs,
                              const cfsm::CfsmState& pre_state) {
  return invoke(task, inputs, pre_state).energy;
}

void SwIssEstimator::stats(RunResults& res) const {
  // Accumulate: with N cores the master owns one ISS backend per core and
  // folds all of them into the same RunResults.
  res.iss_invocations += invocations_;
  res.iss_instructions += instructions_;
}

const swsyn::SwImage* SwIssEstimator::image(cfsm::CfsmId task) const {
  return images_.at(static_cast<std::size_t>(task)).get();
}

BackendWarmState SwIssEstimator::export_warm_state() const {
  BackendWarmState state;
  if (iss_) state.block_entries = iss_->cached_block_entries();
  return state;
}

void SwIssEstimator::import_warm_state(const BackendWarmState& state) {
  if (!iss_) return;
  for (const std::uint32_t entry : state.block_entries)
    iss_->warm_block(entry);
}

ComponentEstimator::WarmCacheCounters SwIssEstimator::warm_cache_counters()
    const {
  WarmCacheCounters c;
  if (iss_) {
    const iss::BlockCacheStats& s = iss_->block_cache_stats();
    c.hits = s.hits;
    c.fills = s.decodes;
  }
  return c;
}

}  // namespace socpower::core
