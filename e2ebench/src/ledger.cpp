#include "ledger.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "core/estimators/component_estimator.hpp"
#include "core/estimators/registry.hpp"

namespace e2ebench {

namespace core = socpower::core;
namespace cfsm = socpower::cfsm;
namespace sim = socpower::sim;

namespace {

struct LayerTotals {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> prepare_ns{0};
};

struct Ledger {
  std::array<LayerTotals, kLayerCount> layers;
  std::atomic<std::uint64_t> hw_cost_calls{0};
  std::atomic<std::uint64_t> hw_enqueue_calls{0};
  std::atomic<std::uint64_t> hw_flush_ns{0};
};

Ledger& ledger() {
  static Ledger l;
  return l;
}

void add(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  a.fetch_add(v, std::memory_order_relaxed);
}

/// Times one forwarded call into `layer`: busy time, or prepare time for
/// prepare(); `extra` also receives the duration (the hw flush split).
class Span {
 public:
  explicit Span(Layer layer, bool prepare = false,
                std::atomic<std::uint64_t>* extra = nullptr)
      : totals_(ledger().layers[static_cast<std::size_t>(layer)]),
        prepare_(prepare),
        extra_(extra),
        t0_(std::chrono::steady_clock::now()) {}
  ~Span() {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
    add(totals_.calls, 1);
    add(prepare_ ? totals_.prepare_ns : totals_.busy_ns, ns);
    if (extra_ != nullptr) add(*extra_, ns);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerTotals& totals_;
  bool prepare_;
  std::atomic<std::uint64_t>* extra_;
  std::chrono::steady_clock::time_point t0_;
};

/// Forwarding of the common ComponentEstimator interface for a wrapper of
/// role `Role`; the role-specific virtuals are forwarded by the subclasses.
template <typename Role, Layer L>
class Timed : public Role {
 public:
  Timed(std::string name, std::unique_ptr<core::ComponentEstimator> owned,
        Role* inner)
      : name_(std::move(name)), owned_(std::move(owned)), inner_(inner) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  void prepare(const core::EstimatorContext& ctx) override {
    Span s(L, /*prepare=*/true);
    inner_->prepare(ctx);
  }
  void begin_run() override {
    Span s(L);
    inner_->begin_run();
  }
  core::TransitionCost cost(const core::TransitionRequest& req) override {
    Span s(L);
    if constexpr (L == Layer::kHw) add(ledger().hw_cost_calls, 1);
    return inner_->cost(req);
  }
  void flush(std::vector<core::ComponentEstimator::FlushJob>& jobs) override {
    const std::size_t first = jobs.size();
    {
      Span s(L);
      inner_->flush(jobs);
    }
    std::atomic<std::uint64_t>* extra =
        L == Layer::kHw ? &ledger().hw_flush_ns : nullptr;
    for (std::size_t i = first; i < jobs.size(); ++i) {
      jobs[i].work = [work = std::move(jobs[i].work), extra] {
        Span s(L, false, extra);
        return work();
      };
    }
  }
  void stats(core::RunResults& res) const override {
    Span s(L);
    inner_->stats(res);
  }
  [[nodiscard]] std::vector<cfsm::CfsmId> component_ids() const override {
    Span s(L);
    return inner_->component_ids();
  }
  [[nodiscard]] core::BackendWarmState export_warm_state() const override {
    Span s(L);
    return inner_->export_warm_state();
  }
  void import_warm_state(const core::BackendWarmState& state) override {
    Span s(L);
    inner_->import_warm_state(state);
  }
  [[nodiscard]] core::ComponentEstimator::WarmCacheCounters
  warm_cache_counters() const override {
    Span s(L);
    return inner_->warm_cache_counters();
  }

 protected:
  std::string name_;
  std::unique_ptr<core::ComponentEstimator> owned_;
  Role* inner_;
};

class TimedSw final : public Timed<core::SwBackend, Layer::kIss> {
 public:
  using Timed::Timed;
  [[nodiscard]] const socpower::swsyn::SwImage* image(
      cfsm::CfsmId task) const override {
    Span s(Layer::kIss);
    return inner_->image(task);
  }
  socpower::Joules replay(cfsm::CfsmId task, const cfsm::ReactionInputs& inputs,
                          const cfsm::CfsmState& pre_state) override {
    Span s(Layer::kIss);
    return inner_->replay(task, inputs, pre_state);
  }
};

class TimedHw final : public Timed<core::HwBackend, Layer::kHw> {
 public:
  using Timed::Timed;
  [[nodiscard]] const socpower::hwsyn::HwImage* image(
      cfsm::CfsmId task) const override {
    Span s(Layer::kHw);
    return inner_->image(task);
  }
  void resync_if_dirty(cfsm::CfsmId task,
                       const cfsm::CfsmState& state) override {
    Span s(Layer::kHw);
    inner_->resync_if_dirty(task, state);
  }
  void mark_skipped(cfsm::CfsmId task, bool skipped) override {
    Span s(Layer::kHw);
    inner_->mark_skipped(task, skipped);
  }
  void reset_unit(cfsm::CfsmId task) override {
    Span s(Layer::kHw);
    inner_->reset_unit(task);
  }
  void enqueue(cfsm::CfsmId task, sim::SimTime time,
               const cfsm::ReactionInputs& inputs, cfsm::PathId path,
               const cfsm::CfsmState& pre_state) override {
    Span s(Layer::kHw);
    add(ledger().hw_enqueue_calls, 1);
    inner_->enqueue(task, time, inputs, path, pre_state);
  }
  void separate_reset(cfsm::CfsmId task) override {
    Span s(Layer::kHw);
    inner_->separate_reset(task);
  }
  socpower::Joules separate_step(cfsm::CfsmId task,
                                 const cfsm::ReactionInputs& inputs) override {
    Span s(Layer::kHw);
    return inner_->separate_step(task, inputs);
  }
};

class TimedCache final : public Timed<core::CacheBackend, Layer::kCache> {
 public:
  using Timed::Timed;
  socpower::cache::AccessStats access(
      std::span<const std::uint32_t> addresses) override {
    Span s(Layer::kCache);
    return inner_->access(addresses);
  }
  socpower::cache::AccessStats access_core(
      unsigned core, std::span<const std::uint32_t> addresses) override {
    Span s(Layer::kCache);
    return inner_->access_core(core, addresses);
  }
  socpower::cache::CoherentAccessResult data_access(
      int core, bool write, std::uint32_t addr, std::uint32_t bytes) override {
    Span s(Layer::kCache);
    return inner_->data_access(core, write, addr, bytes);
  }
};

class TimedBus final : public Timed<core::BusBackend, Layer::kBus> {
 public:
  using Timed::Timed;
  socpower::bus::BusScheduler::JobId submit(
      sim::SimTime now, socpower::bus::BusRequest request) override {
    Span s(Layer::kBus);
    return inner_->submit(now, std::move(request));
  }
  [[nodiscard]] bool has_work() const override {
    Span s(Layer::kBus);
    return inner_->has_work();
  }
  [[nodiscard]] sim::SimTime next_boundary() const override {
    Span s(Layer::kBus);
    return inner_->next_boundary();
  }
  std::vector<socpower::bus::BusScheduler::Completion> advance(
      sim::SimTime t) override {
    Span s(Layer::kBus);
    return inner_->advance(t);
  }
  [[nodiscard]] const socpower::bus::BusScheduler& scheduler() const override {
    Span s(Layer::kBus);
    return inner_->scheduler();
  }
  [[nodiscard]] const socpower::bus::Interconnect& interconnect()
      const override {
    Span s(Layer::kBus);
    return inner_->interconnect();
  }
};

template <typename Wrapper, typename Role>
std::unique_ptr<core::ComponentEstimator> wrap_as(
    const std::string& name, std::unique_ptr<core::ComponentEstimator>& inner) {
  Role* role = dynamic_cast<Role*>(inner.get());
  if (role == nullptr) return nullptr;
  return std::make_unique<Wrapper>(name, std::move(inner), role);
}

std::unique_ptr<core::ComponentEstimator> make_timed(const std::string& inner_name) {
  std::unique_ptr<core::ComponentEstimator> inner =
      core::estimator_registry().create(inner_name);
  const std::string name = timed_name(inner_name);
  std::unique_ptr<core::ComponentEstimator> out;
  if (inner) out = wrap_as<TimedSw, core::SwBackend>(name, inner);
  if (inner && !out) out = wrap_as<TimedHw, core::HwBackend>(name, inner);
  if (inner && !out) out = wrap_as<TimedCache, core::CacheBackend>(name, inner);
  if (inner && !out) out = wrap_as<TimedBus, core::BusBackend>(name, inner);
  if (!out) {
    std::fprintf(stderr, "e2ebench: cannot wrap backend \"%s\"\n",
                 inner_name.c_str());
    std::abort();
  }
  return out;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kIss: return "iss";
    case Layer::kHw: return "hw";
    case Layer::kBus: return "bus";
    case Layer::kCache: return "cache";
  }
  return "?";
}

std::uint64_t LedgerSnapshot::busy_ns_total() const {
  std::uint64_t t = 0;
  for (const PerLayer& l : layers) t += l.busy_ns;
  return t;
}

LedgerSnapshot LedgerSnapshot::operator-(const LedgerSnapshot& base) const {
  LedgerSnapshot d;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    d.layers[i].calls = layers[i].calls - base.layers[i].calls;
    d.layers[i].busy_ns = layers[i].busy_ns - base.layers[i].busy_ns;
    d.layers[i].prepare_ns = layers[i].prepare_ns - base.layers[i].prepare_ns;
  }
  d.hw_cost_calls = hw_cost_calls - base.hw_cost_calls;
  d.hw_enqueue_calls = hw_enqueue_calls - base.hw_enqueue_calls;
  d.hw_flush_ns = hw_flush_ns - base.hw_flush_ns;
  return d;
}

LedgerSnapshot ledger_snapshot() {
  const Ledger& l = ledger();
  LedgerSnapshot s;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    s.layers[i].calls = l.layers[i].calls.load(std::memory_order_relaxed);
    s.layers[i].busy_ns = l.layers[i].busy_ns.load(std::memory_order_relaxed);
    s.layers[i].prepare_ns =
        l.layers[i].prepare_ns.load(std::memory_order_relaxed);
  }
  s.hw_cost_calls = l.hw_cost_calls.load(std::memory_order_relaxed);
  s.hw_enqueue_calls = l.hw_enqueue_calls.load(std::memory_order_relaxed);
  s.hw_flush_ns = l.hw_flush_ns.load(std::memory_order_relaxed);
  return s;
}

std::string timed_name(const std::string& name) { return "bench." + name; }

void register_timed_backends() {
  core::EstimatorRegistry& reg = core::estimator_registry();
  for (const char* inner : {"sw.iss", "hw.gate", "hw.rtl", "hw.analytical",
                            "cache.icache", "bus.arbiter", "bus.noc"}) {
    const std::string name = inner;
    reg.register_backend(timed_name(name), [name] { return make_timed(name); });
  }
}

core::EstimatorSelection timed_selection() {
  core::EstimatorSelection s;
  s.sw = timed_name(s.sw);
  s.hw_gate = timed_name(s.hw_gate);
  s.hw_rtl = timed_name(s.hw_rtl);
  s.cache = timed_name(s.cache);
  s.bus = timed_name(s.bus);
  s.noc = timed_name(s.noc);
  return s;
}

}  // namespace e2ebench
