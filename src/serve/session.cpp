#include "serve/session.hpp"

#include <chrono>
#include <utility>

#include "telemetry/registry.hpp"

namespace socpower::serve {

std::unique_ptr<Session> Session::create(const SystemParams& system,
                                         const StructuralConfig& structural,
                                         std::string* error) {
  std::unique_ptr<SystemInstance> sys = make_system(system, error);
  if (!sys) return nullptr;

  core::CoEstimatorConfig cfg = sys->config_template();
  structural.apply(&cfg);
  // configure() maps tasks onto cores and map_sw aborts the process on an
  // out-of-range core — reject the request before it can get there.
  if (cfg.cores < sys->min_cores()) {
    if (error)
      *error = "system '" + system.name + "' needs at least " +
               std::to_string(sys->min_cores()) +
               " cores; structural config has " + std::to_string(cfg.cores);
    return nullptr;
  }
  auto est = std::make_unique<core::CoEstimator>(&sys->network(), cfg);
  sys->configure(*est);
  // prepare() aborts the whole process on an invalid config — a server must
  // turn that into an error reply instead.
  const std::vector<std::string> problems = est->config().validate();
  if (!problems.empty()) {
    if (error) *error = "invalid configuration: " + problems.front();
    return nullptr;
  }
  est->prepare();

  auto session = std::unique_ptr<Session>(new Session());
  session->key_ = session_key(system, structural);
  session->system_ = system;
  session->structural_ = structural;
  session->sys_ = std::move(sys);
  session->est_ = std::move(est);
  return session;
}

std::unique_ptr<Session> Session::restore(const Checkpoint& ckpt,
                                          std::string* error) {
  std::unique_ptr<Session> session =
      create(ckpt.system, ckpt.structural, error);
  if (!session) return nullptr;
  if (!session->est_->import_warm_state(ckpt.warm)) {
    if (error)
      *error = "checkpoint warm state does not match the prepared session";
    return nullptr;
  }
  session->restored_ = true;
  return session;
}

bool Session::estimate(const RunRequest& req, core::RunResults* res,
                       RequestStats* stats, std::string* error) {
  std::lock_guard<std::mutex> lk(mu_);
  req.apply(&est_->config());
  const std::vector<std::string> problems = est_->config().validate();
  if (!problems.empty()) {
    if (error) *error = "invalid run request: " + problems.front();
    return false;
  }

  const core::ComponentEstimator::WarmCacheCounters before =
      est_->warm_cache_counters();
  const auto t0 = std::chrono::steady_clock::now();
  const sim::Stimulus stim = sys_->stimulus();
  *res = req.separate ? est_->run_separate(stim) : est_->run(stim);
  const auto t1 = std::chrono::steady_clock::now();
  const core::ComponentEstimator::WarmCacheCounters after =
      est_->warm_cache_counters();

  if (stats) {
    stats->wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    stats->run_index = runs_;
    stats->restored_session = restored_;
    stats->ecache_hits = res->cache_hits_served;
    stats->warm_hits = after.hits - before.hits;
    stats->warm_fills = after.fills - before.fills;
  }
  ++runs_;
  return true;
}

Checkpoint Session::checkpoint() {
  std::lock_guard<std::mutex> lk(mu_);
  Checkpoint c;
  c.system = system_;
  c.structural = structural_;
  c.warm = est_->export_warm_state();
  return c;
}

std::shared_ptr<Session> SessionTable::find(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  it->second.last_used = ++tick_;
  return it->second.session;
}

std::shared_ptr<Session> SessionTable::adopt(
    std::shared_ptr<Session> session) {
  static telemetry::Counter& c_evictions =
      telemetry::registry().counter("serve.evictions");
  std::lock_guard<std::mutex> lk(mu_);
  // Copy the key out before the move: argument evaluation order would
  // otherwise be free to move `session` away first.
  const std::string key = session->key();
  auto [it, inserted] = map_.emplace(key, Entry{std::move(session), 0});
  it->second.last_used = ++tick_;
  if (inserted && max_sessions_ > 0) {
    while (map_.size() > max_sessions_) {
      // Evict the least-recently-used entry; the just-adopted session holds
      // the newest stamp, so it is never the victim.
      auto victim = map_.begin();
      for (auto e = map_.begin(); e != map_.end(); ++e)
        if (e->second.last_used < victim->second.last_used) victim = e;
      map_.erase(victim);
      ++evictions_;
      c_evictions.add();
    }
  }
  return it->second.session;
}

void SessionTable::set_max_sessions(std::size_t max) {
  std::lock_guard<std::mutex> lk(mu_);
  max_sessions_ = max;
}

std::uint64_t SessionTable::evictions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evictions_;
}

std::size_t SessionTable::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return map_.size();
}

}  // namespace socpower::serve
