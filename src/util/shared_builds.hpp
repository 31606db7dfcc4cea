// Process-wide table of immutable builds, addressed by their content.
//
// Preparing an estimator elaborates models that depend only on what a
// design declares: a synthesized netlist with its gate program, a
// characterized macro-model library. SharedBuilds<T> hands every caller
// that asks with the same key the same std::shared_ptr<const T>, so each
// distinct design is built once per process however many estimators use it.
//
// - The key is every byte the build reads, serialized by the caller. A
//   lookup compares the whole key (std::string equality), never a hash
//   alone.
// - The build runs outside the lock, which guards only lookup and insert.
//   Two threads that miss on one key both build; the first insert wins and
//   both return it.
// - An entry a caller still holds is never dropped. After an insert, idle
//   entries (held by the table alone) are evicted, least recently used
//   first, while the table holds more than kMaxIdleBuilds. A long-running
//   process fed arbitrary designs (the serve daemon) therefore keeps at most
//   that many idle builds.
// - fork(): a child forked while another thread holds the lock inherits it
//   held, the caveat the telemetry registry's mutex has too. Fork before
//   threads start looking builds up (dist workers fork at prepare()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "telemetry/registry.hpp"

namespace socpower::util {

/// Idle builds a SharedBuilds table keeps for later lookups.
inline constexpr std::size_t kMaxIdleBuilds = 16;

/// A key under construction: fields are appended one at a time, so no
/// padding byte ever enters it.
struct KeyBytes {
  std::string bytes;

  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes.size();
    bytes.resize(at + sizeof v);
    std::memcpy(bytes.data() + at, &v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes += s;
  }
  template <class T>
  void seq(const std::vector<T>& v) {
    pod(v.size());
    for (const T& x : v) pod(x);
  }
};

template <class T>
class SharedBuilds {
 public:
  /// Counts builds and reuses in the telemetry counters
  /// "<telemetry_prefix>.builds" and "<telemetry_prefix>.reuses".
  explicit SharedBuilds(std::string_view telemetry_prefix)
      : builds_(&telemetry::registry().counter(std::string(telemetry_prefix) +
                                               ".builds")),
        reuses_(&telemetry::registry().counter(std::string(telemetry_prefix) +
                                               ".reuses")) {}

  /// The build of `key`, made by `build()` (returning a
  /// std::shared_ptr<const T>) when the table has none.
  template <class Build>
  std::shared_ptr<const T> get(const std::string& key, Build&& build) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (const auto it = map_.find(key); it != map_.end()) {
        it->second.last_use = ++tick_;
        reuses_->add();
        return it->second.build;
      }
    }
    std::shared_ptr<const T> fresh = build();
    std::vector<std::shared_ptr<const T>> evicted;  // freed after unlocking
    std::lock_guard<std::mutex> lk(mu_);
    const auto [it, inserted] = map_.try_emplace(key, Entry{fresh, 0});
    it->second.last_use = ++tick_;
    (inserted ? builds_ : reuses_)->add();
    std::shared_ptr<const T> out = it->second.build;
    while (map_.size() > kMaxIdleBuilds) {
      auto lru = map_.end();
      for (auto e = map_.begin(); e != map_.end(); ++e)
        if (e->second.build.use_count() == 1 &&
            (lru == map_.end() || e->second.last_use < lru->second.last_use))
          lru = e;
      if (lru == map_.end()) break;  // every build is held
      evicted.push_back(std::move(lru->second.build));
      map_.erase(lru);
    }
    return out;
  }

  /// Builds currently kept, held or idle.
  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<const T> build;
    std::uint64_t last_use;
  };

  telemetry::Counter* builds_;
  telemetry::Counter* reuses_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  std::uint64_t tick_ = 0;
};

}  // namespace socpower::util
