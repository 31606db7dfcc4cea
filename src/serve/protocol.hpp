// Request/reply vocabulary of the co-estimation session server (src/serve).
//
// The server keeps one *session* per structural configuration: a prepared
// CoEstimator (compiled SW images, synthesized netlists, characterized
// macro-op library) plus its warm caches. Everything a request may vary
// without rebuilding — acceleration mode, batch/thread knobs, verification —
// travels as a RunRequest of run knobs. Both sides come from the config's
// knob table (core::for_each_knob): the session key hashes exactly the
// knobs that are frozen at prepare(), so two requests that could legally
// share a prepared estimator always land in the same session.
//
// All payloads ride the dist wire codec (length-prefixed LE integers,
// doubles as IEEE-754 bit patterns), so estimation results round-trip
// bit-exactly through the server.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/coestimator_config.hpp"
#include "dist/wire.hpp"

namespace socpower::serve {

/// Bumped on any wire-visible change; kServeHello rejects mismatches so an
/// old client fails with a message instead of a garbled decode.
/// v2: multicore — StructuralConfig gained cores / interconnect /
/// coherence_enabled, RunResults gained coherence totals.
/// v3: analytical tier — RunRequest gained the calibration-vector and
/// leakage knobs, RunResults gained the static-power split.
/// v4: RunRequest lost the two bit-parallel flush knobs when packed gate
/// evaluation was deleted.
/// v5: RunRequest is [u8 separate][run knob block], generated from the knob
/// table; the structural bytes are unchanged.
inline constexpr std::uint32_t kServeProtocolVersion = 5;

// ---- system selection ------------------------------------------------------

/// Self-describing benchmark-system selector: a factory name plus integer
/// key/value parameters. Unknown names and keys are rejected server-side
/// (see system_factory.hpp), so a typo'd parameter cannot silently fall back
/// to a default and key a different session than intended.
struct SystemParams {
  std::string name;  // "tcpip" | "prodcons"
  std::vector<std::pair<std::string, std::int64_t>> kv;

  [[nodiscard]] std::int64_t get(const std::string& key,
                                 std::int64_t fallback) const;
  void set(const std::string& key, std::int64_t value);
};
void put_system(dist::WireWriter& w, const SystemParams& s);
[[nodiscard]] bool get_system(dist::WireReader& r, SystemParams* out);

// ---- structural configuration ----------------------------------------------

/// The structural knobs of a CoEstimatorConfig — the ones consumed when the
/// simulators are built and frozen from prepare() on. This is the session
/// identity (together with SystemParams). Only the kStructural knobs of
/// `config` are encoded or applied; its other fields are ignored.
struct StructuralConfig {
  core::CoEstimatorConfig config;

  [[nodiscard]] static StructuralConfig from(
      const core::CoEstimatorConfig& cfg);
  void apply(core::CoEstimatorConfig* cfg) const;
};
void put_structural(dist::WireWriter& w, const StructuralConfig& s);
[[nodiscard]] bool get_structural(dist::WireReader& r, StructuralConfig* out);

/// Session identity: FNV-1a-64 over the wire encoding of (system,
/// structural), rendered as 16 hex digits. Stable across processes — a
/// checkpoint restored elsewhere lands under the same key.
[[nodiscard]] std::string session_key(const SystemParams& system,
                                      const StructuralConfig& structural);

// ---- per-run request -------------------------------------------------------

/// One estimation request: the run knobs of `config` plus the choice of
/// run() or run_separate(). apply() writes only the run knobs, so a
/// session's structural config is untouchable through a request by
/// construction.
struct RunRequest {
  core::CoEstimatorConfig config;
  bool separate = false;  // run_separate() instead of run()

  [[nodiscard]] static RunRequest from(const core::CoEstimatorConfig& cfg);
  void apply(core::CoEstimatorConfig* cfg) const;
};
void put_run_request(dist::WireWriter& w, const RunRequest& rr);
[[nodiscard]] bool get_run_request(dist::WireReader& r, RunRequest* out);

// ---- per-request telemetry -------------------------------------------------

/// Shipped with every kServeEstimate reply so clients can report cold/warm
/// behavior without a second stats round-trip.
struct RequestStats {
  double wall_ms = 0.0;
  std::uint64_t run_index = 0;    // runs completed in this session before ours
  bool restored_session = false;  // session came from a checkpoint
  std::uint64_t ecache_hits = 0;  // energy-cache hits of this run
  std::uint64_t warm_hits = 0;    // ISS block + HW reaction cache hits
  std::uint64_t warm_fills = 0;   // ... and fills (misses), this run
};
void put_request_stats(dist::WireWriter& w, const RequestStats& s);
[[nodiscard]] bool get_request_stats(dist::WireReader& r, RequestStats* out);

// ---- server-wide stats -----------------------------------------------------

/// kServeStats reply: the serve.* counters plus the request-latency
/// distribution, and a pre-rendered fixed-width table (render_report-style)
/// for clients that just want to print something.
struct ServeStatsReply {
  std::uint64_t sessions = 0;
  std::uint64_t requests = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t restore_hits = 0;
  std::uint64_t evictions = 0;  // LRU session evictions (max_sessions cap)
  std::uint64_t latency_count = 0;
  double latency_mean_ms = 0.0;
  double latency_min_ms = 0.0;
  double latency_max_ms = 0.0;
  std::string rendered;
};
void put_stats_reply(dist::WireWriter& w, const ServeStatsReply& s);
[[nodiscard]] bool get_stats_reply(dist::WireReader& r, ServeStatsReply* out);

}  // namespace socpower::serve
