// The estimator worker: hosts a real in-process hardware backend and
// services wire frames from the simulation master.
//
// The same class serves two deployments:
//   * out-of-process — the forked child constructs a Worker and loops in
//     serve() on its channel end until kShutdown/EOF;
//   * in-process fallback — when every worker process is gone the
//     RemoteHwEstimator constructs a local Worker and feeds it the replayed
//     request log through dispatch() directly. Same code path, so the
//     fallback's energies are bit-identical to what the worker would have
//     produced.
//
// The worker owns its own CoEstimatorConfig copy (kBeginRun run-knob blocks
// are applied to it, never to the master's config) and its own per-process
// PathTables, kept in sync by the explicit path deltas the master embeds in
// chunk/flush frames — path ids are dense interning order, so replaying the
// deltas reproduces the master's tables exactly.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/estimators/component_estimator.hpp"
#include "dist/channel.hpp"
#include "dist/wire.hpp"

namespace socpower::core {
class HwEstimatorBase;
}  // namespace socpower::core

namespace socpower::dist {

class Worker {
 public:
  /// Creates and prepares the inner backend `inner_name` (a registered
  /// HwBackend, e.g. "hw.gate" / "hw.rtl") for `components`. Aborts on an
  /// unknown or non-HwBackend name — the master validated the config, so
  /// this is an internal protocol error, not user input.
  Worker(const std::string& inner_name, const cfsm::Network* net,
         const core::CoEstimatorConfig& config,
         std::vector<cfsm::CfsmId> components);
  ~Worker();

  /// Handles one frame; returns the reply payload for RPC frames
  /// (expects_reply(type)), nullopt for one-way frames. Malformed payloads
  /// abort: the master encodes every frame, so corruption here means the
  /// transport lied about frame integrity.
  std::optional<std::vector<std::uint8_t>> dispatch(
      MsgType type, const std::vector<std::uint8_t>& payload);

  /// Serve loop for the forked child: recv / dispatch / reply until
  /// kShutdown, EOF, or a channel error. Returns the child's exit code.
  int serve(Channel& ch);

 private:
  void handle_chunk(const ChunkPayload& chunk);
  core::ComponentEstimator::FlushResult collect_flush(cfsm::CfsmId task);

  core::CoEstimatorConfig cfg_;
  const cfsm::Network* net_;
  std::vector<cfsm::PathTable> paths_;
  std::vector<cfsm::CfsmId> components_;
  std::unique_ptr<core::ComponentEstimator> inner_;
  core::HwBackend* hw_ = nullptr;
  /// Non-null when the inner backend supports incremental batch draining —
  /// then shipped chunks are evaluated eagerly on arrival (that is the
  /// overlap with the master's DE loop). Otherwise chunks only buffer and
  /// the whole batch evaluates at kFlushUnit.
  core::HwEstimatorBase* streaming_ = nullptr;
  /// Per-unit accumulation of eagerly drained slices (indexed by CfsmId).
  struct UnitAccum {
    core::ComponentEstimator::FlushResult acc;
    bool started = false;  // first slice of this run already drained?
  };
  std::vector<UnitAccum> accum_;
};

}  // namespace socpower::dist
