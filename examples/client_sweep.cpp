// Client demo for the co-estimation session server: sweep the TCP/IP
// benchmark's acceleration modes through a server session, twice, and show
// what the warm caches buy.
//
// The first sweep is COLD: the server prepares the session (compiles SW,
// synthesizes HW, characterizes the macro-op library) and fills its caches.
// The second sweep is WARM: the same session replays out of the ISS block
// cache and the HW reaction tables, so the warm hit rate is strictly higher
// and the wall time drops — with every energy value bit-identical.
//
// By default the demo is self-contained (it hosts an in-process server on a
// private socket). Point SOCPOWER_SERVE_SOCKET at a running socpower_serve
// daemon to sweep against that instead — run it twice and the second
// process's "cold" sweep is already warm, which is the whole point of the
// service.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/client_sweep
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/env.hpp"
#include "util/units.hpp"

using namespace socpower;

namespace {

struct Sweep {
  double wall_ms = 0.0;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_fills = 0;
  std::vector<double> energies;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = warm_hits + warm_fills;
    return total == 0 ? 0.0
                      : static_cast<double>(warm_hits) /
                            static_cast<double>(total);
  }
};

const char* kModes[] = {"none", "caching", "interleaving", "sampling"};

bool run_sweep(serve::Client& client, const std::string& key, Sweep* out,
               std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint8_t accel = 0; accel < 4; ++accel) {
    serve::RunRequest rr;
    rr.config.accel = static_cast<core::Acceleration>(accel);
    if (accel == 1)  // caching threshold
      rr.config.energy_cache.thresh_variance = 0.5;
    core::RunResults res;
    serve::RequestStats stats;
    if (!client.estimate(key, rr, &res, &stats, error)) return false;
    out->warm_hits += stats.warm_hits;
    out->warm_fills += stats.warm_fills;
    out->energies.push_back(res.total_energy);
  }
  out->wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  return true;
}

}  // namespace

int main() {
  // ---- 1. Find (or host) a server -------------------------------------------
  const std::string env_socket = util::env_str("SOCPOWER_SERVE_SOCKET", "");
  std::unique_ptr<serve::Server> local;
  std::string socket_path = env_socket;
  if (socket_path.empty()) {
    serve::ServerConfig cfg;
    cfg.socket_path = "/tmp/socpower_client_sweep.sock";
    cfg.threads =
        static_cast<unsigned>(util::env_int("SOCPOWER_SERVE_THREADS", 0));
    local = std::make_unique<serve::Server>(cfg);
    if (!local->start()) {
      std::fprintf(stderr, "cannot start in-process server (no AF_UNIX?)\n");
      return 1;
    }
    socket_path = local->socket_path();
    std::printf("hosting in-process server at %s\n", socket_path.c_str());
  } else {
    std::printf("connecting to daemon at %s\n", socket_path.c_str());
  }

  std::string error;
  serve::Client client = serve::Client::connect(socket_path, &error);
  if (!client.valid()) {
    std::fprintf(stderr, "connect failed: %s\n", error.c_str());
    return 1;
  }

  // ---- 2. Open the session (the TCP/IP benchmark, all-gate HW) --------------
  serve::SystemParams system;
  system.name = "tcpip";
  system.set("num_packets", 4);
  system.set("packet_bytes", 64);
  system.set("ip_check_in_hw", 1);
  system.set("seed", 7);
  std::string key;
  bool created = false;
  if (!client.open_session(system, serve::StructuralConfig{}, &key, &created,
                           &error)) {
    std::fprintf(stderr, "open_session failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("session %s (%s)\n\n", key.c_str(),
              created ? "freshly prepared" : "already warm on the server");

  // ---- 3. Sweep twice: cold, then warm --------------------------------------
  Sweep cold, warm;
  if (!run_sweep(client, key, &cold, &error) ||
      !run_sweep(client, key, &warm, &error)) {
    std::fprintf(stderr, "estimate failed: %s\n", error.c_str());
    return 1;
  }

  std::printf("%-14s %14s %14s\n", "accel mode", "cold energy", "warm energy");
  bool identical = true;
  for (std::size_t i = 0; i < cold.energies.size(); ++i) {
    identical = identical && cold.energies[i] == warm.energies[i];
    std::printf("%-14s %14s %14s\n", kModes[i],
                format_energy(cold.energies[i]).c_str(),
                format_energy(warm.energies[i]).c_str());
  }
  std::printf("\nresults bit-identical across sweeps: %s\n",
              identical ? "yes" : "NO (bug!)");
  std::printf("cold sweep: %8.2f ms, warm-cache hit rate %5.1f%%\n",
              cold.wall_ms, 100.0 * cold.hit_rate());
  std::printf("warm sweep: %8.2f ms, warm-cache hit rate %5.1f%%\n",
              warm.wall_ms, 100.0 * warm.hit_rate());

  // ---- 4. Checkpoint the hot session ----------------------------------------
  std::vector<std::uint8_t> blob;
  if (client.checkpoint(key, &blob, &error)) {
    std::printf("\ncheckpoint of the hot session: %zu bytes ", blob.size());
    std::string restored_key;
    bool restored = false;
    if (client.restore(blob, &restored_key, &restored, &error))
      std::printf("(restore keyed to %s; %s)\n", restored_key.c_str(),
                  restored ? "adopted fresh"
                           : "server already had it warm, kept its copy");
    else
      std::printf("(restore failed: %s)\n", error.c_str());
  }

  // ---- 5. Server-side counters ----------------------------------------------
  serve::ServeStatsReply stats;
  if (client.stats(&stats, &error))
    std::printf("\n%s\n", stats.rendered.c_str());

  if (local) local->stop();
  return identical ? 0 : 1;
}
