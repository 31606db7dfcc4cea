#include "bus/bus_model.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>

#include "telemetry/registry.hpp"

namespace socpower::bus {

namespace {

/// Per-master grant counter; masters above the table size share the last
/// slot (real designs here have a handful of masters).
telemetry::Counter& master_grant_counter(int master) {
  static const std::array<telemetry::Counter*, 8> counters = [] {
    std::array<telemetry::Counter*, 8> a{};
    for (std::size_t i = 0; i < a.size(); ++i) {
      char name[32];
      std::snprintf(name, sizeof name, "bus.master%zu.grants", i);
      a[i] = &telemetry::registry().counter(name);
    }
    return a;
  }();
  const auto idx = master >= 0 && static_cast<std::size_t>(master) <
                                      counters.size()
                       ? static_cast<std::size_t>(master)
                       : counters.size() - 1;
  return *counters[idx];
}

}  // namespace

BusScheduler::BusScheduler(BusParams params) : params_(params) {
  assert(params_.dma_block_size > 0);
  assert(params_.addr_bits >= 1 && params_.addr_bits <= 32);
  assert(params_.data_bits >= 1 && params_.data_bits <= 32);
  assert(params_.data_bits <= 8 || params_.data_bits % 8 == 0);
}

Joules BusScheduler::toggle_energy(std::uint64_t toggles) const {
  return params_.electrical.switch_energy(params_.line_cap_f) *
         static_cast<double>(toggles);
}

BusScheduler::JobId BusScheduler::submit(std::uint64_t now,
                                         BusRequest request) {
  Job j;
  j.id = next_id_++;
  j.request = std::move(request);
  j.submit_time = now;
  pending_.push_back(std::move(j));
  return pending_.back().id;
}

bool BusScheduler::has_work() const { return busy_ || !pending_.empty(); }

std::uint64_t BusScheduler::next_boundary() const {
  if (busy_) return grant_end_;
  std::uint64_t earliest = 0;
  bool any = false;
  for (const Job& j : pending_) {
    if (!any || j.submit_time < earliest) {
      earliest = j.submit_time;
      any = true;
    }
  }
  return any ? earliest : 0;
}

std::size_t BusScheduler::pick(std::uint64_t now) const {
  std::size_t best = pending_.size();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Job& j = pending_[i];
    if (j.submit_time > now) continue;
    if (best == pending_.size()) {
      best = i;
      continue;
    }
    const Job& b = pending_[best];
    if (j.request.priority != b.request.priority) {
      if (j.request.priority > b.request.priority) best = i;
    } else if (j.request.master != b.request.master) {
      if (j.request.master < b.request.master) best = i;
    } else if (j.id < b.id) {
      best = i;
    }
  }
  return best;
}

void BusScheduler::start_grant(std::size_t job_index, std::uint64_t start) {
  static telemetry::Counter& grants =
      telemetry::registry().counter("bus.grants");
  static telemetry::Counter& bytes = telemetry::registry().counter("bus.bytes");
  Job& j = pending_[job_index];
  if (!j.started) {
    j.started = true;
    j.first_start = start;
  }
  if (keep_grant_times_) grant_times_.push_back(start);
  ++j.grants;
  ++totals_.grants;
  grants.add();
  master_grant_counter(j.request.master).add();
  const std::size_t grant_byte0 = j.next_byte;

  const std::uint32_t addr_mask =
      params_.addr_bits >= 32 ? 0xffffffffu : ((1u << params_.addr_bits) - 1);
  const unsigned bpb = params_.bytes_per_beat();
  const std::uint32_t data_mask =
      params_.data_bits >= 32 ? 0xffffffffu
                              : ((1u << params_.data_bits) - 1);

  Joules e = toggle_energy(
      static_cast<std::uint64_t>(params_.handshake_toggles));
  const std::size_t block_end = std::min(
      j.request.data.size(), j.next_byte + params_.dma_block_size);
  std::uint64_t cycles = params_.handshake_cycles;
  while (j.next_byte < block_end) {
    const std::uint32_t a =
        (j.request.addr + static_cast<std::uint32_t>(j.next_byte)) &
        addr_mask;
    std::uint32_t word = 0;
    for (unsigned b = 0; b < bpb && j.next_byte < block_end;
         ++b, ++j.next_byte) {
      word |= static_cast<std::uint32_t>(j.request.data[j.next_byte])
              << (8 * b);
      ++totals_.bytes;
    }
    word &= data_mask;
    const auto at = static_cast<std::uint64_t>(
        std::popcount(a ^ (prev_addr_ & addr_mask)));
    const auto dt =
        static_cast<std::uint64_t>(std::popcount(word ^ prev_data_));
    totals_.addr_toggles += at;
    totals_.data_toggles += dt;
    e += toggle_energy(at + dt);
    prev_addr_ = a;
    prev_data_ = word;
    cycles += params_.cycles_per_beat;
  }
  j.energy += e;
  totals_.energy += e;
  bytes.add(j.next_byte - grant_byte0);
  busy_ = true;
  active_index_ = job_index;
  grant_end_ = start + cycles;
}

std::vector<BusScheduler::Completion> BusScheduler::advance(std::uint64_t t) {
  assert(t >= last_advance_);
  std::vector<Completion> done;
  while (true) {
    if (busy_) {
      if (grant_end_ > t) break;
      const std::uint64_t now = grant_end_;
      busy_ = false;
      Job& j = pending_[active_index_];
      if (j.next_byte >= j.request.data.size()) {
        Completion c;
        c.id = j.id;
        c.master = j.request.master;
        c.result.start = j.first_start;
        c.result.end = now;
        c.result.wait_cycles = j.first_start - j.submit_time;
        c.result.busy_cycles = now - j.first_start;
        c.result.grants = j.grants;
        c.result.energy = j.energy;
        done.push_back(c);
        totals_.wait_cycles += c.result.wait_cycles;
        ++totals_.transfers;
        static telemetry::Counter& transfers =
            telemetry::registry().counter("bus.transfers");
        static telemetry::Counter& wait_cycles =
            telemetry::registry().counter("bus.wait_cycles");
        transfers.add();
        wait_cycles.add(c.result.wait_cycles);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(active_index_));
      }
      const std::size_t nxt = pick(now);
      if (nxt != pending_.size()) start_grant(nxt, now);
      continue;
    }
    // Idle: the earliest-submitted pending job (if it arrives by t) starts
    // the bus; arbitration happens among everything pending at that time.
    if (pending_.empty()) break;
    std::uint64_t earliest = pending_[0].submit_time;
    for (const Job& j : pending_) earliest = std::min(earliest, j.submit_time);
    if (earliest > t) break;
    const std::uint64_t start = std::max(earliest, last_advance_);
    const std::size_t nxt = pick(start);
    assert(nxt != pending_.size());
    start_grant(nxt, start);
  }
  last_advance_ = t;
  return done;
}

void BusScheduler::reset() {
  pending_.clear();
  busy_ = false;
  grant_end_ = 0;
  last_advance_ = 0;
  prev_addr_ = 0;
  prev_data_ = 0;
  next_id_ = 1;
  totals_ = {};
  grant_times_.clear();
}

}  // namespace socpower::bus
