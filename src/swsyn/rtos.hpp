// RTOS model for the software partition.
//
// POLIS automatically generates a small RTOS that dispatches software CFSM
// transitions on the (single) embedded processor under a priority-based,
// non-preemptive policy. For co-estimation, what matters is (a) software
// transitions of different tasks serialize on the processor, (b) the
// dispatch order among simultaneously-ready tasks follows the configured
// priorities, and (c) every dispatch costs a characteristic number of
// cycles/energy (event-queue handling plus context switch). The scheduling
// itself is carried out by the co-estimation master using this model and
// one ReadyQueue (below) per core.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "cfsm/cfsm.hpp"
#include "util/units.hpp"

namespace socpower::swsyn {

struct RtosConfig {
  /// Cycles charged per software transition dispatch (event de-queue, task
  /// switch, s-graph entry). The POLIS RTOS is a few dozen instructions.
  Cycles dispatch_cycles = 24;
  /// Average supply current drawn during dispatch code (mA) — RTOS code is
  /// ordinary integer code, close to the ALU class current.
  double dispatch_current_ma = 255.0;
};

class RtosModel {
 public:
  explicit RtosModel(RtosConfig config = {}, ElectricalParams params = {});

  /// Priority: larger value = more urgent. Default 0.
  void set_priority(cfsm::CfsmId task, int priority);
  [[nodiscard]] int priority(cfsm::CfsmId task) const;

  [[nodiscard]] Cycles dispatch_cycles() const {
    return config_.dispatch_cycles;
  }
  [[nodiscard]] Joules dispatch_energy() const;

 private:
  RtosConfig config_;
  ElectricalParams params_;
  std::vector<int> priorities_;
};

/// One core's RTOS ready queue: the software transitions triggered on the
/// core and not dispatched yet, each with the cycle it became ready and a
/// caller-defined payload (the master keeps the trigger inputs there).
///
/// pop(now) dispatches what a scan of every entry in push order would pick:
/// among the entries with ready_at <= now, the highest priority, FIFO
/// within a priority. It does so without the scan by relying on one
/// invariant, asserted on every push: ready_at never decreases from one push
/// to the next (the master pushes at the current simulated time, which only
/// moves forward). Entries sit in one FIFO per priority level, so every
/// FIFO is sorted by ready_at; its front is the only entry of its level
/// that can be ready, and the earliest ready_at of the queue is the
/// smallest front.
///
/// Each FIFO is a ring of slots that clear() and pop() leave in place, so
/// once the rings have grown to the run's depth a push copies its payload
/// into storage it already owns and allocates nothing.
template <typename Payload>
class ReadyQueue {
 public:
  struct Entry {
    std::uint64_t ready_at = 0;
    cfsm::CfsmId task = cfsm::kNoCfsm;
    Payload payload{};
  };

  /// Append an entry for `task` at `priority` (larger = more urgent) and
  /// return it for the caller to fill in its payload. The reference is
  /// valid until the next push.
  Entry& push(std::uint64_t ready_at, cfsm::CfsmId task, int priority) {
    assert(ready_at >= last_push_ && "ReadyQueue: ready_at went backwards");
    last_push_ = ready_at;
    Level& lv = level(priority);
    if (lv.count == lv.slots.size()) grow(lv);
    Entry& e = lv.slots[(lv.head + lv.count) & (lv.slots.size() - 1)];
    ++lv.count;
    ++size_;
    e.ready_at = ready_at;
    e.task = task;
    return e;
  }

  /// Remove and return the entry to dispatch at `now`, or nullptr when no
  /// entry is ready yet. The entry stays valid until the next push.
  Entry* pop(std::uint64_t now) {
    for (Level& lv : levels_) {  // descending priority
      if (lv.count == 0 || lv.slots[lv.head].ready_at > now) continue;
      Entry& e = lv.slots[lv.head];
      lv.head = (lv.head + 1) & (lv.slots.size() - 1);
      --lv.count;
      --size_;
      return &e;
    }
    return nullptr;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// The smallest ready_at of any entry; the queue must not be empty.
  [[nodiscard]] std::uint64_t earliest_ready() const {
    assert(!empty());
    std::uint64_t t = ~std::uint64_t{0};
    for (const Level& lv : levels_)
      if (lv.count != 0 && lv.slots[lv.head].ready_at < t)
        t = lv.slots[lv.head].ready_at;
    return t;
  }

  /// Drop every entry; the slots and their payloads keep their storage.
  void clear() {
    for (Level& lv : levels_) lv.head = lv.count = 0;
    size_ = 0;
    last_push_ = 0;
  }

  /// Whether every priority level holds its entries in non-decreasing
  /// ready_at order, front to back — what pop() and earliest_ready() rely
  /// on. For tests.
  [[nodiscard]] bool fifo_invariant_holds() const {
    for (const Level& lv : levels_) {
      const std::size_t mask = lv.slots.size() - 1;
      for (std::size_t i = 1; i < lv.count; ++i)
        if (lv.slots[(lv.head + i) & mask].ready_at <
            lv.slots[(lv.head + i - 1) & mask].ready_at)
          return false;
    }
    return true;
  }

 private:
  struct Level {
    int priority = 0;
    std::vector<Entry> slots;  // ring; size 0 or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
  };

  Level& level(int priority) {
    auto it = levels_.begin();
    while (it != levels_.end() && it->priority > priority) ++it;
    if (it == levels_.end() || it->priority != priority)
      it = levels_.insert(it, Level{priority, {}, 0, 0});
    return *it;
  }

  /// Double a full ring, moving its entries to the front in FIFO order.
  static void grow(Level& lv) {
    std::vector<Entry> bigger(lv.slots.empty() ? 8 : 2 * lv.slots.size());
    for (std::size_t i = 0; i < lv.count; ++i)
      bigger[i] = std::move(lv.slots[(lv.head + i) & (lv.slots.size() - 1)]);
    lv.slots = std::move(bigger);
    lv.head = 0;
  }

  std::vector<Level> levels_;  // descending priority
  std::size_t size_ = 0;
  std::uint64_t last_push_ = 0;
};

}  // namespace socpower::swsyn
