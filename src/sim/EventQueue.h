//===-- sim/EventQueue.h - Discrete event queue -----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pending-event set of the discrete event simulator: a binary heap
/// keyed by (time, insertion sequence) so same-tick events fire in
/// submission order, which keeps runs deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SIM_EVENTQUEUE_H
#define CWS_SIM_EVENTQUEUE_H

#include "sim/Time.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace cws {

/// An event handler; receives the firing time.
using EventFn = std::function<void(Tick)>;

/// Min-heap of timed events with stable same-tick ordering.
class EventQueue {
public:
  /// Schedules \p Fn at \p At.
  void schedule(Tick At, EventFn Fn);

  /// True when no events are pending.
  bool empty() const { return Heap.empty(); }

  /// Number of pending events.
  size_t size() const { return Heap.size(); }

  /// Time of the earliest event; TickMax when empty.
  Tick nextTime() const { return Heap.empty() ? TickMax : Heap.front().At; }

  /// Pops and runs the earliest event; returns its time. Requires
  /// !empty().
  Tick runNext();

private:
  struct Entry {
    Tick At;
    uint64_t Seq;
    EventFn Fn;
  };

  static bool later(const Entry &A, const Entry &B) {
    if (A.At != B.At)
      return A.At > B.At;
    return A.Seq > B.Seq;
  }

  std::vector<Entry> Heap;
  uint64_t NextSeq = 0;
};

} // namespace cws

#endif // CWS_SIM_EVENTQUEUE_H
