//===-- support/Ring.h - Fixed-capacity overwrite ring ----------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bounded ring behind every observability recorder (trace events,
/// journal events, time-series frames, occupancy slices): a fixed set
/// of slots the newest entry overwrites oldest-first, with the count of
/// entries ever recorded and of those lost to wraparound. push() hands
/// out the slot to fill in place, so a slot's heap buffers are reused
/// across laps. Thread-compatible, like its recorders: one thread at a
/// time, which the `single_thread_guard` test keeps true.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_RING_H
#define CWS_SUPPORT_RING_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cws {

template <typename T> class Ring {
public:
  /// Sizes the ring to \p Capacity default slots and forgets every
  /// entry; a zero capacity records nothing.
  void reset(size_t Capacity) {
    Slots.assign(Capacity, T{});
    Head = 0;
  }

  size_t capacity() const { return Slots.size(); }

  /// Records one entry and returns its slot (the oldest entry's slot
  /// once the ring is full) for the caller to fill. The entry is number
  /// recorded(), counting from 1. Requires capacity() > 0.
  T &push() { return Slots[Head++ % Slots.size()]; }

  /// Entries recorded since reset(), overwritten ones included.
  uint64_t recorded() const { return Head; }
  /// Entries lost to wraparound.
  uint64_t dropped() const {
    return Head > Slots.size() ? Head - Slots.size() : 0;
  }

  /// Copies the surviving entries out, oldest first.
  std::vector<T> snapshot() const {
    std::vector<T> Out;
    uint64_t Size = Head - dropped();
    Out.reserve(Size);
    for (uint64_t I = Head - Size; I < Head; ++I)
      Out.push_back(Slots[I % Slots.size()]);
    return Out;
  }

private:
  std::vector<T> Slots;
  /// Entries recorded; Head % capacity() is the next slot.
  uint64_t Head = 0;
};

} // namespace cws

#endif // CWS_SUPPORT_RING_H
