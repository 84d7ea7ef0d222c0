//===-- sim/EventQueue.cpp - Discrete event queue -------------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "sim/EventQueue.h"
#include "support/Check.h"

#include <algorithm>
#include <utility>

using namespace cws;

void EventQueue::schedule(Tick At, EventFn Fn) {
  Heap.push_back({At, NextSeq++, std::move(Fn)});
  std::push_heap(Heap.begin(), Heap.end(), later);
}

Tick EventQueue::runNext() {
  CWS_CHECK(!Heap.empty(), "runNext on an empty event queue");
  std::pop_heap(Heap.begin(), Heap.end(), later);
  // Move the entry off the heap first: the handler may schedule more.
  Entry Top = std::move(Heap.back());
  Heap.pop_back();
  Top.Fn(Top.At);
  return Top.At;
}
