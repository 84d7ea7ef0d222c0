//===-- support/ThreadPool.h - Build lane count -----------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strategy builds run on the calling thread: `Strategy::build` builds
/// its levels in a plain loop, and the dispatcher's domain bids are
/// built one after another. The lane count is therefore always 1. It is
/// kept because the repository benchmark (`qosbench/`) records it in
/// every child's result and checks that a child runs at one lane.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_THREADPOOL_H
#define CWS_SUPPORT_THREADPOOL_H

#include <cstddef>

namespace cws {

class ThreadPool {
public:
  /// The lanes a strategy build uses: always 1.
  static size_t defaultThreads() { return 1; }
};

} // namespace cws

#endif // CWS_SUPPORT_THREADPOOL_H
