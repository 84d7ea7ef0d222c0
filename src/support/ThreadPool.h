//===-- support/ThreadPool.h - Reusable worker pool -------------*- C++ -*-===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small reusable worker pool for embarrassingly parallel fan-out,
/// built for `Strategy::build`'s independent variant generation (the
/// one parallelism knob, `--build-threads`). The central primitive is
/// `parallelFor`: the calling thread *participates* in its own batch
/// (claiming indices from a shared atomic), so a saturated — or empty —
/// pool degrades to serial execution instead of deadlocking, and
/// concurrent batches from different callers interleave safely.
///
/// Determinism contract: `parallelFor` promises nothing about execution
/// order. Callers that need deterministic output write results into
/// pre-sized slots indexed by the loop variable and merge serially.
///
//===----------------------------------------------------------------------===//

#ifndef CWS_SUPPORT_THREADPOOL_H
#define CWS_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cws {

/// Worker pool that grows on demand up to explicit lane requests.
class ThreadPool {
public:
  /// Spawns \p ThreadCount workers. Zero is valid: every parallelFor
  /// then runs entirely on the calling thread (until an explicit
  /// MaxLanes request grows the pool).
  explicit ThreadPool(size_t ThreadCount);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  size_t threadCount() const;

  /// Grows the pool to at least \p Wanted workers (never shrinks;
  /// capped at 64). An explicit `--build-threads N` must spawn real
  /// lanes even on hardware whose concurrency is below N — both to
  /// honor the request on wide machines with a narrow default pool and
  /// to let single-core CI genuinely exercise the concurrent path.
  void ensureWorkers(size_t Wanted);

  /// Runs Body(0) .. Body(N - 1), blocking until all complete. Indices
  /// are claimed dynamically by up to threadCount() workers plus the
  /// calling thread; bodies must not throw. \p MaxLanes, when non-zero,
  /// caps the total lanes (helpers + caller) used for this batch.
  void parallelFor(size_t N, const std::function<void(size_t)> &Body,
                   size_t MaxLanes = 0);

  /// The process-wide pool, sized to defaultThreads() - 1 workers (the
  /// caller is the remaining lane) on first use.
  static ThreadPool &global();

  /// Effective parallelism the tools and Strategy::build default to:
  /// the CWS_BUILD_THREADS environment variable when it parses to a
  /// positive integer, hardware_concurrency() otherwise (at least 1).
  static size_t defaultThreads();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  mutable std::mutex Mu;
  std::condition_variable HasWork;
  std::deque<std::function<void()>> Queue;
  bool Stopping = false;
};

} // namespace cws

#endif // CWS_SUPPORT_THREADPOOL_H
