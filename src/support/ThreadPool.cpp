//===-- support/ThreadPool.cpp - Reusable worker pool ---------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

using namespace cws;

ThreadPool::ThreadPool(size_t ThreadCount) {
  Workers.reserve(ThreadCount);
  for (size_t I = 0; I < ThreadCount; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  HasWork.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

size_t ThreadPool::threadCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Workers.size();
}

void ThreadPool::ensureWorkers(size_t Wanted) {
  constexpr size_t MaxWorkers = 64;
  Wanted = std::min(Wanted, MaxWorkers);
  std::lock_guard<std::mutex> Lock(Mu);
  while (Workers.size() < Wanted)
    Workers.emplace_back([this] { workerLoop(); });
}

void ThreadPool::workerLoop() {
  while (true) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      HasWork.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task();
  }
}

void ThreadPool::parallelFor(size_t N, const std::function<void(size_t)> &Body,
                             size_t MaxLanes) {
  if (N <= 1 || MaxLanes == 1) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  // An explicit lane request grows the pool; the auto path (MaxLanes
  // 0) sticks to the workers the pool was built with.
  if (MaxLanes > 1)
    ensureWorkers(MaxLanes - 1);

  // One claim loop shared by the caller and up to N - 1 helpers. The
  // batch lives in a shared_ptr because helper tasks may still hold it
  // after the caller returns (a helper that claimed no index).
  struct Batch {
    std::atomic<size_t> Next{0};
    std::atomic<size_t> Done{0};
    size_t N = 0;
    const std::function<void(size_t)> *Body = nullptr;
    std::mutex DoneMu;
    std::condition_variable AllDone;
  };
  auto B = std::make_shared<Batch>();
  B->N = N;
  B->Body = &Body;

  auto Run = [](const std::shared_ptr<Batch> &B) {
    size_t Finished = 0;
    while (true) {
      size_t I = B->Next.fetch_add(1, std::memory_order_relaxed);
      if (I >= B->N)
        break;
      (*B->Body)(I);
      ++Finished;
    }
    if (Finished == 0)
      return;
    if (B->Done.fetch_add(Finished, std::memory_order_acq_rel) + Finished ==
        B->N) {
      // Last finisher wakes the caller; the lock pairs with the
      // caller's predicate check so the notify cannot be lost.
      std::lock_guard<std::mutex> Lock(B->DoneMu);
      B->AllDone.notify_all();
    }
  };

  size_t Helpers;
  {
    // One lock round-trip enqueues the helpers for the whole batch.
    std::lock_guard<std::mutex> Lock(Mu);
    Helpers = std::min(Workers.size(), N - 1);
    if (MaxLanes != 0)
      Helpers = std::min(Helpers, MaxLanes - 1);
    for (size_t I = 0; I < Helpers; ++I)
      Queue.emplace_back([B, Run] { Run(B); });
  }
  if (Helpers > 0)
    HasWork.notify_all();

  Run(B); // The caller is a full lane; never blocks on a saturated pool.

  std::unique_lock<std::mutex> Lock(B->DoneMu);
  B->AllDone.wait(Lock, [&B] {
    return B->Done.load(std::memory_order_acquire) == B->N;
  });
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool(defaultThreads() > 0 ? defaultThreads() - 1 : 0);
  return Pool;
}

size_t ThreadPool::defaultThreads() {
  if (const char *Env = std::getenv("CWS_BUILD_THREADS")) {
    char *End = nullptr;
    long V = std::strtol(Env, &End, 10);
    if (End != Env && *End == '\0' && V >= 1)
      return static_cast<size_t>(V);
  }
  unsigned Hw = std::thread::hardware_concurrency();
  return Hw > 0 ? Hw : 1;
}
