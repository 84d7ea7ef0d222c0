//===-- tests/test_threadpool.cpp - Worker pool tests ---------------------===//
//
// Part of CWS, a reproduction of Toporkov, "Application-Level and Job-Flow
// Scheduling" (PaCT 2009). Distributed without any warranty.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace cws;

namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(3);
  constexpr size_t N = 500;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(N, [&Hits](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnTheCallingThread) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 0u);
  std::thread::id Caller = std::this_thread::get_id();
  std::atomic<size_t> Ran{0};
  bool AllOnCaller = true;
  Pool.parallelFor(32, [&](size_t) {
    if (std::this_thread::get_id() != Caller)
      AllOnCaller = false;
    Ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Ran.load(), 32u);
  EXPECT_TRUE(AllOnCaller);
}

TEST(ThreadPool, MaxLanesOneForcesSerialExecution) {
  ThreadPool Pool(4);
  std::thread::id Caller = std::this_thread::get_id();
  bool AllOnCaller = true;
  Pool.parallelFor(
      64,
      [&](size_t) {
        if (std::this_thread::get_id() != Caller)
          AllOnCaller = false;
      },
      /*MaxLanes=*/1);
  EXPECT_TRUE(AllOnCaller);
}

TEST(ThreadPool, ExplicitLaneRequestGrowsThePool) {
  // A `--build-threads 4` request must spawn real lanes even when the
  // pool was created empty (single-core hardware).
  ThreadPool Pool(0);
  std::atomic<size_t> Ran{0};
  Pool.parallelFor(
      16, [&Ran](size_t) { Ran.fetch_add(1, std::memory_order_relaxed); },
      /*MaxLanes=*/4);
  EXPECT_EQ(Ran.load(), 16u);
  EXPECT_EQ(Pool.threadCount(), 3u); // 3 helpers + the caller.
  // The pool never shrinks; a narrower batch reuses the workers.
  Pool.parallelFor(
      8, [&Ran](size_t) { Ran.fetch_add(1, std::memory_order_relaxed); },
      /*MaxLanes=*/2);
  EXPECT_EQ(Ran.load(), 24u);
  EXPECT_EQ(Pool.threadCount(), 3u);
}

TEST(ThreadPool, HelpersActuallyParticipate) {
  ThreadPool Pool(3);
  std::mutex Mu;
  std::set<std::thread::id> Lanes;
  // Each body blocks briefly so the caller cannot drain the batch alone
  // before the helpers wake.
  Pool.parallelFor(64, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> Lock(Mu);
    Lanes.insert(std::this_thread::get_id());
  });
  EXPECT_GT(Lanes.size(), 1u);
}

TEST(ThreadPool, ConcurrentBatchesFromDifferentCallersComplete) {
  ThreadPool Pool(2);
  constexpr size_t Callers = 4;
  constexpr size_t N = 200;
  std::atomic<size_t> Total{0};
  std::vector<std::thread> Threads;
  for (size_t C = 0; C < Callers; ++C)
    Threads.emplace_back([&Pool, &Total] {
      Pool.parallelFor(N, [&Total](size_t) {
        Total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Total.load(), Callers * N);
}

TEST(ThreadPool, EmptyAndSingletonBatchesAreTrivial) {
  ThreadPool Pool(2);
  size_t Ran = 0;
  Pool.parallelFor(0, [&Ran](size_t) { ++Ran; });
  EXPECT_EQ(Ran, 0u);
  Pool.parallelFor(1, [&Ran](size_t I) { Ran += I + 1; });
  EXPECT_EQ(Ran, 1u);
}

TEST(ThreadPool, DefaultThreadsHonorsTheEnvironment) {
  EXPECT_GE(ThreadPool::defaultThreads(), 1u);
  ASSERT_EQ(setenv("CWS_BUILD_THREADS", "6", 1), 0);
  EXPECT_EQ(ThreadPool::defaultThreads(), 6u);
  // Garbage and non-positive values fall back to hardware concurrency.
  ASSERT_EQ(setenv("CWS_BUILD_THREADS", "banana", 1), 0);
  size_t Fallback = ThreadPool::defaultThreads();
  EXPECT_GE(Fallback, 1u);
  ASSERT_EQ(setenv("CWS_BUILD_THREADS", "0", 1), 0);
  EXPECT_EQ(ThreadPool::defaultThreads(), Fallback);
  ASSERT_EQ(unsetenv("CWS_BUILD_THREADS"), 0);
}

TEST(ThreadPool, GlobalPoolIsASingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

} // namespace
