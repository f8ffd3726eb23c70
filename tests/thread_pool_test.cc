// Unit tests for the task-parallel runtime in common/parallel.h: chunk
// decomposition, index coverage, empty/degenerate ranges, exception
// propagation, nested-call safety (including the bit-identity of a nested
// RowPoolMatVec fan-out), the single-thread inline fallback, and the
// KSHAPE_THREADS / SetThreadCount configuration surface.

#include "common/parallel.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/row_pool.h"

namespace kshape {
namespace {

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  common::ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v = 0;
  pool.ParallelFor(0, n, 7, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++visits[i];
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  common::ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeIsOneChunk) {
  common::ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::mutex mu;
  pool.ParallelFor(2, 10, 100, [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 2u);
  EXPECT_EQ(chunks[0].second, 10u);
}

TEST(ThreadPoolTest, GrainZeroTreatedAsOne) {
  common::ThreadPool pool(2);
  std::atomic<int> chunks{0};
  pool.ParallelFor(0, 5, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);
    ++chunks;
  });
  EXPECT_EQ(chunks, 5);
}

TEST(ThreadPoolTest, ChunkDecompositionIndependentOfThreadCount) {
  // The determinism contract: the same (begin, end, grain) yields the same
  // chunk set at every thread count.
  auto collect = [](int threads) {
    common::ThreadPool pool(threads);
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    std::mutex mu;
    pool.ParallelFor(3, 50, 8, [&](std::size_t begin, std::size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(begin, end);
    });
    return chunks;
  };
  const auto at1 = collect(1);
  const auto at2 = collect(2);
  const auto at8 = collect(8);
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);
  // 47 indices at grain 8 -> 6 chunks, last one short.
  EXPECT_EQ(at1.size(), 6u);
  EXPECT_TRUE(at1.count({3, 11}));
  EXPECT_TRUE(at1.count({43, 50}));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](std::size_t begin, std::size_t) {
                         if (begin == 42) {
                           throw std::runtime_error("boom at 42");
                         }
                       }),
      std::runtime_error);
  // The pool survives a throwing region and runs later ones normally.
  std::atomic<int> sum{0};
  pool.ParallelFor(0, 10, 1, [&](std::size_t begin, std::size_t) {
    sum += static_cast<int>(begin);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ExceptionOnSingleThreadPoolPropagatesToo) {
  common::ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 3, 1,
                                [](std::size_t, std::size_t) {
                                  throw std::logic_error("inline boom");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  common::ThreadPool pool(4);
  const std::size_t outer = 16;
  const std::size_t inner = 32;
  std::vector<std::atomic<int>> visits(outer * inner);
  for (auto& v : visits) v = 0;
  pool.ParallelFor(0, outer, 1, [&](std::size_t obegin, std::size_t oend) {
    for (std::size_t o = obegin; o < oend; ++o) {
      // A nested region on the same pool must not deadlock; it runs inline
      // on the worker that owns the outer chunk.
      pool.ParallelFor(0, inner, 4, [&](std::size_t ibegin,
                                        std::size_t iend) {
        for (std::size_t i = ibegin; i < iend; ++i) ++visits[o * inner + i];
      });
    }
  });
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "cell " << i;
  }
}

TEST(ThreadPoolTest, NestedRowPoolMatVecMatchesTopLevelBitwise) {
  // The k-Shape driver solves its clusters' eigenproblems one per pool task;
  // inside a task, each RowPoolMatVec::Apply runs inline under the nested-
  // call rule. Its chunks are a function of the row count alone, so the
  // inline run must reproduce the top-level fan-out bit for bit.
  const std::size_t rows = 300;  // 60 chunks of 5 rows.
  const std::size_t m = 37;
  std::vector<double> pool_rows(rows * m);
  std::vector<double> u(m);
  for (std::size_t i = 0; i < pool_rows.size(); ++i) {
    pool_rows[i] = std::sin(0.37 * static_cast<double>(i)) +
                   1e-3 * static_cast<double>(i % 11);
  }
  for (std::size_t j = 0; j < m; ++j) {
    u[j] = std::cos(0.91 * static_cast<double>(j));
  }
  common::SetThreadCount(1);
  std::vector<double> expected(m);
  linalg::RowPoolMatVec(pool_rows.data(), rows, m).Apply(u, expected);

  const std::size_t tasks = 6;
  for (const int threads : {1, 2, 8}) {
    common::SetThreadCount(threads);
    std::vector<double> top(m);
    linalg::RowPoolMatVec(pool_rows.data(), rows, m).Apply(u, top);
    EXPECT_EQ(top, expected) << "top level, threads=" << threads;
    std::vector<std::vector<double>> nested(tasks, std::vector<double>(m));
    common::ParallelFor(0, tasks, 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        // One operator per task: Apply reuses per-object partial buffers.
        linalg::RowPoolMatVec(pool_rows.data(), rows, m).Apply(u, nested[t]);
      }
    });
    for (std::size_t t = 0; t < tasks; ++t) {
      EXPECT_EQ(nested[t], expected) << "task " << t << ", threads="
                                     << threads;
    }
  }
  common::SetThreadCount(1);
}

TEST(ThreadPoolTest, SingleThreadPoolSpawnsNoWorkersAndRunsInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(0, 20, 3, [&](std::size_t begin, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(begin);  // Safe: everything runs on this thread.
  });
  // Inline execution visits chunks in ascending order.
  const std::vector<std::size_t> expected = {0, 3, 6, 9, 12, 15, 18};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ManySmallRegionsBackToBack) {
  // Stresses region turnover (the seq-number handshake between caller and
  // workers) rather than throughput.
  common::ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 8, 1,
                     [&](std::size_t, std::size_t) { ++count; });
    ASSERT_EQ(count, 8) << "round " << round;
  }
}

TEST(GlobalPoolConfigTest, SetThreadCountControlsGlobalPool) {
  common::SetThreadCount(3);
  EXPECT_EQ(common::ThreadCount(), 3);
  common::SetThreadCount(1);
  EXPECT_EQ(common::ThreadCount(), 1);
}

TEST(GlobalPoolConfigTest, KshapeThreadsEnvVarIsHonored) {
  ASSERT_EQ(setenv("KSHAPE_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(common::DefaultThreadCount(), 5);
  common::SetThreadCount(0);  // Re-read the environment.
  EXPECT_EQ(common::ThreadCount(), 5);

  // Garbage or non-positive values fall back to hardware concurrency.
  ASSERT_EQ(setenv("KSHAPE_THREADS", "0", 1), 0);
  EXPECT_GE(common::DefaultThreadCount(), 1);
  ASSERT_EQ(setenv("KSHAPE_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(common::DefaultThreadCount(), 1);

  ASSERT_EQ(unsetenv("KSHAPE_THREADS"), 0);
  common::SetThreadCount(1);  // Leave a known state for other tests.
}

TEST(GlobalPoolConfigTest, FreeParallelForUsesGlobalPool) {
  common::SetThreadCount(2);
  std::vector<int> out(100, 0);
  common::ParallelFor(0, out.size(), 10,
                      [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = static_cast<int>(i);
  });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 4950);
  common::SetThreadCount(1);
}

}  // namespace
}  // namespace kshape
