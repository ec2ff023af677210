// Tests for the parallel portfolio optimizer: correctness of the winning
// result, agreement with single-configuration runs, cooperative
// cancellation, infeasibility propagation and the worker-count bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "alloc/portfolio.hpp"
#include "rt/verify.hpp"
#include "workload/tindell.hpp"

namespace optalloc::alloc {
namespace {

using rt::Ticks;

Problem small_problem() {
  Problem p;
  rt::Task a;
  a.name = "A";
  a.period = 100;
  a.deadline = 50;
  a.wcet = {10, 12};
  a.messages.push_back({1, 4, 60, 0});
  a.separated_from = {1};
  rt::Task b;
  b.name = "B";
  b.period = 100;
  b.deadline = 100;
  b.wcet = {20, 25};
  b.separated_from = {0};
  p.tasks.tasks = {a, b};
  p.arch.num_ecus = 2;
  rt::Medium ring;
  ring.name = "ring";
  ring.type = rt::MediumType::kTokenRing;
  ring.ecus = {0, 1};
  ring.slot_max = 8;
  p.arch.media = {ring};
  return p;
}

PortfolioOptions three_workers() {
  PortfolioOptions opts;
  opts.threads = 3;
  return opts;
}

TEST(Portfolio, DefaultConfigsFindTheOptimum) {
  const Problem p = small_problem();
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), three_workers());
  ASSERT_EQ(res.best.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.best.cost, 5);
  EXPECT_GE(res.winner, 0);
  EXPECT_EQ(res.per_config_stats.size(), 3u);
  const auto report = rt::verify(p.tasks, p.arch, res.best.allocation);
  EXPECT_TRUE(report.feasible);
}

TEST(Portfolio, AgreesWithSingleRun) {
  const Problem p = workload::tindell_prefix(12);
  const OptimizeResult single = optimize(p, Objective::ring_trt(0));
  const PortfolioResult multi =
      optimize_portfolio(p, Objective::ring_trt(0), three_workers());
  ASSERT_EQ(single.status, OptimizeResult::Status::kOptimal);
  ASSERT_EQ(multi.best.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(multi.best.cost, single.cost);
  EXPECT_EQ(multi.per_config_stats.size(), 3u);
}

TEST(Portfolio, PropagatesInfeasibility) {
  Problem p = small_problem();
  p.tasks.tasks[0].wcet = {10, rt::kForbidden};
  p.tasks.tasks[1].wcet = {20, rt::kForbidden};  // both pinned + separated
  const PortfolioResult res =
      optimize_portfolio(p, Objective::feasibility(), three_workers());
  EXPECT_EQ(res.best.status, OptimizeResult::Status::kInfeasible);
  EXPECT_EQ(res.per_config_stats.size(), 3u);
}

TEST(Portfolio, StopFlagCancelsOptimizer) {
  // A pre-set stop flag must make a single optimize() return promptly
  // with budget-exhausted (anytime semantics).
  std::atomic<bool> stop{true};
  OptimizeOptions opts;
  opts.stop = &stop;
  const Problem p = workload::tindell_prefix(20);
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted);
}

TEST(Portfolio, TimeLimitYieldsAnytimeBest) {
  PortfolioOptions opts = three_workers();
  opts.base_config.time_limit_s = 0.05;
  const Problem p = workload::tindell_prefix(30);
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), opts);
  // Any status is acceptable under a tiny budget, but the call must
  // return (join all threads) and report every worker's effort.
  EXPECT_EQ(res.per_config_stats.size(), 3u);
}

TEST(Portfolio, BaseStopCancelsEveryWorker) {
  // The caller's stop flag (base_config.stop) is the one way to cancel a
  // whole portfolio from outside: flipped mid-search, every worker must
  // wind down and join promptly with an anytime verdict.
  std::atomic<bool> stop{false};
  PortfolioOptions opts;
  opts.threads = 4;
  opts.base_config.stop = &stop;
  const Problem p = workload::tindell_prefix(30);
  using Clock = std::chrono::steady_clock;
  Clock::time_point flipped;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    flipped = Clock::now();
    stop.store(true);
  });
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), opts);
  const Clock::time_point returned = Clock::now();
  canceller.join();
  EXPECT_EQ(res.best.status, OptimizeResult::Status::kBudgetExhausted);
  ASSERT_EQ(res.per_config_stats.size(), 4u);
  // Building the encoding is not interruptible (a sanitizer build spends
  // seconds there), so a worker may first finish it; the 2 s bound covers
  // everything after that.
  double encode_s = 0.0;
  for (const OptimizeStats& s : res.per_config_stats) {
    encode_s = std::max(encode_s, s.encode_seconds);
  }
  EXPECT_LT(std::chrono::duration<double>(returned - flipped).count(),
            2.0 + encode_s);
}

TEST(Portfolio, ThreadCountOutsideTheBoundIsRefused) {
  // Refused before any worker starts; no over-bound count is ever run.
  const Problem p = small_problem();
  for (const int threads : {0, -1, kMaxPortfolioThreads + 1}) {
    PortfolioOptions opts;
    opts.threads = threads;
    EXPECT_THROW(optimize_portfolio(p, Objective::ring_trt(0), opts),
                 std::invalid_argument)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace optalloc::alloc
