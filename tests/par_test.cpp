// Tests for the cooperative parallel layer (src/par) and its integration
// with the optimizer/portfolio: clause-pool semantics under concurrency
// (run these under tsan — see the ci tsan job), shared-interval
// tightening and its store-before-drop incumbent rule, solver-level
// export/import hooks, 1-worker determinism, sharing-on/off optimum
// agreement, and the certification interaction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "alloc/portfolio.hpp"
#include "par/pool.hpp"
#include "par/sharing.hpp"
#include "rt/verify.hpp"
#include "sat/solver.hpp"
#include "workload/tindell.hpp"

namespace optalloc {
namespace {

using sat::neg;
using sat::pos;
using alloc::Objective;
using alloc::OptimizeOptions;
using alloc::OptimizeResult;
using alloc::PortfolioOptions;
using alloc::PortfolioResult;

// --- Clause pool ------------------------------------------------------

TEST(ParPool, DrainSkipsOwnShard) {
  par::ClausePool pool(2);
  sat::Solver s;  // literal factory
  const sat::Var v = s.new_var();
  pool.publish(0, std::vector<sat::Lit>{pos(v)}, 1);
  std::vector<par::SharedClause> got;
  par::ClausePool::Cursor c0 = pool.make_cursor();
  EXPECT_EQ(pool.drain(0, c0, got), 0u);  // own clause never echoes back
  par::ClausePool::Cursor c1 = pool.make_cursor();
  EXPECT_EQ(pool.drain(1, c1, got), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].lits.size(), 1u);
  EXPECT_EQ(got[0].lbd, 1u);
  // A second drain from the same cursor delivers nothing new.
  EXPECT_EQ(pool.drain(1, c1, got), 0u);
}

TEST(ParPool, SlowConsumerLosesOverwrittenClauses) {
  par::PoolOptions opts;
  opts.shard_capacity = 8;
  par::ClausePool pool(2, opts);
  sat::Solver s;
  const sat::Var v = s.new_var();
  for (int i = 0; i < 20; ++i) {
    pool.publish(0, std::vector<sat::Lit>{pos(v), neg(v)}, 2);
  }
  par::ClausePool::Cursor c1 = pool.make_cursor();
  std::vector<par::SharedClause> got;
  EXPECT_EQ(pool.drain(1, c1, got), 8u);  // only the ring's worth survives
  const par::PoolStats st = pool.stats();
  EXPECT_EQ(st.published, 20u);
  EXPECT_EQ(st.consumed, 8u);
  EXPECT_EQ(st.overwritten, 12u);
}

TEST(ParPool, ConcurrentPublishDrainStress) {
  // Every worker publishes its own distinctive clauses while continuously
  // draining the others' — the invariant under load: each consumer sees
  // only foreign clauses, each well-formed. Run under tsan to check the
  // locking discipline.
  constexpr int kWorkers = 4;
  constexpr int kClauses = 2000;
  par::PoolOptions opts;
  opts.shard_capacity = 256;  // small ring: overwrite on purpose
  par::ClausePool pool(kWorkers, opts);
  sat::Solver factory;
  std::vector<sat::Var> vars;
  for (int w = 0; w < kWorkers; ++w) vars.push_back(factory.new_var());
  std::atomic<bool> bad{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      par::ClausePool::Cursor cursor = pool.make_cursor();
      std::vector<par::SharedClause> got;
      for (int i = 0; i < kClauses; ++i) {
        // Worker w's clauses are all unit over its private variable.
        pool.publish(w, std::vector<sat::Lit>{pos(vars[static_cast<std::size_t>(w)])},
                     static_cast<std::uint32_t>(w + 1));
        if (i % 64 == 0) {
          got.clear();
          pool.drain(w, cursor, got);
          for (const par::SharedClause& sc : got) {
            if (sc.lits.size() != 1 ||
                sc.lits[0] == pos(vars[static_cast<std::size_t>(w)])) {
              bad.store(true, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_FALSE(bad.load());
  const par::PoolStats st = pool.stats();
  EXPECT_EQ(st.published, static_cast<std::uint64_t>(kWorkers) * kClauses);
}

// --- Shared interval --------------------------------------------------

TEST(ParInterval, TightensMonotonically) {
  par::SharedInterval iv;
  EXPECT_EQ(iv.lower(), par::SharedInterval::kNoLower);
  EXPECT_EQ(iv.upper(), par::SharedInterval::kNoUpper);
  EXPECT_TRUE(iv.raise_lower(3));
  EXPECT_FALSE(iv.raise_lower(2));  // never loosens
  EXPECT_TRUE(iv.drop_upper(10));
  EXPECT_FALSE(iv.drop_upper(11));
  EXPECT_TRUE(iv.raise_lower(7));
  EXPECT_EQ(iv.lower(), 7);
  EXPECT_EQ(iv.upper(), 10);
  EXPECT_EQ(iv.updates(), 3u);
}

TEST(ParInterval, ConcurrentUpdatesKeepExtremes) {
  par::SharedInterval iv;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        iv.raise_lower(t * 1000 + i);
        iv.drop_upper(100000 - (t * 1000 + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(iv.lower(), (kThreads - 1) * 1000 + 999);
  EXPECT_EQ(iv.upper(), 100000 - ((kThreads - 1) * 1000 + 999));
}

rt::Allocation allocation_tagged(std::int64_t cost) {
  rt::Allocation a;
  a.task_ecu = {static_cast<int>(cost)};
  return a;
}

TEST(ParInterval, OfferStoresTheIncumbentBeforeTheBoundDrops) {
  par::SharedInterval iv;
  EXPECT_FALSE(iv.better_than(par::SharedInterval::kNoUpper).has_value());
  EXPECT_TRUE(iv.offer(7, allocation_tagged(7)));
  EXPECT_EQ(iv.upper(), 7);
  const auto got = iv.better_than(8);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->first, 7);
  EXPECT_EQ(got->second.task_ecu, allocation_tagged(7).task_ecu);
  EXPECT_FALSE(iv.better_than(7).has_value());  // strictly better only
  EXPECT_FALSE(iv.offer(9, allocation_tagged(9)));  // worse: kept out
  EXPECT_EQ(iv.better_than(8)->first, 7);

  // Concurrently: whenever an observer sees the bound at u, the store
  // already holds an allocation of cost <= u — and it is the one offered
  // with that cost, not a torn or stale copy.
  par::SharedInterval shared;
  constexpr std::int64_t kStart = 20000;
  std::atomic<bool> go{false};
  std::thread publisher([&] {
    while (!go.load()) std::this_thread::yield();
    for (std::int64_t c = kStart; c >= 0; --c) {
      shared.offer(c, allocation_tagged(c));
    }
  });
  go.store(true);
  for (std::int64_t u = shared.upper(); u != 0; u = shared.upper()) {
    if (u == par::SharedInterval::kNoUpper) continue;
    const auto inc = shared.better_than(u + 1);
    if (!inc) {
      ADD_FAILURE() << "bound " << u << " without an incumbent";
      break;
    }
    EXPECT_LE(inc->first, u);
    EXPECT_EQ(inc->second.task_ecu, allocation_tagged(inc->first).task_ecu);
  }
  publisher.join();
  EXPECT_EQ(shared.better_than(1)->first, 0);
}

// --- Solver sharing hooks ---------------------------------------------

void add_pigeonhole(sat::Solver& s, int pigeons, int holes,
                    std::vector<std::vector<sat::Var>>& grid) {
  grid.assign(static_cast<std::size_t>(pigeons), {});
  for (auto& row : grid) {
    for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> at_least_one;
    for (int h = 0; h < holes; ++h) {
      at_least_one.push_back(pos(grid[static_cast<std::size_t>(p)]
                                     [static_cast<std::size_t>(h)]));
    }
    ASSERT_TRUE(s.add_clause(at_least_one));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(s.add_clause(
            {neg(grid[static_cast<std::size_t>(p1)][static_cast<std::size_t>(h)]),
             neg(grid[static_cast<std::size_t>(p2)][static_cast<std::size_t>(h)])}));
      }
    }
  }
}

TEST(ParSolver, ExportHookSeesLearnts) {
  sat::Solver s;
  std::vector<std::vector<sat::Var>> grid;
  add_pigeonhole(s, 6, 5, grid);
  std::vector<par::SharedClause> exported;
  sat::Solver::ShareHooks hooks;
  hooks.export_clause = [&](std::span<const sat::Lit> lits,
                            std::uint32_t lbd) {
    exported.push_back({std::vector<sat::Lit>(lits.begin(), lits.end()), lbd});
  };
  s.set_share(std::move(hooks));
  EXPECT_EQ(s.solve(), sat::LBool::kFalse);
  EXPECT_GT(exported.size(), 0u);
  EXPECT_EQ(s.stats().clauses_exported, exported.size());
  for (const par::SharedClause& sc : exported) {
    EXPECT_FALSE(sc.lits.empty());
    EXPECT_TRUE(sc.lits.size() <= 2 || sc.lbd <= 4u) << "filter violated";
  }
}

TEST(ParSolver, ImportedClausesAreUsedAndCounted) {
  // Import ~x at the restart boundary; the solver must then find the
  // model with x false even though its own clauses prefer nothing.
  sat::Solver s;
  const sat::Var x = s.new_var();
  const sat::Var y = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(x), pos(y)}));
  bool delivered = false;
  sat::Solver::ShareHooks hooks;
  hooks.import_clauses = [&](std::vector<sat::SharedClause>& out) {
    if (!delivered) {
      delivered = true;
      out.push_back({{neg(x)}, 1});
    }
  };
  s.set_share(std::move(hooks));
  ASSERT_EQ(s.solve(), sat::LBool::kTrue);
  EXPECT_EQ(s.stats().clauses_imported, 1u);
  EXPECT_EQ(s.model_value(x), sat::LBool::kFalse);
  EXPECT_EQ(s.model_value(y), sat::LBool::kTrue);
}

TEST(ParSolver, ImportedContradictionYieldsUnsat) {
  sat::Solver s;
  const sat::Var x = s.new_var();
  ASSERT_TRUE(s.add_unit(pos(x)));
  sat::Solver::ShareHooks hooks;
  hooks.import_clauses = [&](std::vector<sat::SharedClause>& out) {
    out.push_back({{neg(x)}, 1});
  };
  s.set_share(std::move(hooks));
  EXPECT_EQ(s.solve(), sat::LBool::kFalse);
}

TEST(ParSolver, ExportVarLimitFiltersHighVariables) {
  sat::Solver s;
  std::vector<std::vector<sat::Var>> grid;
  add_pigeonhole(s, 6, 5, grid);
  std::vector<par::SharedClause> exported;
  sat::Solver::ShareHooks hooks;
  const std::int32_t limit = s.num_vars() / 2;
  hooks.export_var_limit = limit;
  hooks.export_clause = [&](std::span<const sat::Lit> lits,
                            std::uint32_t lbd) {
    exported.push_back({std::vector<sat::Lit>(lits.begin(), lits.end()), lbd});
  };
  s.set_share(std::move(hooks));
  EXPECT_EQ(s.solve(), sat::LBool::kFalse);
  for (const par::SharedClause& sc : exported) {
    for (const sat::Lit l : sc.lits) {
      EXPECT_LT(l.var(), limit);
    }
  }
}

// --- Portfolio integration --------------------------------------------

TEST(ParPortfolio, OneWorkerMatchesPlainOptimize) {
  const alloc::Problem p = workload::tindell_prefix(12);
  const OptimizeResult plain = optimize(p, Objective::ring_trt(0));
  PortfolioOptions popts;
  popts.threads = 1;
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), popts);
  ASSERT_EQ(plain.status, OptimizeResult::Status::kOptimal);
  ASSERT_EQ(res.best.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.best.cost, plain.cost);
  EXPECT_EQ(res.per_config_stats.size(), 1u);
  // Worker 0 runs the untouched base config: the search must be the
  // plain one step for step, not merely agree on the optimum.
  EXPECT_EQ(res.best.stats.sat_calls, plain.stats.sat_calls);
  EXPECT_EQ(res.best.stats.conflicts, plain.stats.conflicts);
  EXPECT_EQ(res.sharing.clauses_imported, 0u);
}

TEST(ParPortfolio, SharingOnAndOffAgreeOnTheOptimum) {
  for (const int tasks : {10, 14}) {
    const alloc::Problem p = workload::tindell_prefix(tasks);
    const OptimizeResult plain = optimize(p, Objective::ring_trt(0));
    ASSERT_EQ(plain.status, OptimizeResult::Status::kOptimal);
    for (const bool sharing : {false, true}) {
      PortfolioOptions popts;
      popts.threads = 4;
      popts.share = sharing;
      const PortfolioResult res =
          optimize_portfolio(p, Objective::ring_trt(0), popts);
      ASSERT_EQ(res.best.status, OptimizeResult::Status::kOptimal)
          << tasks << " tasks, sharing " << sharing;
      EXPECT_EQ(res.best.cost, plain.cost)
          << tasks << " tasks, sharing " << sharing;
      EXPECT_TRUE(
          rt::verify(p.tasks, p.arch, res.best.allocation).feasible);
    }
  }
}

TEST(ParPortfolio, CooperativeRunExchangesTraffic) {
  const alloc::Problem p = workload::tindell_prefix(14);
  PortfolioOptions popts;
  popts.threads = 4;
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), popts);
  ASSERT_EQ(res.best.status, OptimizeResult::Status::kOptimal);
  // All four workers share one encoder config: clause exchange is live.
  EXPECT_GT(res.sharing.clauses_exported, 0u);
  EXPECT_GT(res.sharing.clauses_imported, 0u);
  EXPECT_GT(res.sharing.bounds_published, 0u);
  EXPECT_EQ(res.per_config_stats.size(), 4u);
}

TEST(ParPortfolio, CertifyComposesWithSharing) {
  // Under --certify each worker's certificate must stay self-contained:
  // the solver suppresses clause imports while its proof log is attached
  // and the optimizer refuses foreign lower bounds, so a certified
  // cooperative run still reaches (and certifies) the true optimum.
  const alloc::Problem p = workload::tindell_prefix(10);
  const OptimizeResult plain = optimize(p, Objective::ring_trt(0));
  ASSERT_EQ(plain.status, OptimizeResult::Status::kOptimal);
  PortfolioOptions popts;
  popts.threads = 2;
  popts.base_config.certify = true;
  const PortfolioResult res =
      optimize_portfolio(p, Objective::ring_trt(0), popts);
  ASSERT_EQ(res.best.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.best.cost, plain.cost);
  EXPECT_TRUE(res.best.certified) << res.best.certify_error;
  // The proof gate is per-solver: nothing may have been imported.
  EXPECT_EQ(res.sharing.clauses_imported, 0u);
}

}  // namespace
}  // namespace optalloc
