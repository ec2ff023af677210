#include "alloc/portfolio.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/pool.hpp"
#include "par/sharing.hpp"
#include "util/mutex.hpp"

namespace optalloc::alloc {

namespace {

const char* strategy_name(SearchStrategy s) {
  return s == SearchStrategy::kBisection ? "bisection" : "descending";
}

/// N diversified variants of `base`. Worker 0 keeps the base untouched
/// (a 1-thread portfolio behaves exactly like plain optimize()); the rest
/// alternate search strategies and spread out over the CDCL tuning space.
std::vector<OptimizeOptions> diversified_configs(int threads,
                                                 const OptimizeOptions& base) {
  static constexpr double kDecay[] = {0.95, 0.90, 0.99, 0.85};
  static constexpr int kRestart[] = {100, 50, 200, 150};
  std::vector<OptimizeOptions> configs;
  configs.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    OptimizeOptions c = base;
    if (i > 0) {
      c.strategy = (i % 2 == 1) ? SearchStrategy::kDescending
                                : SearchStrategy::kBisection;
      SolverTuning t;
      t.var_decay = kDecay[i % 4];
      t.restart_base = kRestart[i % 4];
      t.default_polarity = (i / 2) % 2 != 0;
      t.random_branch_freq = i >= 2 ? 0.02 : 0.0;
      t.seed = 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(i) +
               0x2545f4914f6cdd1dull;
      c.tuning = t;
    }
    configs.push_back(std::move(c));
  }
  return configs;
}

const char* backend_name(const OptimizeOptions& o) {
  return o.encoder.backend == encode::Backend::kPbMixed ? "pb-mixed" : "cnf";
}

}  // namespace

PortfolioResult optimize_portfolio(const Problem& problem,
                                   Objective objective,
                                   const PortfolioOptions& options) {
  const int n = options.threads;
  if (n < 1 || n > kMaxPortfolioThreads) {
    throw std::invalid_argument(
        "optimize_portfolio: threads must lie in [1, " +
        std::to_string(kMaxPortfolioThreads) + "], got " + std::to_string(n));
  }
  const std::vector<OptimizeOptions> configs =
      diversified_configs(n, options.base_config);
  std::atomic<bool> stop{false};

  PortfolioResult result;

  // Winner arbitration: the race's verdict, written by whichever worker
  // finishes; folded into `result` once every worker has joined.
  struct Arbiter {
    util::Mutex mu;
    OptimizeResult best OPTALLOC_GUARDED_BY(mu);
    int winner OPTALLOC_GUARDED_BY(mu) = -1;
    std::vector<OptimizeStats> per_config_stats OPTALLOC_GUARDED_BY(mu);
  } arb;
  {
    util::MutexLock lock(arb.mu);
    arb.per_config_stats.assign(static_cast<std::size_t>(n), OptimizeStats{});
  }

  // --- Shared cooperative state (see src/par). -------------------------
  // One global cost interval with its incumbent store, and one clause pool:
  // every worker encodes with the base encoder configuration, so all of
  // them share one variable numbering. The pool needs incremental workers
  // (scratch ones rebuild their solver every SOLVE, so there is no
  // long-lived clause database to import into) and a partner.
  par::SharedInterval interval;
  std::unique_ptr<par::ClausePool> pool;
  if (options.share && options.base_config.incremental && n >= 2) {
    pool = std::make_unique<par::ClausePool>(n);
  }
  // Reserved up front: each client's solver hooks point at the client.
  std::vector<par::SharingClient> clients;
  if (options.share) {
    clients.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) clients.emplace_back(&interval, pool.get(), i);
  }

  // Workers inherit the submitting thread's trace context (request id /
  // span) so every event they emit — portfolio_start, solve, interval,
  // solver share/import events — correlates back to the service request.
  const obs::SpanContext parent_ctx = obs::current_context();

  auto runner = [&](int index) {
    obs::ContextScope ctx_scope(parent_ctx);
    OptimizeOptions opts = configs[static_cast<std::size_t>(index)];
    opts.stop = &stop;
    opts.share =
        options.share ? &clients[static_cast<std::size_t>(index)] : nullptr;
    if (obs::trace_enabled()) {
      obs::TraceEvent("portfolio_start")
          .num("worker", index)
          .str("strategy", strategy_name(opts.strategy))
          .str("backend", backend_name(opts))
          .boolean("incremental", opts.incremental)
          .boolean("share", options.share);
    }
    OptimizeResult local = optimize(problem, objective, opts);
    const bool cancelled = stop.load(std::memory_order_relaxed) &&
                           local.status ==
                               OptimizeResult::Status::kBudgetExhausted;
    if (obs::trace_enabled()) {
      obs::TraceEvent e(cancelled ? "portfolio_cancel" : "portfolio_finish");
      e.num("worker", index).str("status", local.status_string());
      if (local.has_allocation) e.num("cost", local.cost);
      e.num("seconds", local.stats.seconds);
      e.num("clauses_exported",
            static_cast<std::int64_t>(local.stats.clauses_exported));
      e.num("clauses_imported",
            static_cast<std::int64_t>(local.stats.clauses_imported));
    }
    util::MutexLock lock(arb.mu);
    arb.per_config_stats[static_cast<std::size_t>(index)] = local.stats;
    auto definitive = [](const OptimizeResult& r) {
      return r.status == OptimizeResult::Status::kOptimal ||
             r.status == OptimizeResult::Status::kInfeasible;
    };
    bool take = false;
    if (arb.winner < 0) {
      take = true;  // first result of any kind
    } else if (definitive(local) && !definitive(arb.best)) {
      take = true;  // definitive beats anytime
    } else if (definitive(local) && definitive(arb.best) &&
               local.certified && !arb.best.certified) {
      take = true;  // certified beats uncertified
    } else if (!definitive(local) && !definitive(arb.best) &&
               local.has_allocation &&
               (!arb.best.has_allocation ||
                local.cost < arb.best.cost)) {
      take = true;  // better anytime incumbent
    }
    if (take) {
      arb.best = std::move(local);
      arb.winner = index;
    }
    if (definitive(arb.best)) {
      stop.store(true, std::memory_order_relaxed);
    }
  };

  // Forward the caller's stop flag (base_config.stop) onto the internal
  // one, which the runner installs into every worker. Polling keeps the
  // caller's flag a plain const atomic it can share freely.
  std::thread watcher;
  std::atomic<bool> watcher_done{false};
  if (const std::atomic<bool>* external = options.base_config.stop) {
    watcher = std::thread([&, external] {
      while (!watcher_done.load(std::memory_order_relaxed)) {
        if (external->load(std::memory_order_relaxed)) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) threads.emplace_back(runner, i);
  for (std::thread& t : threads) t.join();
  if (watcher.joinable()) {
    watcher_done.store(true, std::memory_order_relaxed);
    watcher.join();
  }
  {
    // Workers have joined; fold the arbiter's verdict into the result.
    util::MutexLock lock(arb.mu);
    result.best = std::move(arb.best);
    result.winner = arb.winner;
    result.per_config_stats = std::move(arb.per_config_stats);
  }

  for (const OptimizeStats& s : result.per_config_stats) {
    result.sharing.clauses_exported += s.clauses_exported;
    result.sharing.clauses_imported += s.clauses_imported;
    result.sharing.bounds_published += s.bounds_published;
    result.sharing.bounds_adopted += s.bounds_adopted;
  }
  if (pool) result.sharing.pool_dropped = pool->stats().overwritten;

  static const obs::Metric races = obs::counter("portfolio.races");
  static const obs::Metric workers = obs::counter("portfolio.workers");
  static const obs::Metric definitive =
      obs::counter("portfolio.definitive_results");
  static const obs::Metric exported =
      obs::counter("portfolio.clauses_exported");
  static const obs::Metric imported =
      obs::counter("portfolio.clauses_imported");
  static const obs::Metric bounds = obs::counter("portfolio.bound_updates");
  obs::add(races, 1);
  obs::add(workers, n);
  obs::add(exported, static_cast<std::int64_t>(result.sharing.clauses_exported));
  obs::add(imported, static_cast<std::int64_t>(result.sharing.clauses_imported));
  obs::add(bounds, static_cast<std::int64_t>(interval.updates()));
  if (result.best.status == OptimizeResult::Status::kOptimal ||
      result.best.status == OptimizeResult::Status::kInfeasible) {
    obs::add(definitive, 1);
  }
  if (obs::trace_enabled()) {
    obs::TraceEvent e("portfolio_win");
    e.num("winner", result.winner).str("status", result.best.status_string());
    if (result.best.has_allocation) e.num("cost", result.best.cost);
    e.num("threads", n);
    e.num("clauses_exported",
          static_cast<std::int64_t>(result.sharing.clauses_exported));
    e.num("clauses_imported",
          static_cast<std::int64_t>(result.sharing.clauses_imported));
    e.num("bounds_published",
          static_cast<std::int64_t>(result.sharing.bounds_published));
    e.num("bounds_adopted",
          static_cast<std::int64_t>(result.sharing.bounds_adopted));
  }
  return result;
}

}  // namespace optalloc::alloc
