#pragma once
// Cooperative parallel portfolio optimization: `threads` diversified
// copies of one optimizer configuration run concurrently on the same
// problem. Beyond the classic race (first definitive answer wins and
// cancels the rest), the workers cooperate through the src/par sharing
// layer:
//
//   * clause exchange — each CDCL worker exports its valuable learnt
//     clauses (units, binaries, low-LBD) into one sharded
//     lock-per-producer pool and drains its siblings' exports at restart
//     boundaries. Every worker uses the base encoder configuration, so
//     all of them share one deterministic variable numbering;
//   * bound broadcasting — one shared atomic cost interval: any worker
//     that proves a lower bound raises it, any worker that finds an
//     incumbent offers it (the allocation is stored before the upper
//     side drops), and every worker folds the global interval into its
//     own binary search before each SOLVE step;
//   * diversification — workers other than worker 0 vary search
//     strategy, VSIDS decay, restart pacing, default polarity,
//     random-branching rate and RNG seed, so the portfolio explores
//     different parts of the search space instead of racing down the
//     same path.
//
// Since every worker solves the identical constraint system, any
// "optimal" verdict is *the* global optimum — sharing only changes how
// fast it is reached.

#include <cstdint>
#include <vector>

#include "alloc/optimizer.hpp"

namespace optalloc::alloc {

/// Most workers one portfolio may start: each is an OS thread. The
/// service caps a request's `threads` field at the same bound.
constexpr int kMaxPortfolioThreads = 64;

struct PortfolioOptions {
  /// Worker count in [1, kMaxPortfolioThreads]; anything else makes
  /// optimize_portfolio() throw std::invalid_argument before it starts a
  /// thread. Worker 0 runs `base_config` untouched, so one worker behaves
  /// exactly like plain optimize().
  int threads = 1;
  /// Every worker's configuration: encoder, certification, warm start,
  /// per-call budget. `time_limit_s` bounds the whole run; `stop` cancels
  /// every worker (a watcher forwards it onto the portfolio's own stop
  /// flag, which also lets a definitive answer cancel the losers);
  /// `on_progress` is called from the worker threads, possibly
  /// concurrently (see OptimizeOptions::on_progress).
  OptimizeOptions base_config;
  /// Clause exchange and bound broadcasting between the workers. Off =
  /// an independent race over the same configurations.
  bool share = true;
};

/// Cooperative-search traffic aggregated over all workers.
struct SharingStats {
  std::uint64_t clauses_exported = 0;  ///< learnts pushed to the pool
  std::uint64_t clauses_imported = 0;  ///< foreign learnts attached
  std::uint64_t bounds_published = 0;  ///< shared-interval tightenings
  std::uint64_t bounds_adopted = 0;    ///< foreign bounds folded in
  std::uint64_t pool_dropped = 0;      ///< exports lost to ring overwrite
};

struct PortfolioResult {
  OptimizeResult best;
  int winner = -1;  ///< index of the winning worker
  /// Per-worker search effort, indexed by worker (size == threads).
  std::vector<OptimizeStats> per_config_stats;
  SharingStats sharing;
};

PortfolioResult optimize_portfolio(const Problem& problem,
                                   Objective objective,
                                   const PortfolioOptions& options = {});

}  // namespace optalloc::alloc
