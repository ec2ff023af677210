#pragma once
// Cooperative-search shared state and the per-worker client handle.
//
// A cooperative portfolio run (src/alloc/portfolio) owns:
//   * one SharedInterval — the global cost interval [lower, upper] plus
//     the incumbent allocation that witnesses `upper`: any worker that
//     proves "no allocation cheaper than L" raises lower, any worker that
//     finds an incumbent of cost U offers it (stored, then upper drops),
//     and every worker folds the global interval into its own binary
//     search before each SOLVE step, so the searches converge jointly;
//   * at most one ClausePool — every worker encodes the same system with
//     the same encoder configuration, so all of them share one variable
//     numbering and may exchange clauses.
//
// Each worker gets a SharingClient: a thin, single-thread handle bundling
// its pool cursor and worker index, and wiring the sat::Solver sharing
// hooks. The client itself is not thread-safe; the underlying pool and
// interval are.

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>

#include "par/pool.hpp"
#include "rt/model.hpp"
#include "sat/solver.hpp"
#include "util/mutex.hpp"

namespace optalloc::par {

/// Globally shared, monotonically shrinking cost interval. `lower` only
/// rises (CAS-max), `upper` only drops (CAS-min); both start unbounded.
/// Callers must only raise `lower` with a *proven* bound and only drop
/// `upper` with the cost of a *feasible* incumbent, so lower <= upper
/// always holds for consistent publishers.
class SharedInterval {
 public:
  static constexpr std::int64_t kNoLower =
      std::numeric_limits<std::int64_t>::min();
  static constexpr std::int64_t kNoUpper =
      std::numeric_limits<std::int64_t>::max();

  std::int64_t lower() const { return lower_.load(std::memory_order_acquire); }
  std::int64_t upper() const { return upper_.load(std::memory_order_acquire); }

  /// Raise the proven lower bound; returns true if `v` improved it.
  bool raise_lower(std::int64_t v) {
    std::int64_t cur = lower_.load(std::memory_order_relaxed);
    while (v > cur) {
      if (lower_.compare_exchange_weak(cur, v, std::memory_order_release,
                                       std::memory_order_relaxed)) {
        updates_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Drop the incumbent upper bound; returns true if `v` improved it.
  bool drop_upper(std::int64_t v) {
    std::int64_t cur = upper_.load(std::memory_order_relaxed);
    while (v < cur) {
      if (upper_.compare_exchange_weak(cur, v, std::memory_order_release,
                                       std::memory_order_relaxed)) {
        updates_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  /// Total successful raises + drops across all workers.
  std::uint64_t updates() const {
    return updates_.load(std::memory_order_relaxed);
  }

  /// Offer a feasible incumbent: store the allocation if it is the
  /// cheapest yet, *then* drop `upper` to its cost. The order is the
  /// contract — a worker that observes a bound always finds an allocation
  /// at least that good through better_than(). Returns true if `upper`
  /// improved.
  bool offer(std::int64_t cost, const rt::Allocation& allocation);

  /// The stored incumbent, if it is cheaper than `upper`.
  std::optional<std::pair<std::int64_t, rt::Allocation>> better_than(
      std::int64_t upper) const;

 private:
  std::atomic<std::int64_t> lower_{kNoLower};
  std::atomic<std::int64_t> upper_{kNoUpper};
  std::atomic<std::uint64_t> updates_{0};
  mutable util::Mutex mu_;
  std::int64_t incumbent_cost_ OPTALLOC_GUARDED_BY(mu_) = kNoUpper;
  rt::Allocation incumbent_ OPTALLOC_GUARDED_BY(mu_);
};

/// One worker's handle on the shared state. Constructed by the portfolio;
/// passed to the optimizer via OptimizeOptions::share. `pool` may be null
/// (no clause exchange: a one-worker or scratch-mode run).
class SharingClient {
 public:
  SharingClient(SharedInterval* interval, ClausePool* pool, int worker)
      : interval_(interval), pool_(pool), worker_(worker) {
    if (pool_ != nullptr) cursor_ = pool_->make_cursor();
  }

  SharedInterval* interval() const { return interval_; }

  /// Install the clause-exchange hooks on `solver`. `var_limit` restricts
  /// exchanged clauses to the deterministic base encoding (variables that
  /// exist right after build(), before any query-dependent bound-guard
  /// circuits), so a clause means the same thing in every worker.
  /// No-op without a pool. The solver itself suppresses imports while a
  /// proof log is attached (an imported clause has no RUP derivation in
  /// the local log); exports stay on either way.
  void attach(sat::Solver& solver, std::int32_t var_limit);

 private:
  SharedInterval* interval_;
  ClausePool* pool_;
  int worker_;
  ClausePool::Cursor cursor_;
};

}  // namespace optalloc::par
