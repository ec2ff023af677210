#pragma once
// The paper's Section 5.2 BIN_SEARCH, written once. SOLVE is a probe:
// "is there an allocation whose cost lies in [lo, hi]?". The search
// narrows the cost interval by repeated probes until the optimum is
// pinned. How a probe is answered is the caller's business: one solver
// with bounds as assumptions (the Section 7 incremental variant), a fresh
// solver per call with bounds asserted (the paper's base procedure), or a
// re-solve session's guarded solver (src/inc).

#include <cstdint>
#include <functional>
#include <optional>

#include "ir/expr.hpp"
#include "sat/types.hpp"

namespace optalloc::alloc {

enum class SearchStrategy {
  /// The paper's BIN_SEARCH: bisect the cost interval. Fewest SOLVE calls
  /// but the mid-interval UNSAT proofs can be the hardest queries.
  kBisection,
  /// Walk down from the incumbent: SOLVE(cost <= upper - 1) repeatedly.
  /// More calls, but every call until the optimum is satisfiable (cheap
  /// with phase warm starts); only the final UNSAT proof is hard.
  kDescending,
};

/// One SOLVE answer. kTrue carries the cost of the model found; kFalse
/// means no allocation costs within the queried bounds; kUndef means the
/// budget ran out (the probe checks its own clock and stop flag).
struct ProbeResult {
  sat::LBool verdict = sat::LBool::kUndef;
  std::int64_t cost = 0;  ///< valid on kTrue
};

struct SearchResult {
  /// kTrue: optimum pinned (lower == upper == optimum). kFalse: no
  /// allocation exists. kUndef: interrupted; [lower, upper] is the proven
  /// interval, with `upper` meaningful only when has_upper.
  sat::LBool verdict = sat::LBool::kUndef;
  std::int64_t lower = 0;
  std::int64_t upper = 0;
  bool has_upper = false;
};

using SearchProbe = std::function<ProbeResult(std::int64_t lo, std::int64_t hi)>;

/// Minimize the cost over `range`.
///   * `incumbent`: cost of a known feasible allocation; the first SOLVE
///     is skipped and the search starts from it.
///   * `cap`: otherwise, bound the first SOLVE by this cost (ignored when
///     outside [range.lo, range.hi)). A capped UNSAT raises the lower
///     bound to cap + 1 before the uncapped retry.
///   * `sync(lower, upper)` runs before each search step and may tighten
///     the interval (the portfolio's shared bounds); closing it ends the
///     search.
///   * `on_step(lower, upper)` runs once the first upper bound is known
///     and after every step that narrows the interval.
SearchResult bin_search(
    ir::Range range, std::optional<std::int64_t> incumbent,
    std::optional<std::int64_t> cap, SearchStrategy strategy,
    const SearchProbe& probe,
    const std::function<void(std::int64_t& lower, std::int64_t& upper)>&
        sync = {},
    const std::function<void(std::int64_t lower, std::int64_t upper)>&
        on_step = {});

}  // namespace optalloc::alloc
