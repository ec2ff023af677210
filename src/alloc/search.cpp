#include "alloc/search.hpp"

namespace optalloc::alloc {

SearchResult bin_search(
    ir::Range range, std::optional<std::int64_t> incumbent,
    std::optional<std::int64_t> cap, SearchStrategy strategy,
    const SearchProbe& probe,
    const std::function<void(std::int64_t& lower, std::int64_t& upper)>& sync,
    const std::function<void(std::int64_t lower, std::int64_t upper)>&
        on_step) {
  std::int64_t lower = range.lo;
  std::int64_t upper = 0;
  if (incumbent) {
    upper = *incumbent;
  } else {
    // R := SOLVE(phi), the first upper estimate.
    const std::int64_t first_hi =
        cap && *cap >= range.lo && *cap < range.hi ? *cap : range.hi;
    ProbeResult r = probe(lower, first_hi);
    if (r.verdict == sat::LBool::kFalse && first_hi < range.hi) {
      lower = first_hi + 1;
      r = probe(lower, range.hi);
    }
    if (r.verdict != sat::LBool::kTrue) return {r.verdict, lower, 0, false};
    upper = r.cost;
  }
  if (on_step) on_step(lower, upper);

  // BIN_SEARCH(phi). The paper's loop sets L := M on an UNSAT interval
  // [L, M]; since the optimum then lies in (M, R], we advance to M + 1
  // (fixing the paper's off-by-one, which would not terminate for
  // R = L + 1).
  while (lower < upper) {
    if (sync) {
      sync(lower, upper);
      if (lower >= upper) break;
    }
    const std::int64_t mid = strategy == SearchStrategy::kBisection
                                 ? lower + (upper - lower) / 2
                                 : upper - 1;
    const ProbeResult r = probe(lower, mid);
    if (r.verdict == sat::LBool::kUndef) {
      return {sat::LBool::kUndef, lower, upper, true};
    }
    if (r.verdict == sat::LBool::kFalse) {
      lower = mid + 1;
    } else {
      upper = r.cost;
    }
    if (on_step) on_step(lower, upper);
  }
  return {sat::LBool::kTrue, upper, upper, true};
}

}  // namespace optalloc::alloc
