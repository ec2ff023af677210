#pragma once
// Objective evaluation on concrete allocations — the exact counterpart of
// the encoder's cost function, shared by the optimizer (to price warm
// starts), the heuristics, and the benchmarks.

#include <cstdint>
#include <optional>
#include <string>

#include "alloc/problem.hpp"
#include "rt/model.hpp"

namespace optalloc::alloc {

/// Why `objective` cannot be evaluated on `problem` (a medium index out of
/// range, or a medium of the wrong type for trt:/can-load:); nullopt when
/// it can. Every entry point checks it before anything indexes the medium.
std::optional<std::string> validate_objective(const Problem& problem,
                                              Objective objective);

/// Objective value of an allocation (assumed feasible): TRT = Lambda of
/// the medium, SumTRT = sum over rings, CanLoad = sum over bus messages
/// of ceil(rho * 1000 / period). Matches the encoder's cost definition.
std::int64_t objective_value(const Problem& problem, Objective objective,
                             const rt::Allocation& allocation);

/// Verify + evaluate: nullopt if the allocation is infeasible.
std::optional<std::int64_t> evaluate_allocation(
    const Problem& problem, Objective objective,
    const rt::Allocation& allocation);

}  // namespace optalloc::alloc
