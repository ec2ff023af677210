#pragma once
// The benchmark's inputs: instance specs, the problem text the program
// receives, the session edit chain, and the committed reference optima
// every answer is checked against.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc/problem.hpp"

namespace optbench {

/// Build the instance a spec names:
///   tindell:N           first N tasks of the Tindell system (one ring)
///   can:N               the same with the ring swapped for a CAN bus
///   gen:T:E:S           generate(): T tasks, E ECUs, generator seed S
///   archA:N archB:N archC:N archC+can:N   Fig. 2 architectures
/// Throws std::runtime_error on an unknown spec.
optalloc::alloc::Problem build_instance(const std::string& spec);

/// The problem file text of a problem.
std::string problem_text(const optalloc::alloc::Problem& problem);

/// Reorder the tasks by a seeded permutation (messages and separation
/// sets follow): the same system, declared in another order.
optalloc::alloc::Problem permute_tasks(const optalloc::alloc::Problem& p,
                                       std::uint64_t seed);

/// One step of a session's what-if edit chain.
struct EditStep {
  std::string label;
  std::string edits_json;  ///< the "edits" array as sent on the wire
};

/// A deterministic edit chain derived from the base instance: deadline
/// tightening, WCET growth, added jitter, an impossible deadline and its
/// reversal, and a final restore.
std::vector<EditStep> edit_chain(const optalloc::alloc::Problem& base);

/// Apply every step up to and including `step` to a copy of `base`.
optalloc::alloc::Problem apply_chain(const optalloc::alloc::Problem& base,
                                     const std::vector<EditStep>& chain,
                                     std::size_t step);

/// Reference key of a session step: "<base spec>#<step>".
std::string step_key(const std::string& base_spec, std::size_t step);

/// Proven optima, keyed by "<spec> <objective>"; -1 = proven infeasible.
class Reference {
 public:
  /// Load the committed file; throws on a missing or malformed file.
  static Reference load(const std::string& path);
  /// The optimum of (spec, objective); throws when the file lacks it, so
  /// a workload cannot run unchecked.
  std::int64_t optimum(const std::string& spec,
                       const std::string& objective) const;

 private:
  std::map<std::string, std::int64_t> optima_;
};

/// Placement check of a task->ECU vector the service returned, in the
/// indexing of the problem it was sent: every task on an ECU its WCET row
/// allows and that may host tasks, separated pairs apart, memory budgets
/// kept. Returns the first violation, or nullopt.
std::optional<std::string> check_placement(
    const optalloc::alloc::Problem& problem, const std::vector<int>& task_ecu);

}  // namespace optbench
