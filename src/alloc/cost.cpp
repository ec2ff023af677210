#include "alloc/cost.hpp"

#include <algorithm>

#include "rt/analysis.hpp"
#include "rt/verify.hpp"
#include "util/intmath.hpp"

namespace optalloc::alloc {

using rt::Ticks;

std::optional<std::string> validate_objective(const Problem& problem,
                                              Objective objective) {
  rt::MediumType type{};
  switch (objective.kind) {
    case ObjectiveKind::kTokenRingTrt: type = rt::MediumType::kTokenRing; break;
    case ObjectiveKind::kCanLoad: type = rt::MediumType::kCan; break;
    default: return std::nullopt;
  }
  const std::string what = objective.describe();
  if (objective.medium < 0 ||
      objective.medium >= static_cast<int>(problem.arch.media.size())) {
    return what + ": no such medium (the problem has " +
           std::to_string(problem.arch.media.size()) + " media)";
  }
  if (problem.arch.media[static_cast<std::size_t>(objective.medium)].type !=
      type) {
    return what + ": not a " +
           (type == rt::MediumType::kCan ? "CAN" : "token-ring") + " medium";
  }
  return std::nullopt;
}

std::int64_t objective_value(const Problem& problem,
                             Objective objective,
                             const rt::Allocation& allocation) {
  switch (objective.kind) {
    case ObjectiveKind::kFeasibility:
      return 0;
    case ObjectiveKind::kTokenRingTrt: {
      std::int64_t trt = 0;
      for (const Ticks slot :
           allocation.slots[static_cast<std::size_t>(objective.medium)]) {
        trt += slot;
      }
      return trt;
    }
    case ObjectiveKind::kSumTrt: {
      std::int64_t total = 0;
      for (std::size_t k = 0; k < problem.arch.media.size(); ++k) {
        if (problem.arch.media[k].type != rt::MediumType::kTokenRing) {
          continue;
        }
        for (const Ticks slot : allocation.slots[k]) total += slot;
      }
      return total;
    }
    case ObjectiveKind::kCanLoad: {
      const auto refs = problem.tasks.message_refs();
      const rt::Medium& medium =
          problem.arch.media[static_cast<std::size_t>(objective.medium)];
      std::int64_t load = 0;
      for (std::size_t g = 0; g < refs.size(); ++g) {
        const auto& route = allocation.msg_route[g];
        if (std::find(route.begin(), route.end(), objective.medium) ==
            route.end()) {
          continue;
        }
        const Ticks rho = rt::transmission_ticks(
            medium, problem.tasks.message(refs[g]).size_bytes);
        const Ticks period =
            problem.tasks.tasks[static_cast<std::size_t>(refs[g].task)].period;
        load += ceil_div(rho * 1000, period);
      }
      return load;
    }
    case ObjectiveKind::kMaxUtilization: {
      std::int64_t worst = 0;
      for (int p = 0; p < problem.arch.num_ecus; ++p) {
        std::int64_t load = 0;
        for (std::size_t i = 0; i < problem.tasks.tasks.size(); ++i) {
          if (allocation.task_ecu[i] != p) continue;
          const rt::Task& t = problem.tasks.tasks[i];
          load += ceil_div(1000 * t.wcet[static_cast<std::size_t>(p)],
                           t.period);
        }
        worst = std::max(worst, load);
      }
      return worst;
    }
  }
  return 0;
}

std::optional<std::int64_t> evaluate_allocation(
    const Problem& problem, Objective objective,
    const rt::Allocation& allocation) {
  const rt::VerifyReport report =
      rt::verify(problem.tasks, problem.arch, allocation);
  if (!report.feasible) return std::nullopt;
  return objective_value(problem, objective, allocation);
}

}  // namespace optalloc::alloc
