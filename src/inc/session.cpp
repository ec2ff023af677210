#include "inc/session.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "alloc/search.hpp"

namespace optalloc::inc {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

const char* SessionResult::status_name(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kInfeasible: return "infeasible";
    case Status::kFeasible: return "feasible";
    case Status::kUnknown: return "unknown";
    case Status::kError: return "error";
  }
  return "?";
}

Session::Session(alloc::Problem problem, alloc::Objective objective,
                 SessionOptions options)
    : problem_(std::move(problem)),
      objective_(objective),
      options_(options),
      backend_(options.backend) {}

Session::~Session() = default;

bool Session::sync_encoding(SessionResult& out) {
  alloc::EncoderConfig config;
  config.backend = options_.backend;
  config.free_tie_priorities = options_.free_tie_priorities;
  encoder_.reset();
  encoder_ = std::make_unique<alloc::AllocEncoder>(problem_, objective_,
                                                   config, backend_);
  try {
    encoder_->build();
  } catch (const std::exception& e) {
    out.status = SessionResult::Status::kError;
    out.error = e.what();
    return false;
  }
  const EncodingDelta delta = diff_groups(groups_, encoder_->grouped());
  const std::int64_t clauses_before = backend_.solver.num_clauses();
  for (const std::string& name : delta.retired) {
    // Permanent retraction. Sound: every learnt clause is implied by the
    // clause database, and the database only grows — a retired group's
    // clauses become vacuously satisfied, never contradicted.
    backend_.solver.add_unit(~groups_.at(name).guard);
    groups_.erase(name);
    ++retired_guards_;
  }
  for (const std::string& name : delta.added) {
    Group group;
    const sat::Var v = backend_.solver.new_var();
    backend_.solver.set_frozen(v);  // guards must survive inprocessing
    group.guard = sat::pos(v);
    group.formulas = delta.next.at(name);
    for (const ir::NodeId f : group.formulas) {
      backend_.blaster.assert_guarded(group.guard, f);
    }
    groups_.emplace(name, std::move(group));
  }
  out.groups_added = static_cast<int>(delta.added.size());
  out.groups_retired = static_cast<int>(delta.retired.size());
  out.groups_unchanged = delta.unchanged;
  out.clauses_added = backend_.solver.num_clauses() - clauses_before;
  guard_assumptions_.clear();
  guard_assumptions_.reserve(groups_.size());
  for (const auto& [name, group] : groups_) {
    guard_assumptions_.push_back(group.guard);
  }
  guards_res_.set(0, static_cast<std::int64_t>(groups_.size()));
  dead_guards_res_.set(0, retired_guards_);
  return true;
}

double Session::dead_guard_fraction() const {
  const double total =
      static_cast<double>(retired_guards_) + static_cast<double>(groups_.size());
  return total > 0.0 ? static_cast<double>(retired_guards_) / total : 0.0;
}

SessionResult Session::solve(const SolveLimits& limits) {
  SessionResult out;
  const auto start = Clock::now();
  const std::uint64_t conflicts_before = backend_.solver.stats().conflicts;
  const auto finish = [&](SessionResult::Status status) {
    out.status = status;
    out.seconds = seconds_since(start);
    out.conflicts = static_cast<std::int64_t>(
        backend_.solver.stats().conflicts - conflicts_before);
    return out;
  };

  if (!sync_encoding(out)) return finish(SessionResult::Status::kError);

  const ir::Range range = encoder_->cost_range();
  sat::Budget per_call;
  per_call.conflicts = limits.conflicts;
  per_call.stop = limits.stop;
  const auto probe = [&](std::int64_t lo,
                         std::int64_t hi) -> alloc::ProbeResult {
    sat::Budget budget = per_call;
    if (limits.deadline_s > 0.0) {
      const double left = limits.deadline_s - seconds_since(start);
      if (left <= 0.0) return {};
      budget.seconds = left;
    }
    ++out.sat_calls;
    const sat::LBool r = encoder_->solve(lo, hi, budget, guard_assumptions_);
    if (r != sat::LBool::kTrue) return {r, 0};
    out.allocation = encoder_->decode();
    out.has_allocation = true;
    return {r, encoder_->decode_cost()};
  };

  // Warm start: the first probe is capped at the previous optimum, which
  // decides whether the edit kept or improved the cost (SAT: continue
  // below C*) or regressed it (UNSAT: the optimum moved up — search
  // (C*, hi]).
  const alloc::SearchResult search =
      alloc::bin_search(range, std::nullopt, prev_optimum_,
                        alloc::SearchStrategy::kBisection, probe);

  if (search.verdict == sat::LBool::kFalse) {
    // Infeasible instance. For the core, re-solve with only the group
    // guards (no cost bounds) when the last conflict involved a bound
    // assumption — the cost variable's own range makes this equivalent.
    out.proven_optimal = true;
    CoreExplainer explainer(backend_.solver, groups_);
    std::vector<std::string> core =
        explainer.explain(backend_.solver.conflict_core());
    if (search.lower > range.lo) {
      ++out.sat_calls;
      if (backend_.solver.solve(guard_assumptions_, per_call) ==
          sat::LBool::kFalse) {
        core = explainer.explain(backend_.solver.conflict_core());
      }
    }
    if (options_.minimize_cores && core.size() > 1) {
      core = explainer.minimize(std::move(core), options_.core_probe);
    }
    out.core = std::move(core);
    return finish(SessionResult::Status::kInfeasible);
  }
  out.lower_bound = search.lower;
  if (!search.has_upper) return finish(SessionResult::Status::kUnknown);
  const bool complete = search.verdict == sat::LBool::kTrue;
  out.cost = search.upper;
  out.proven_optimal = complete;
  prev_optimum_ = search.upper;
  return finish(complete ? SessionResult::Status::kOptimal
                         : SessionResult::Status::kFeasible);
}

SessionResult Session::revise(const InstancePatch& patch,
                              const SolveLimits& limits) {
  // Validate against a copy: a rejected patch must leave the live
  // instance (and encoding) untouched.
  alloc::Problem edited = problem_;
  if (const auto error = apply_patch(patch, edited)) {
    SessionResult out;
    out.status = SessionResult::Status::kError;
    out.error = *error;
    return out;
  }
  encoder_.reset();  // encoder_ references problem_; drop before swap
  problem_ = std::move(edited);
  return solve(limits);
}

bool Session::core_is_conflicting(std::span<const std::string> core) {
  if (core.empty()) return false;
  CoreExplainer explainer(backend_.solver, groups_);
  return explainer.is_conflicting(core);
}

}  // namespace optalloc::inc
