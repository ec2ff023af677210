// Optimizer-level tests: the BIN_SEARCH loop over a fake probe; agreement
// of all search strategies, backends and modes on the same optimum; the
// max-utilization objective; task release jitter end-to-end; warm-start
// semantics; anytime/budget behavior; objective validation.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "alloc/cost.hpp"
#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "heur/exhaustive.hpp"
#include "rt/verify.hpp"
#include "util/rng.hpp"
#include "workload/tindell.hpp"

namespace optalloc::alloc {
namespace {

using rt::Medium;
using rt::MediumType;
using rt::Task;
using rt::Ticks;

Task make_task(std::string name, Ticks period, Ticks deadline,
               std::vector<Ticks> wcet) {
  Task t;
  t.name = std::move(name);
  t.period = period;
  t.deadline = deadline;
  t.wcet = std::move(wcet);
  return t;
}

Medium make_ring(std::vector<int> ecus, Ticks slot_max = 8) {
  Medium m;
  m.name = "ring";
  m.type = MediumType::kTokenRing;
  m.ecus = std::move(ecus);
  m.ring_byte_ticks = 1;
  m.slot_min = 1;
  m.slot_max = slot_max;
  return m;
}

Problem random_problem(Rng& rng) {
  Problem p;
  const int num_ecus = static_cast<int>(rng.uniform(2, 3));
  p.arch.num_ecus = num_ecus;
  std::vector<int> all;
  for (int e = 0; e < num_ecus; ++e) all.push_back(e);
  p.arch.media = {make_ring(all)};
  const int num_tasks = static_cast<int>(rng.uniform(3, 5));
  for (int i = 0; i < num_tasks; ++i) {
    const Ticks period = 50 * rng.uniform(2, 6);
    std::vector<Ticks> wcet;
    for (int e = 0; e < num_ecus; ++e) wcet.push_back(rng.uniform(5, 25));
    p.tasks.tasks.push_back(
        make_task("T" + std::to_string(i), period, period, wcet));
  }
  if (rng.chance(0.6)) {
    p.tasks.tasks[0].messages.push_back(
        {1, rng.uniform(1, 4), rng.uniform(30, 80), 0});
  }
  if (rng.chance(0.3)) {
    p.tasks.tasks[0].separated_from = {1};
    p.tasks.tasks[1].separated_from = {0};
  }
  return p;
}

// BIN_SEARCH over a fake monotone probe: cost c is feasible iff c >= k;
// a SAT answer reports the worst cost in the queried interval, so every
// step narrows the interval as little as a probe may.
struct FakeProbe {
  std::int64_t k;
  std::vector<std::pair<std::int64_t, std::int64_t>> calls;
  ProbeResult operator()(std::int64_t lo, std::int64_t hi) {
    calls.emplace_back(lo, hi);
    if (hi < k) return {sat::LBool::kFalse, 0};
    return {sat::LBool::kTrue, hi};
  }
};

TEST(BinSearch, BothStrategiesPinTheOptimum) {
  for (const SearchStrategy strategy :
       {SearchStrategy::kBisection, SearchStrategy::kDescending}) {
    for (const std::int64_t k : {0, 1, 7, 19, 20}) {
      FakeProbe fake{k, {}};
      const SearchResult r =
          bin_search({0, 20}, std::nullopt, std::nullopt, strategy,
                     std::ref(fake));
      EXPECT_EQ(r.verdict, sat::LBool::kTrue) << k;
      EXPECT_EQ(r.lower, k);
      EXPECT_EQ(r.upper, k);
      EXPECT_TRUE(r.has_upper);
      ASSERT_FALSE(fake.calls.empty());
      EXPECT_EQ(fake.calls.front(), std::make_pair(std::int64_t{0},
                                                   std::int64_t{20}));
    }
  }
}

TEST(BinSearch, IncumbentSkipsTheFirstSolve) {
  FakeProbe fake{5, {}};
  const SearchResult r = bin_search({0, 20}, 9, std::nullopt,
                                    SearchStrategy::kDescending,
                                    std::ref(fake));
  EXPECT_EQ(r.verdict, sat::LBool::kTrue);
  EXPECT_EQ(r.upper, 5);
  // Descending from 9: [0,8] [0,7] [0,6] [0,5] sat, [0,4] unsat.
  ASSERT_EQ(fake.calls.size(), 5u);
  EXPECT_EQ(fake.calls.front().second, 8);
  EXPECT_EQ(fake.calls.back().second, 4);
}

TEST(BinSearch, CappedUnsatRaisesTheLowerBound) {
  FakeProbe fake{12, {}};
  std::vector<std::int64_t> lowers;
  const SearchResult r = bin_search(
      {0, 20}, std::nullopt, 8, SearchStrategy::kBisection, std::ref(fake),
      {}, [&](std::int64_t lower, std::int64_t) { lowers.push_back(lower); });
  EXPECT_EQ(r.verdict, sat::LBool::kTrue);
  EXPECT_EQ(r.upper, 12);
  ASSERT_GE(fake.calls.size(), 2u);
  EXPECT_EQ(fake.calls[0], std::make_pair(std::int64_t{0}, std::int64_t{8}));
  EXPECT_EQ(fake.calls[1], std::make_pair(std::int64_t{9}, std::int64_t{20}));
  ASSERT_FALSE(lowers.empty());
  EXPECT_EQ(lowers.front(), 9);
}

TEST(BinSearch, CapOutsideTheRangeIsIgnored) {
  for (const std::int64_t cap : {-3, 20, 25}) {
    FakeProbe fake{4, {}};
    const SearchResult r = bin_search({0, 20}, std::nullopt, cap,
                                      SearchStrategy::kBisection,
                                      std::ref(fake));
    EXPECT_EQ(r.upper, 4) << cap;
    ASSERT_FALSE(fake.calls.empty());
    EXPECT_EQ(fake.calls.front(),
              std::make_pair(std::int64_t{0}, std::int64_t{20}))
        << cap;
  }
}

TEST(BinSearch, UndefMidSearchReturnsTheProvenInterval) {
  FakeProbe fake{6, {}};
  int calls = 0;
  const SearchResult r = bin_search(
      {0, 20}, std::nullopt, std::nullopt, SearchStrategy::kBisection,
      [&](std::int64_t lo, std::int64_t hi) -> ProbeResult {
        if (++calls == 3) return {};
        return fake(lo, hi);
      });
  // [0,20] sat at 20; [0,10] sat at 10; then the budget runs out.
  EXPECT_EQ(r.verdict, sat::LBool::kUndef);
  EXPECT_EQ(r.lower, 0);
  EXPECT_EQ(r.upper, 10);
  EXPECT_TRUE(r.has_upper);
}

TEST(BinSearch, UndefFirstSolveHasNoUpperBound) {
  const SearchResult r =
      bin_search({3, 20}, std::nullopt, std::nullopt,
                 SearchStrategy::kBisection,
                 [](std::int64_t, std::int64_t) { return ProbeResult{}; });
  EXPECT_EQ(r.verdict, sat::LBool::kUndef);
  EXPECT_EQ(r.lower, 3);
  EXPECT_FALSE(r.has_upper);
}

TEST(BinSearch, SyncThatClosesTheIntervalEndsTheSearch) {
  FakeProbe fake{3, {}};
  const SearchResult r = bin_search(
      {0, 20}, 15, std::nullopt, SearchStrategy::kBisection, std::ref(fake),
      [](std::int64_t& lower, std::int64_t& upper) {
        lower = 11;  // a sibling proved 11 and found 11
        upper = 11;
      });
  EXPECT_EQ(r.verdict, sat::LBool::kTrue);
  EXPECT_EQ(r.lower, 11);
  EXPECT_EQ(r.upper, 11);
  EXPECT_TRUE(fake.calls.empty());
}

TEST(BinSearch, InfeasibleProbeGivesFalse) {
  for (const std::optional<std::int64_t> cap :
       {std::optional<std::int64_t>{}, std::optional<std::int64_t>{5}}) {
    FakeProbe fake{21, {}};  // nothing in [0, 20] is feasible
    const SearchResult r = bin_search({0, 20}, std::nullopt, cap,
                                      SearchStrategy::kBisection,
                                      std::ref(fake));
    EXPECT_EQ(r.verdict, sat::LBool::kFalse);
    EXPECT_FALSE(r.has_upper);
    EXPECT_EQ(fake.calls.size(), cap ? 2u : 1u);
  }
}

TEST(Strategies, AllVariantsAgreeOnTheOptimum) {
  Rng rng(0x517A7);
  int checked = 0;
  for (int round = 0; round < 15; ++round) {
    const Problem p = random_problem(rng);
    const Objective obj = Objective::ring_trt(0);

    OptimizeOptions bisect;  // defaults
    OptimizeOptions descend;
    descend.strategy = SearchStrategy::kDescending;
    OptimizeOptions scratch;
    scratch.incremental = false;
    OptimizeOptions pbmix;
    pbmix.encoder.backend = encode::Backend::kPbMixed;
    OptimizeOptions warm;
    const auto sa = heur::anneal(p, obj, {.seed = 5, .iterations = 1500});
    if (sa.feasible) warm.warm_start = sa.allocation;
    OptimizeOptions scratch_descend = scratch;
    scratch_descend.strategy = SearchStrategy::kDescending;
    OptimizeOptions scratch_warm = warm;
    scratch_warm.incremental = false;

    const OptimizeResult a = optimize(p, obj, bisect);
    for (const OptimizeOptions& o :
         {descend, scratch, pbmix, warm, scratch_descend, scratch_warm}) {
      const OptimizeResult r = optimize(p, obj, o);
      ASSERT_EQ(a.status, r.status) << "round " << round;
      if (a.status == OptimizeResult::Status::kOptimal) {
        EXPECT_EQ(a.cost, r.cost) << "round " << round;
      }
    }
    if (a.status == OptimizeResult::Status::kOptimal) ++checked;
  }
  EXPECT_GT(checked, 8);
}

TEST(MaxUtilization, BalancesLoadAcrossEcus) {
  // Four identical tasks of utilization 0.25 on two ECUs: balanced
  // optimum = 2 per ECU -> 500; any 3-1 split gives 750.
  Problem p;
  for (int i = 0; i < 4; ++i) {
    p.tasks.tasks.push_back(
        make_task("T" + std::to_string(i), 100, 100, {25, 25}));
  }
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::max_utilization());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.cost, 500);
  EXPECT_EQ(objective_value(p, Objective::max_utilization(),
                            res.allocation),
            500);
  const auto report = rt::verify(p.tasks, p.arch, res.allocation);
  EXPECT_TRUE(report.feasible);
}

TEST(MaxUtilization, RespectsPlacementRestrictions) {
  // Three tasks, one pinned: the pinned ECU carries at least its load.
  Problem p;
  p.tasks.tasks.push_back(
      make_task("pinned", 100, 100, {60, rt::kForbidden}));
  p.tasks.tasks.push_back(make_task("a", 100, 100, {30, 30}));
  p.tasks.tasks.push_back(make_task("b", 100, 100, {30, 30}));
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::max_utilization());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  // Optimal: pinned alone (600), a+b together (600).
  EXPECT_EQ(res.cost, 600);
}

TEST(MaxUtilization, MatchesExhaustiveOnRandomInstances) {
  Rng rng(0xDA7);
  int checked = 0;
  for (int round = 0; round < 12; ++round) {
    Problem p = random_problem(rng);
    for (Task& t : p.tasks.tasks) t.messages.clear();  // pure placement
    const auto truth =
        heur::exhaustive_search(p, Objective::max_utilization());
    ASSERT_TRUE(truth.has_value());
    const OptimizeResult res = optimize(p, Objective::max_utilization());
    if (truth->feasible && truth->exact) {
      ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
      EXPECT_EQ(res.cost, truth->cost) << "round " << round;
      ++checked;
    }
  }
  EXPECT_GT(checked, 8);
}

TEST(ReleaseJitter, TightensTaskFeasibility) {
  // r = 40 on the only ECU; deadline 50. Jitter 5 still fits (40 <= 45),
  // jitter 15 does not (40 > 35).
  Problem p;
  p.tasks.tasks.push_back(make_task("J", 100, 50, {40}));
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring({0})};

  p.tasks.tasks[0].release_jitter = 5;
  EXPECT_EQ(optimize(p, Objective::feasibility()).status,
            OptimizeResult::Status::kOptimal);
  p.tasks.tasks[0].release_jitter = 15;
  EXPECT_EQ(optimize(p, Objective::feasibility()).status,
            OptimizeResult::Status::kInfeasible);
}

TEST(ReleaseJitter, IncreasesInterferenceOnLowerPriority) {
  // hp task: C=10, T=60, D=45, jitter 30 (own bound: 10 <= 45-30 ok).
  // lp task: C=25, D=44. Sharing an ECU:
  //   r_lp = 25 + ceil((r+30)/60)*10 -> 35 -> ceil(65/60)=2 -> 45 ->
  //   ceil(75/60)=2 -> 45 > 44: infeasible together; feasible split.
  Problem p;
  Task hp = make_task("hp", 60, 45, {10, 10});
  hp.release_jitter = 30;
  Task lp = make_task("lp", 100, 44, {25, 25});
  p.tasks.tasks = {hp, lp};
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  const OptimizeResult res = optimize(p, Objective::feasibility());
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_NE(res.allocation.task_ecu[0], res.allocation.task_ecu[1]);
  const auto report = rt::verify(p.tasks, p.arch, res.allocation);
  EXPECT_TRUE(report.feasible);

  // Single-ECU variant is infeasible under the jitter.
  Problem single = p;
  single.tasks.tasks[0].wcet = {10};
  single.tasks.tasks[1].wcet = {25};
  single.arch.num_ecus = 1;
  single.arch.media = {make_ring({0})};
  EXPECT_EQ(optimize(single, Objective::feasibility()).status,
            OptimizeResult::Status::kInfeasible);
}

TEST(ReleaseJitter, VerifierAgreesWithEncoder) {
  // The encoder and the verifier must agree on jittered instances.
  Rng rng(0x117);
  for (int round = 0; round < 10; ++round) {
    Problem p = random_problem(rng);
    for (Task& t : p.tasks.tasks) {
      t.messages.clear();
      t.release_jitter = rng.uniform(0, 15);
    }
    const OptimizeResult res = optimize(p, Objective::feasibility());
    if (res.status == OptimizeResult::Status::kOptimal) {
      const auto report = rt::verify(p.tasks, p.arch, res.allocation);
      EXPECT_TRUE(report.feasible)
          << "round " << round << ": "
          << (report.violations.empty() ? "" : report.violations[0]);
    }
  }
}

TEST(WarmStart, InfeasibleHintIsIgnored) {
  // A deliberately infeasible warm start must not corrupt the result.
  Problem p;
  p.tasks.tasks.push_back(make_task("A", 100, 50, {10, 10}));
  p.tasks.tasks.push_back(make_task("B", 100, 100, {10, 10}));
  p.arch.num_ecus = 2;
  p.arch.media = {make_ring({0, 1})};
  rt::Allocation bogus;
  bogus.task_ecu = {0, 5};  // ECU out of range
  bogus.msg_route = {};
  bogus.msg_local_deadline = {};
  OptimizeOptions opts;
  opts.warm_start = bogus;
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  ASSERT_EQ(res.status, OptimizeResult::Status::kOptimal);
  EXPECT_EQ(res.cost, 2);
}

TEST(Budget, TimeLimitedRunReportsBounds) {
  const Problem p = workload::tindell_prefix(20);
  OptimizeOptions opts;
  opts.time_limit_s = 0.05;  // far too little for 20 tasks
  const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
  EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted);
}

TEST(Budget, WarmStartGivesAnytimeAnswerUnderTinyBudget) {
  const Problem p = workload::tindell_prefix(20);
  const auto sa =
      heur::anneal(p, Objective::ring_trt(0), {.seed = 2, .iterations = 3000});
  ASSERT_TRUE(sa.feasible);
  for (const bool incremental : {true, false}) {
    OptimizeOptions opts;
    opts.incremental = incremental;
    opts.time_limit_s = 0.05;
    opts.warm_start = sa.allocation;
    const OptimizeResult res = optimize(p, Objective::ring_trt(0), opts);
    EXPECT_EQ(res.status, OptimizeResult::Status::kBudgetExhausted)
        << "incremental=" << incremental;
    // The SA seed is the anytime answer.
    ASSERT_TRUE(res.has_allocation) << "incremental=" << incremental;
    EXPECT_EQ(res.cost, sa.cost) << "incremental=" << incremental;
  }
}

TEST(ObjectiveApi, DescribeStrings) {
  EXPECT_EQ(Objective::feasibility().describe(), "feasibility");
  EXPECT_EQ(Objective::ring_trt(2).describe(), "min TRT(medium 2)");
  EXPECT_EQ(Objective::sum_trt().describe(), "min sum of TRTs");
  EXPECT_EQ(Objective::can_load(0).describe(), "min U_CAN(medium 0)");
  EXPECT_EQ(Objective::max_utilization().describe(),
            "min max per-ECU utilization");
}

TEST(ObjectiveApi, ValidateObjectiveChecksTheMedium) {
  Problem p;
  p.tasks.tasks.push_back(make_task("A", 100, 100, {10}));
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring({0})};
  EXPECT_FALSE(validate_objective(p, Objective::ring_trt(0)));
  EXPECT_FALSE(validate_objective(p, Objective::sum_trt()));
  EXPECT_FALSE(validate_objective(p, Objective::feasibility()));
  EXPECT_FALSE(validate_objective(p, Objective::max_utilization()));
  EXPECT_TRUE(validate_objective(p, Objective::ring_trt(99)));
  EXPECT_TRUE(validate_objective(p, Objective::ring_trt(-1)));
  EXPECT_TRUE(validate_objective(p, Objective::can_load(0)));  // a ring
  EXPECT_TRUE(validate_objective(p, Objective::can_load(1)));
}

TEST(ObjectiveApi, InvalidMediumThrows) {
  Problem p;
  p.tasks.tasks.push_back(make_task("A", 100, 100, {10}));
  p.arch.num_ecus = 1;
  p.arch.media = {make_ring({0})};
  AllocEncoder enc_bad_can(p, Objective::can_load(0));  // ring, not CAN
  EXPECT_THROW(enc_bad_can.build(), std::invalid_argument);
  AllocEncoder enc_bad_trt(p, Objective::ring_trt(7));
  EXPECT_THROW(enc_bad_trt.build(), std::invalid_argument);
}

}  // namespace
}  // namespace optalloc::alloc
