// Automotive CAN cluster scenario: a body-electronics function (door
// modules, light control, dashboard) mapped onto ECUs connected by a CAN
// bus. The objective is the paper's U_CAN: minimize bus load by
// co-locating chatty tasks — subject to placement restrictions that keep
// I/O tasks at their peripherals.
//
//   $ ./automotive_can [--sa-only]
//
// Also runs the simulated-annealing baseline for comparison (the paper's
// Table 1 setup).

#include <cstdio>
#include <cstring>

#include "alloc/optimizer.hpp"
#include "heur/annealing.hpp"
#include "rt/verify.hpp"
#include "workload/generator.hpp"

using namespace optalloc;

namespace {

alloc::Problem build_cluster() {
  alloc::Problem p;
  p.arch.num_ecus = 4;  // front-left door, front-right door, body, dash
  rt::Medium can;
  can.name = "body_can";
  can.type = rt::MediumType::kCan;
  can.ecus = {0, 1, 2, 3};
  can.can_bit_ticks = 1;
  can.can_bits_per_tick = 25;  // ~100 kbit/s at the 0.25 ms tick
  p.arch.media = {can};

  auto task = [](const char* name, rt::Ticks period, std::vector<rt::Ticks> w) {
    rt::Task t;
    t.name = name;
    t.period = period;
    t.deadline = period;
    t.wcet = std::move(w);
    return t;
  };
  const rt::Ticks F = rt::kForbidden;
  // I/O tasks pinned to their peripherals; processing tasks float.
  rt::Task dl = task("door_left", 40, {4, F, F, F});
  rt::Task dr = task("door_right", 40, {F, 4, F, F});
  rt::Task lock = task("lock_ctrl", 40, {6, 6, 6, 6});
  rt::Task light = task("light_ctrl", 100, {12, 12, 12, 12});
  rt::Task dash = task("dashboard", 100, {F, F, F, 10});
  rt::Task diag = task("diagnostics", 500, {40, 40, 40, 40});
  // Door switches report to the lock controller; lock + light status go
  // to the dashboard; diagnostics polls the light controller.
  dl.messages.push_back({2, 2, 20, 0});
  dr.messages.push_back({2, 2, 20, 0});
  lock.messages.push_back({4, 4, 40, 0});
  light.messages.push_back({4, 4, 60, 0});
  diag.messages.push_back({3, 8, 250, 0});
  p.tasks.tasks = {dl, dr, lock, light, dash, diag};
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const bool sa_only = argc > 1 && std::strcmp(argv[1], "--sa-only") == 0;
  const alloc::Problem p = build_cluster();
  const alloc::Objective objective = alloc::Objective::can_load(0);

  heur::AnnealingOptions sa_opts;
  sa_opts.iterations = 10000;
  const heur::AnnealingResult sa = heur::anneal(p, objective, sa_opts);
  std::printf("simulated annealing: %s, U_CAN = %.3f\n",
              sa.feasible ? "feasible" : "infeasible",
              sa.feasible ? static_cast<double>(sa.cost) / 1000.0 : -1.0);
  if (sa_only) return 0;

  alloc::OptimizeOptions opts;
  if (sa.feasible) opts.warm_start = sa.allocation;
  const alloc::OptimizeResult res = alloc::optimize(p, objective, opts);
  std::printf("SAT optimizer:       %s, U_CAN = %.3f (%d SAT calls)\n",
              res.status_string().c_str(),
              res.cost >= 0 ? static_cast<double>(res.cost) / 1000.0 : -1.0,
              res.stats.sat_calls);
  if (res.status != alloc::OptimizeResult::Status::kOptimal) return 1;

  for (std::size_t i = 0; i < p.tasks.tasks.size(); ++i) {
    std::printf("  %-12s -> ECU %d\n", p.tasks.tasks[i].name.c_str(),
                res.allocation.task_ecu[i]);
  }
  const auto refs = p.tasks.message_refs();
  int on_bus = 0;
  for (std::size_t g = 0; g < refs.size(); ++g) {
    on_bus += !res.allocation.msg_route[g].empty();
  }
  std::printf("  %d of %zu messages use the bus\n", on_bus, refs.size());

  const rt::VerifyReport report = rt::verify(p.tasks, p.arch, res.allocation);
  std::printf("verified: %s (exact bus load %.3f)\n",
              report.feasible ? "yes" : "NO",
              static_cast<double>(report.max_can_util_ppm) / 1000.0);
  if (sa.feasible && res.cost > sa.cost) {
    std::printf("ERROR: optimal exceeds the heuristic!\n");
    return 1;
  }
  return report.feasible ? 0 : 1;
}
