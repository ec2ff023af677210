// Micro-benchmarks (google-benchmark) for the substrates: CDCL solver
// throughput on classic instances, native PB propagation, bit-blasting
// cost per arithmetic operator, response-time fixed points, path-closure
// construction, and end-to-end encoding of small allocation problems.
//
// After the google-benchmark run, a hardware-profile pass times the three
// pipeline phases (encode / solve / certify) on a Tindell prefix with the
// perf_event_open counter group (see src/obs/perfctr.hpp) and writes
// BENCH_micro.json — per phase: wall seconds plus cycles, instructions,
// cache references/misses and branch misses, rendered as JSON nulls on
// hosts where the counters are unavailable (containers, non-Linux,
// OPTALLOC_NO_PERFCTR=1).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>

#include "alloc/encoder.hpp"
#include "encode/bitblast.hpp"
#include "net/paths.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perfctr.hpp"
#include "pb/propagator.hpp"
#include "rt/analysis.hpp"
#include "rt/verify.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "workload/tindell.hpp"

using namespace optalloc;

namespace {

void add_pigeonhole(sat::Solver& s, int pigeons, int holes) {
  std::vector<std::vector<sat::Var>> grid(
      static_cast<std::size_t>(pigeons),
      std::vector<sat::Var>(static_cast<std::size_t>(holes)));
  for (auto& row : grid) {
    for (auto& v : row) v = s.new_var();
  }
  for (int pi = 0; pi < pigeons; ++pi) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(sat::pos(grid[pi][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_binary(sat::neg(grid[p1][h]), sat::neg(grid[p2][h]));
      }
    }
  }
}

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    add_pigeonhole(s, holes + 1, holes);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7)->Arg(8);

void BM_SatRandom3Sat(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const int clauses = static_cast<int>(vars * 4.1);
  for (auto _ : state) {
    state.PauseTiming();
    Rng rng(static_cast<std::uint64_t>(state.iterations()));
    sat::Solver s;
    for (int v = 0; v < vars; ++v) s.new_var();
    for (int c = 0; c < clauses; ++c) {
      std::vector<sat::Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(sat::Lit(static_cast<sat::Var>(rng.index(vars)),
                                  rng.chance(0.5)));
      }
      s.add_clause(clause);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatRandom3Sat)->Arg(50)->Arg(100)->Arg(150);

void BM_PbCardinalityPropagation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    pb::PbPropagator pbp(s);
    std::vector<pb::Term> terms;
    for (int i = 0; i < n; ++i) terms.push_back({1, sat::pos(s.new_var())});
    pbp.add_ge(terms, n / 2);
    pbp.add_le(terms, n / 2);
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_PbCardinalityPropagation)->Arg(32)->Arg(128)->Arg(512);

void BM_BitblastMultiplier(benchmark::State& state) {
  const std::int64_t hi = (std::int64_t{1} << state.range(0)) - 1;
  for (auto _ : state) {
    ir::Context ctx;
    sat::Solver s;
    encode::BitBlaster bb(ctx, s);
    const auto x = ctx.int_var("x", 0, hi);
    const auto y = ctx.int_var("y", 0, hi);
    bb.assert_true(ctx.eq(ctx.mul(x, y), ctx.constant(hi)));
    benchmark::DoNotOptimize(s.num_clauses());
  }
}
BENCHMARK(BM_BitblastMultiplier)->Arg(6)->Arg(10)->Arg(14);

void BM_ResponseTimeFixpoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<rt::Interferer> hp;
  for (int i = 0; i < n; ++i) {
    hp.push_back({2 + i % 5, 40 + 13 * i, i % 3});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::response_time_fp(25, hp, 100000));
  }
}
BENCHMARK(BM_ResponseTimeFixpoint)->Arg(4)->Arg(16)->Arg(64);

void BM_PathClosures(benchmark::State& state) {
  const int rings = static_cast<int>(state.range(0));
  rt::Architecture arch;
  arch.num_ecus = rings * 3 + 1;
  for (int r = 0; r < rings; ++r) {
    rt::Medium m;
    m.name = "r" + std::to_string(r);
    m.type = rt::MediumType::kTokenRing;
    // Star topology: every ring shares ECU 0... violates the one-gateway
    // rule pairwise; chain them instead.
    m.ecus = {r * 3, r * 3 + 1, r * 3 + 2, r * 3 + 3};
    arch.media.push_back(m);
  }
  for (auto _ : state) {
    net::PathClosures pc(arch);
    benchmark::DoNotOptimize(pc.routes().size());
  }
}
BENCHMARK(BM_PathClosures)->Arg(2)->Arg(4)->Arg(6);

void BM_EncodeTindellPrefix(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  const alloc::Problem p = workload::tindell_prefix(tasks);
  for (auto _ : state) {
    alloc::AllocEncoder enc(p, alloc::Objective::ring_trt(0));
    enc.build();
    benchmark::DoNotOptimize(enc.solver().num_vars());
  }
}
BENCHMARK(BM_EncodeTindellPrefix)->Arg(7)->Arg(12)->Arg(20);

void BM_VerifyTindell(benchmark::State& state) {
  const alloc::Problem p = workload::tindell_prefix(20);
  // A known-feasible allocation: the SAT model of the feasibility problem.
  alloc::AllocEncoder enc(p, alloc::Objective::feasibility());
  enc.build();
  if (enc.solve({}, {}) != sat::LBool::kTrue) {
    state.SkipWithError("unexpected: instance infeasible");
    return;
  }
  const rt::Allocation alloc = enc.decode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::verify(p.tasks, p.arch, alloc).feasible);
  }
}
BENCHMARK(BM_VerifyTindell);

/// Per-phase hardware profile: encode (build the constraint system),
/// solve (one SOLVE call), certify (independent RT re-validation of the
/// model). Each phase row carries wall seconds + the counter deltas.
void write_perf_profile() {
  const alloc::Problem p = workload::tindell_prefix(12);
  obs::JsonArray phases;

  const auto phase_row = [&phases](const char* name, double seconds,
                                   const obs::PerfCounts& d) {
    phases.push(obs::JsonObject()
                    .str("phase", name)
                    .num("seconds", seconds)
                    .raw("counters", obs::perf_json(d))
                    .build());
  };

  alloc::AllocEncoder enc(p, alloc::Objective::sum_trt());
  {
    const auto t0 = obs::monotonic_ns();
    const obs::PerfCounts c0 = obs::perf_read();
    enc.build();
    phase_row("encode", (obs::monotonic_ns() - t0) * 1e-9,
              obs::perf_delta(obs::perf_read(), c0));
  }
  rt::Allocation model;
  {
    const auto t0 = obs::monotonic_ns();
    const obs::PerfCounts c0 = obs::perf_read();
    const sat::LBool res = enc.solve({}, {});
    phase_row("solve", (obs::monotonic_ns() - t0) * 1e-9,
              obs::perf_delta(obs::perf_read(), c0));
    if (res != sat::LBool::kTrue) {
      std::fprintf(stderr, "warning: profile instance not SAT\n");
      return;
    }
    model = enc.decode();
  }
  {
    const auto t0 = obs::monotonic_ns();
    const obs::PerfCounts c0 = obs::perf_read();
    const bool ok = rt::verify(p.tasks, p.arch, model).feasible;
    phase_row("certify", (obs::monotonic_ns() - t0) * 1e-9,
              obs::perf_delta(obs::perf_read(), c0));
    if (!ok) std::fprintf(stderr, "warning: profile model not verified\n");
  }

  const char* path = "BENCH_micro.json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  out << obs::JsonObject()
             .str("bench", "micro")
             .boolean("perf_available", obs::perf_available())
             .raw("phases", phases.build())
             .build()
      << '\n';
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  write_perf_profile();
  return 0;
}
