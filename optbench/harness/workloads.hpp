#pragma once
// Workload entry points. Each builds its inputs from the seed (timing
// that set-up), runs the configured number of passes over its fixed
// request set, checks every answer against the reference optima, and
// fills the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run) of this process.

#include <string>
#include <vector>

#include "common.hpp"
#include "instances.hpp"

namespace optbench {

/// The per-layer metric names and units every traced run reports; a layer
/// a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// The end-to-end metric names and units every untraced run reports.
const std::vector<LayerMetric>& end_to_end_metrics();

/// Set-up repetitions whose median is setup_s.
constexpr int kSetupReps = 3;

RunResult run_closed_loop(const RunConfig& cfg, const Reference& ref);
RunResult run_service_mix(const RunConfig& cfg, const Reference& ref);

/// The (spec, objective) pairs a workload solves, for --make-reference.
struct Solve {
  std::string spec;
  std::string objective;
};
std::vector<Solve> closed_loop_instances(const std::string& workload);
/// The small instance the closed-loop set-up sends once as a warm-up.
Solve warm_up_instance();
std::vector<Solve> service_instances();
/// Session bases of service-mix (their edit chains are in the reference
/// under step_key()).
std::vector<std::string> session_bases();

}  // namespace optbench
