#pragma once
// Per-layer values of one traced pass, and the program's own counters and
// timers (the obs metrics registry) folded into them.

#include <map>
#include <string>
#include <vector>

namespace optbench {

using LayerValues = std::map<std::string, double>;

/// sat/opt/pb/heur values read from the process-wide metrics registry
/// (phase timers need obs::set_phase_timing(true) during the pass).
LayerValues registry_layers();

/// Per-name median over passes (a name missing from a pass counts as 0).
LayerValues median_layers(const std::vector<LayerValues>& passes);

}  // namespace optbench
