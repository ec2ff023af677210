#include "layers.hpp"

#include "common.hpp"
#include "obs/metrics.hpp"

namespace optbench {

LayerValues registry_layers() {
  std::map<std::string, optalloc::obs::MetricValue> reg;
  for (auto& m : optalloc::obs::snapshot()) reg[m.name] = std::move(m);
  const auto count = [&](const char* name) {
    const auto it = reg.find(name);
    return it == reg.end() ? 0.0 : static_cast<double>(it->second.value);
  };
  const auto ms = [&](const char* name) {
    const auto it = reg.find(name);
    return it == reg.end() ? 0.0 : it->second.seconds * 1e3;
  };
  LayerValues lv;
  lv["opt.sat_calls"] = count("opt.sat_calls");
  lv["opt.sat_calls_unsat"] = count("opt.sat_calls_unsat");
  lv["sat.conflicts"] = count("sat.conflicts");
  lv["sat.decisions"] = count("sat.decisions");
  lv["sat.propagations"] = count("sat.propagations");
  lv["sat.propagate_ms"] = ms("sat.time.propagate");
  lv["sat.analyze_ms"] = ms("sat.time.analyze");
  lv["sat.reduce_ms"] = ms("sat.time.reduce_db");
  lv["sat.props_per_s"] = lv["sat.propagate_ms"] > 0
                              ? lv["sat.propagations"] / (lv["sat.propagate_ms"] / 1e3)
                              : 0.0;
  lv["sat.inprocess.eliminated"] = count("sat.inprocess.eliminated_vars");
  lv["sat.inprocess.subsumed"] = count("sat.inprocess.subsumed");
  lv["pb.theory_props"] = count("sat.theory_propagations");
  lv["pb.translate_ms"] = ms("pb.time.translate");
  lv["heur.anneal_ms"] = ms("heur.sa.time");
  lv["encode.build_ms"] = ms("opt.time.encode");
  lv["opt.solve_ms"] = ms("opt.time.solve");
  return lv;
}

LayerValues median_layers(const std::vector<LayerValues>& passes) {
  std::map<std::string, std::vector<double>> by_name;
  for (const LayerValues& p : passes) {
    for (const auto& [name, value] : p) by_name[name];
  }
  for (auto& [name, values] : by_name) {
    for (const LayerValues& p : passes) {
      const auto it = p.find(name);
      values.push_back(it == p.end() ? 0.0 : it->second);
    }
  }
  LayerValues out;
  for (const auto& [name, values] : by_name) out[name] = median(values);
  return out;
}

}  // namespace optbench
