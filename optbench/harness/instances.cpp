#include "instances.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "alloc/io.hpp"
#include "common.hpp"
#include "inc/patch.hpp"
#include "obs/json.hpp"
#include "workload/generator.hpp"
#include "workload/tindell.hpp"

using namespace optalloc;

namespace optbench {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) out.push_back(part);
  return out;
}

std::int64_t min_wcet(const rt::Task& t) {
  std::int64_t best = -1;
  for (const rt::Ticks w : t.wcet) {
    if (w == rt::kForbidden) continue;
    if (best < 0 || w < best) best = w;
  }
  return best;
}

std::string deadline_edit(const rt::Task& t, std::int64_t d) {
  return "[{\"op\":\"set_deadline\",\"task\":\"" + t.name +
         "\",\"deadline\":" + std::to_string(d) + "}]";
}

}  // namespace

alloc::Problem build_instance(const std::string& spec) {
  const std::vector<std::string> f = split(spec, ':');
  const auto num = [&](std::size_t i) {
    if (i >= f.size()) throw std::runtime_error("bad instance spec " + spec);
    return std::stoi(f[i]);
  };
  if (f[0] == "tindell") return workload::tindell_prefix(num(1));
  if (f[0] == "can") return workload::with_can_bus(workload::tindell_prefix(num(1)));
  if (f[0] == "archA") return workload::architecture_a(num(1));
  if (f[0] == "archB") return workload::architecture_b(num(1));
  if (f[0] == "archC") return workload::architecture_c(false, num(1));
  if (f[0] == "archC+can") return workload::architecture_c(true, num(1));
  if (f[0] == "gen") {
    workload::GenOptions gen;
    gen.num_tasks = num(1);
    gen.num_chains = std::max(2, gen.num_tasks / 4);
    gen.num_ecus = num(2);
    gen.separated_pairs = 1;
    gen.seed = static_cast<std::uint64_t>(num(3));
    return workload::generate(gen);
  }
  throw std::runtime_error("unknown instance spec " + spec);
}

std::string problem_text(const alloc::Problem& problem) {
  std::ostringstream out;
  alloc::write_problem(out, problem);
  return out.str();
}

alloc::Problem permute_tasks(const alloc::Problem& p, std::uint64_t seed) {
  const std::size_t n = p.tasks.tasks.size();
  std::vector<int> order(n);  // new position -> old index
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<int>(i);
  Rng rng(seed);
  shuffle(order, rng);
  std::vector<int> where(n);  // old index -> new position
  for (std::size_t i = 0; i < n; ++i) where[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  alloc::Problem q = p;
  for (std::size_t i = 0; i < n; ++i) {
    rt::Task t = p.tasks.tasks[static_cast<std::size_t>(order[i])];
    for (int& s : t.separated_from) s = where[static_cast<std::size_t>(s)];
    for (rt::Message& m : t.messages) m.target_task = where[static_cast<std::size_t>(m.target_task)];
    q.tasks.tasks[i] = std::move(t);
  }
  return q;
}

std::vector<EditStep> edit_chain(const alloc::Problem& base) {
  const auto& tasks = base.tasks.tasks;
  const std::size_t n = tasks.size();
  const auto task = [&](std::size_t i) -> const rt::Task& { return tasks[i * 7 % n]; };
  std::vector<EditStep> chain;

  const rt::Task& a = task(1);
  chain.push_back({"tighten_deadline",
                   deadline_edit(a, std::max(min_wcet(a) + 1, a.deadline * 9 / 10))});

  const rt::Task& b = task(2);
  std::size_t ecu = 0;
  while (ecu + 1 < b.wcet.size() && b.wcet[ecu] == rt::kForbidden) ++ecu;
  const std::int64_t w = b.wcet[ecu];
  chain.push_back({"grow_wcet", "[{\"op\":\"set_wcet\",\"task\":\"" + b.name +
                                    "\",\"ecu\":" + std::to_string(ecu) +
                                    ",\"wcet\":" +
                                    std::to_string(w + std::max<std::int64_t>(1, w / 8)) +
                                    "}]"});

  const rt::Task& c = task(3);
  chain.push_back({"add_jitter", "[{\"op\":\"set_jitter\",\"task\":\"" + c.name +
                                     "\",\"jitter\":" +
                                     std::to_string(c.release_jitter + 2) + "}]"});

  // No ECU finishes `d` inside this deadline: the edit is infeasible and
  // the next one reverts it.
  const rt::Task& d = task(4);
  chain.push_back({"impossible_deadline",
                   deadline_edit(d, std::max<std::int64_t>(1, min_wcet(d) - 1))});
  chain.push_back({"revert_deadline", deadline_edit(d, d.deadline)});
  chain.push_back({"restore_deadline", deadline_edit(a, a.deadline)});
  return chain;
}

alloc::Problem apply_chain(const alloc::Problem& base,
                           const std::vector<EditStep>& chain, std::size_t step) {
  alloc::Problem p = base;
  for (std::size_t i = 0; i <= step && i < chain.size(); ++i) {
    const auto doc = obs::json_parse(chain[i].edits_json);
    std::string error;
    const auto patch = doc ? inc::parse_patch(*doc, &error) : std::nullopt;
    if (!patch) throw std::runtime_error("bad edit " + chain[i].label + ": " + error);
    if (const auto err = inc::apply_patch(*patch, p)) {
      throw std::runtime_error("edit " + chain[i].label + ": " + *err);
    }
  }
  return p;
}

std::string step_key(const std::string& base_spec, std::size_t step) {
  return base_spec + "#" + std::to_string(step);
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  Reference ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string spec, objective, optimum;
    if (!(fields >> spec >> objective >> optimum)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    ref.optima_[spec + " " + objective] =
        optimum == "infeasible" ? -1 : std::stoll(optimum);
  }
  return ref;
}

std::int64_t Reference::optimum(const std::string& spec,
                                const std::string& objective) const {
  const auto it = optima_.find(spec + " " + objective);
  if (it == optima_.end()) {
    throw std::runtime_error("no reference optimum for " + spec + " " + objective);
  }
  return it->second;
}

std::optional<std::string> check_placement(const alloc::Problem& problem,
                                           const std::vector<int>& task_ecu) {
  const auto& tasks = problem.tasks.tasks;
  const auto& arch = problem.arch;
  if (task_ecu.size() != tasks.size()) return "allocation has wrong task count";
  std::vector<std::int64_t> used(static_cast<std::size_t>(arch.num_ecus), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int e = task_ecu[i];
    if (e < 0 || e >= arch.num_ecus) return "task " + tasks[i].name + " on no ECU";
    const auto ue = static_cast<std::size_t>(e);
    if (tasks[i].wcet[ue] == rt::kForbidden) {
      return "task " + tasks[i].name + " on forbidden ECU " + std::to_string(e);
    }
    if (ue < arch.gateway_only.size() && arch.gateway_only[ue]) {
      return "task " + tasks[i].name + " on gateway-only ECU";
    }
    for (const int s : tasks[i].separated_from) {
      if (task_ecu[static_cast<std::size_t>(s)] == e) {
        return "separated tasks " + tasks[i].name + " and " +
               tasks[static_cast<std::size_t>(s)].name + " share an ECU";
      }
    }
    used[ue] += tasks[i].memory;
  }
  for (std::size_t e = 0; e < used.size(); ++e) {
    if (e < arch.ecu_memory.size() && arch.ecu_memory[e] > 0 &&
        used[e] > arch.ecu_memory[e]) {
      return "memory budget of ECU " + std::to_string(e) + " exceeded";
    }
  }
  return std::nullopt;
}

}  // namespace optbench
