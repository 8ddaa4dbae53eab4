// bench_e2e — the repository's end-to-end benchmark.
//
//   bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   bench_e2e --quick
//
// One workload per process.  Every metric is printed as `name value unit`;
// the last line of standard output is one JSON record
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1, which also writes
// a Chrome trace next to the binary).  The exit code is non-zero when a
// correctness check fails.  --quick runs every workload at toy sizes in
// both modes and checks the emitted metrics against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "e2e.hpp"
#include "results/json.hpp"

namespace {

struct Entry {
  const char* name;
  e2e::Workload run;
};
constexpr Entry kWorkloads[] = {
    {"cg_1000", e2e::run_cg_1000},
    {"ppcg_128", e2e::run_ppcg_128},
    {"mpi_1000", e2e::run_mpi_1000},
    {"net_mix", e2e::run_net_mix},
};

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       bench_e2e --quick\n"
               "workloads:",
               message);
  for (const Entry& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

std::string number(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

e2e::Outcome run_workload(const Entry& workload, const e2e::RunParams& params) {
  e2e::Outcome out = workload.run(params);
  for (auto* metrics : {&out.end_to_end, &out.per_layer}) {
    for (auto& [name, metric] : *metrics) {
      if (!std::isfinite(metric.value)) {
        out.fail("metric " + name + " is not finite");
        metric.value = 0.0;
      }
    }
  }
  return out;
}

/// Print the human-readable lines and, last, the JSON record.
void report(const e2e::Outcome& out, bool trace) {
  for (const std::string& line : out.info) std::printf("# %s\n", line.c_str());
  for (const std::string& line : out.errors)
    std::printf("FAIL %s\n", line.c_str());
  const e2e::Metrics& metrics = trace ? out.per_layer : out.end_to_end;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s %s %s\n", name.c_str(), number(metric.value).c_str(),
                metric.unit.c_str());
  }
  std::printf("failed_frac %s ratio\n",
              number(out.attempted > 0
                         ? static_cast<double>(out.failed) / out.attempted
                         : 1.0)
                  .c_str());
  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

/// Names and units a BENCHMARK.json metric list declares.
std::set<std::pair<std::string, std::string>> declared(
    const results::Json& spec, const std::string& key) {
  std::set<std::pair<std::string, std::string>> out;
  const results::Json* list = spec.get(key);
  TL_REQUIRE(list != nullptr && list->is_array(),
             "BENCHMARK.json has no " + key + " list");
  for (const results::Json& metric : list->items()) {
    out.emplace(metric.get("name")->as_string(),
                metric.get("unit")->as_string());
  }
  return out;
}

std::set<std::pair<std::string, std::string>> emitted(
    const e2e::Metrics& metrics) {
  std::set<std::pair<std::string, std::string>> out;
  for (const auto& [name, metric] : metrics) out.emplace(name, metric.unit);
  return out;
}

/// The benchmark's own test: every workload at toy size, untraced and
/// traced, must pass its checks and emit exactly the metrics BENCHMARK.json
/// declares, with their units.
int quick(const std::string& work_dir) {
  std::ifstream file(E2E_BENCHMARK_JSON);
  TL_REQUIRE(static_cast<bool>(file),
             std::string("cannot read ") + E2E_BENCHMARK_JSON);
  std::stringstream text;
  text << file.rdbuf();
  const results::Json spec = results::Json::parse(text.str());
  const auto end_to_end = declared(spec, "end_to_end");
  const auto per_layer = declared(spec, "per_layer");
  std::set<std::string> workloads;
  for (const results::Json& w : spec.get("workloads")->items())
    workloads.insert(w.get("name")->as_string());

  int problems = 0;
  const auto problem = [&](const std::string& what) {
    std::printf("quick: FAIL %s\n", what.c_str());
    ++problems;
  };
  for (const Entry& workload : kWorkloads) {
    if (workloads.erase(workload.name) == 0)
      problem(std::string(workload.name) + " is not in BENCHMARK.json");
    for (const bool trace : {false, true}) {
      e2e::RunParams params;
      params.seconds = 0.0;
      params.trace = trace;
      params.quick = true;
      params.trace_path =
          work_dir + "/trace_quick_" + workload.name + ".json";
      const e2e::Outcome out = run_workload(workload, params);
      const std::string label =
          std::string(workload.name) + (trace ? " (traced)" : "");
      for (const std::string& error : out.errors) problem(label + ": " + error);
      if (out.attempted == 0) problem(label + ": attempted nothing");
      if (emitted(trace ? out.per_layer : out.end_to_end) !=
          (trace ? per_layer : end_to_end)) {
        problem(label + ": metrics or units differ from BENCHMARK.json");
      }
      std::printf("quick: %s: %ld operations checked\n", label.c_str(),
                  out.attempted);
    }
  }
  for (const std::string& name : workloads)
    problem(name + " is declared in BENCHMARK.json but not built in");
  std::printf("quick: %s\n", problems == 0 ? "OK" : "FAILED");
  return problems == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string self = argv[0];
  const std::size_t slash = self.rfind('/');
  const std::string work_dir =
      slash == std::string::npos ? "." : self.substr(0, slash);

  std::string workload_name;
  e2e::RunParams params;
  bool run_quick = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      run_quick = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      params.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      params.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     params.seconds >= 0.0 && params.seconds <= 3600.0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      params.trace = value == "1";
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }

  try {
    if (run_quick) return quick(work_dir);
    if (!have_seed || !have_seconds || !have_trace)
      return usage("--seed, --seconds and --trace need valid values");
    for (const Entry& workload : kWorkloads) {
      if (workload_name != workload.name) continue;
      params.trace_path = work_dir + "/trace_" + workload_name + ".json";
      const e2e::Outcome out = run_workload(workload, params);
      report(out, params.trace);
      return out.failed == 0 ? 0 : 1;
    }
    return usage(("unknown workload '" + workload_name + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
