// dpgen_perfbench: runs one benchmark workload and prints its metrics; the
// last line of stdout is the one-line JSON result (README.md).
//
//   dpgen_perfbench --workload gen-seam --seed 3 --seconds 8 --trace 0
//                   --out <dir> [--corrupt-expected] [--solve-timeout S]

#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "support/json.hpp"
#include "support/str.hpp"

using namespace perfbench;
using dpgen::cat;
namespace json = dpgen::json;

namespace {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics in the order BENCHMARK.json lists them.  A layer a
/// workload does not use reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"spec.parse_s", "s"},
    {"tiling.model_s", "s"},
    {"tiling.balance_s", "s"},
    {"tiling.imbalance", "ratio"},
    {"tiling.initscan_s", "s"},
    {"codegen.generate_s", "s"},
    {"codegen.source_bytes", "bytes"},
    {"codegen.compile_s", "s"},
    {"runtime.compute_frac", "fraction"},
    {"runtime.compute_ns_per_cell", "ns/cell"},
    {"runtime.unpack_frac", "fraction"},
    {"runtime.pack_frac", "fraction"},
    {"runtime.other_frac", "fraction"},
    {"runtime.idle_frac", "fraction"},
    {"runtime.poll_frac", "fraction"},
    {"runtime.send_frac", "fraction"},
    {"runtime.tiles", "count"},
    {"runtime.remote_edges", "count"},
    {"runtime.pool_hit_frac", "fraction"},
    {"runtime.peak_edges", "count"},
    {"minimpi.messages", "count"},
    {"minimpi.bytes", "bytes"},
    {"minimpi.blocked_send_s", "s"},
    {"sim.simulate_s", "s"},
    {"sim.tiles_per_s", "1/s"},
    {"sim.pred_ratio", "ratio"},
    {"problems.serial_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: dpgen_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --out DIR "
               "[--corrupt-expected] [--solve-timeout S]\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else if (!has_value) {
      return usage(cat("missing value for ", arg).c_str());
    } else if (arg == "--workload") {
      a.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out") {
      a.out_dir = argv[++i];
    } else if (arg == "--solve-timeout") {
      a.solve_timeout_s = std::strtod(argv[++i], nullptr);
    } else {
      return usage(cat("unknown argument ", arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  std::filesystem::create_directories(a.out_dir);

  Layers layers;
  Outcome out;
  try {
    out = run_workload(a, layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload %s aborted: %s\n",
                 a.workload.c_str(), e.what());
    return 1;
  }

  std::vector<std::pair<std::string, Metric>> metrics;
  const Tail tail = tail_of(out.solve_s);
  if (a.trace) {
    layers.write_chrome_trace(a.out_dir + "/layers.trace.json");
    for (const auto& [name, value] : out.layer) {
      if (std::none_of(kLayerMetrics.begin(), kLayerMetrics.end(),
                       [&](const auto& m) { return m.first == name; })) {
        std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
        return 1;
      }
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      auto it = out.layer.find(name);
      metrics.emplace_back(
          name, Metric{it == out.layer.end() ? 0.0 : it->second, unit});
    }
  } else {
    metrics = {{"solve_s", {median(out.solve_s), "s"}},
               {"solve_s_tail", {tail.value, "s"}},
               {"setup_s", {median(out.setup_s), "s"}},
               {"peak_rss_mb", {median(out.rss_mb), "MB"}}};
  }
  const double failed_frac =
      out.attempted ? static_cast<double>(out.failed) / out.attempted : 1.0;
  // A non-finite value (a ratio over a zero time) is written as null and
  // makes the run incorrect.
  const bool finite =
      std::all_of(metrics.begin(), metrics.end(),
                  [](const auto& m) { return std::isfinite(m.second.value); });
  const bool correct =
      out.attempted > 0 && out.failed == 0 && out.checks_ok && finite;

  // Human-readable report: fingerprint, inputs, then every metric.
  utsname u{};
  uname(&u);
  std::vector<std::pair<std::string, std::string>> info = {
      {"workload", cat(a.workload, " seed=", a.seed, " seconds=", a.seconds,
                       " trace=", a.trace ? 1 : 0)},
      {"machine", cat(cpu_model(), ", ", std::thread::hardware_concurrency(),
                      " cpus, ", u.sysname, " ", u.release)},
      {"build", cat(PERFBENCH_BUILD_TYPE, ", ", __VERSION__)},
      {"generated programs", cat(PERFBENCH_CXX, " ", generated_flags())},
  };
  info.insert(info.end(), out.notes.begin(), out.notes.end());
  for (const auto& [k, v] : info) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [name, m] : metrics) {
    std::printf("%-28s %14.6g %s", name.c_str(), m.value, m.unit.c_str());
    if (name == "solve_s_tail")
      std::printf("   (p%d of %zu solves, %zu beyond)", tail.percentile,
                  tail.samples, tail.beyond);
    std::printf("\n");
  }
  std::printf("%-28s %14.6g fraction   (%lld of %lld solves)\n",
              "failed_frac", failed_frac, out.failed, out.attempted);

  std::string metrics_json;
  for (const auto& [name, m] : metrics) {
    const std::string value = std::isfinite(m.value) ? exact(m.value) : "null";
    metrics_json += cat(metrics_json.empty() ? "" : ", ", json::escaped(name),
                        ": {\"value\": ", value,
                        ", \"unit\": ", json::escaped(m.unit), "}");
  }
  const std::string result =
      cat("{\"correct\": ", correct ? "true" : "false",
          ", \"attempted\": ", out.attempted, ", \"failed\": ", out.failed,
          ", \"metrics\": {", metrics_json, "}}");
  // The run's record: the result plus everything printed beside it.
  std::ofstream record(a.out_dir + "/result.json");
  record << "{\"result\": " << result << ", \"info\": {";
  for (std::size_t i = 0; i < info.size(); ++i)
    record << (i ? ", " : "") << json::escaped(info[i].first) << ": "
           << json::escaped(info[i].second);
  record << "}, \"solve_s\": [";
  for (std::size_t i = 0; i < out.solve_s.size(); ++i)
    record << (i ? ", " : "") << exact(out.solve_s[i]);
  record << "], \"setup_s\": [";
  for (std::size_t i = 0; i < out.setup_s.size(); ++i)
    record << (i ? ", " : "") << exact(out.setup_s[i]);
  record << "]}\n";
  std::printf("%s\n", result.c_str());
  return 0;
}
