// dpgen-bench — the one bench harness over the unified bench registry
// (src/obs/bench_registry.hpp).  Every bench/bench_*.cpp translation unit
// registers its workloads and figure tables; this binary links them all
// (via the dpgen_benchsuite object library), prints the tables and runs
// any subset of the benches with repeated trials, robust statistics and a
// perf-regression gate:
//
//   dpgen-bench --list
//       names every registered bench ("family/config"), then every table
//       ("table <ID>").
//
//   dpgen-bench --table[=ID,...]
//       prints the named "# <ID>" figure tables (EXPERIMENTS.md), or all
//       of them in ID order; an unknown ID exits 2.
//
//   dpgen-bench [--filter=a,b] [--trials=N] [--warmup=N] [--json=FILE]
//       runs the selected benches, prints median/MAD/min per bench and
//       optionally writes the dpgen.bench.v1 document.
//
//   dpgen-bench --save-baseline [--archive-dir=DIR]
//       archives the run as DIR/baseline-<fingerprint>.json — the
//       per-machine comparison point for --gate.
//
//   dpgen-bench --archive [--archive-dir=DIR]
//       archives the run as DIR/run-<fingerprint>-<timestamp>.json; the
//       accumulated series feeds --trend.
//
//   dpgen-bench --gate [--baseline=FILE] [--min-delta=R] [--mad-factor=K]
//       compares the run against the baseline (default: the archived
//       per-machine baseline, established automatically on first run)
//       with per-bench thresholds max(min-delta, K * MAD / median); exits
//       1 listing regressions.  A baseline from a different machine
//       fingerprint skips the gate with a warning (exit 0): numbers are
//       only comparable on the machine that produced them.
//
//   dpgen-bench --trend=FILE.html [--archive-dir=DIR]
//       renders the archived series (matching this machine's fingerprint)
//       into a self-contained HTML page of SVG charts.
//
//   dpgen-bench --validate=FILE [--schema=tools/bench_schema.json]
//       validates a dpgen.bench.v1 document (exit 1 on violations); the
//       schema is resolved from the document's own id via the shared
//       registry (support/json_schema.hpp) when --schema is omitted.
//
// --self-test-slowdown=X scales every measured sample by X; the check.sh
// self-test uses it to prove the gate fires on a synthetic regression.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_registry.hpp"
#include "sim/svg.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/json_schema.hpp"
#include "support/str.hpp"

namespace {

using namespace dpgen;
namespace fs = std::filesystem;

struct Options {
  std::string filter;
  int trials = 5;
  int warmup = 1;
  std::string json_path;
  std::string baseline_path;
  bool save_baseline = false;
  bool archive = false;
  std::string archive_dir = "bench-archive";
  bool gate = false;
  std::string gate_json_path;
  double min_delta = 0.10;
  double mad_factor = 5.0;
  double min_abs_delta = 1e-4;
  std::string trend_path;
  std::string validate_path;
  std::string schema_path;
  double self_test_slowdown = 1.0;
  bool list = false;
  /// --table: comma-separated IDs, empty for every table.
  std::optional<std::string> table;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--filter=a,b] [--trials=N] [--warmup=N] [--json=FILE]\n"
      "          [--save-baseline] [--archive] [--archive-dir=DIR]\n"
      "          [--gate] [--baseline=FILE] [--gate-json=FILE]\n"
      "          [--min-delta=R] [--mad-factor=K] [--min-abs-delta=S]\n"
      "          [--self-test-slowdown=X]\n"
      "       %s --trend=FILE.html [--archive-dir=DIR]\n"
      "       %s --validate=FILE [--schema=SCHEMA]   (schema inferred "
      "from the doc's id when omitted)\n"
      "       %s --table[=ID,...]\n"
      "       %s --list\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  DPGEN_CHECK(in.good(), cat("cannot open '", path, "'"));
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

obs::BenchDoc load_doc(const std::string& path) {
  return obs::parse_bench_doc(*json::parse(read_file(path)));
}

std::string baseline_path_for(const Options& opt,
                              const obs::RunMeta& meta) {
  if (!opt.baseline_path.empty()) return opt.baseline_path;
  return cat(opt.archive_dir, "/baseline-", meta.fingerprint, ".json");
}

int run_validate(const Options& opt) {
  json::ValuePtr doc = json::parse(read_file(opt.validate_path));
  std::string schema_path = opt.schema_path;
  if (schema_path.empty()) {
    // No --schema: resolve from the document's own id through the shared
    // registry (support/json_schema.hpp), same as dpgen-analyze.
    const std::string id =
        doc->has("schema") ? doc->at("schema").as_string() : "";
    const std::string file = json::schema_file_for(id);
    if (file.empty()) {
      std::fprintf(stderr,
                   "dpgen-bench: document schema id '%s' not in the "
                   "registry; pass --schema=FILE\n",
                   id.c_str());
      return 2;
    }
    schema_path = json::find_schema_file(file);
    if (schema_path.empty()) {
      std::fprintf(stderr,
                   "dpgen-bench: cannot locate %s (set DPGEN_SCHEMA_DIR "
                   "or run from the repo root)\n",
                   file.c_str());
      return 2;
    }
  }
  json::ValuePtr schema = json::parse(read_file(schema_path));
  std::vector<std::string> errors = json::validate(*schema, *doc);
  for (const std::string& e : errors)
    std::fprintf(stderr, "dpgen-bench: schema violation %s\n", e.c_str());
  if (errors.empty())
    std::printf("%s: valid (%s)\n", opt.validate_path.c_str(),
                schema_path.c_str());
  return errors.empty() ? 0 : 1;
}

int run_list() {
  const auto& reg = obs::BenchRegistry::instance();
  for (const std::string& name : reg.select(""))
    std::printf("%s\n", name.c_str());
  for (const auto& [id, print] : reg.tables())
    std::printf("table %s\n", id.c_str());
  return 0;
}

/// Prints the tables named in `ids` (all of them when empty); an unknown
/// ID prints usage before any table runs.
int run_tables(const std::string& ids, const char* argv0) {
  const auto& tables = obs::BenchRegistry::instance().tables();
  std::vector<std::string> names;
  if (ids.empty()) {
    for (const auto& [id, print] : tables) names.push_back(id);
  } else {
    names = split(ids, ",");
  }
  for (const std::string& id : names) {
    if (!tables.count(id)) {
      std::fprintf(stderr, "dpgen-bench: unknown table '%s'\n", id.c_str());
      return usage(argv0);
    }
  }
  for (const std::string& id : names) {
    tables.at(id)();
    std::fflush(stdout);
  }
  return 0;
}

obs::BenchDoc run_selected(const Options& opt) {
  auto& reg = obs::BenchRegistry::instance();
  std::vector<std::string> names = reg.select(opt.filter);
  DPGEN_CHECK(!names.empty(),
              cat("no registered bench matches filter '", opt.filter, "'"));
  obs::BenchDoc doc;
  doc.meta = obs::collect_run_meta(opt.trials);
  std::printf("%-36s %-7s %-5s %-12s %-12s %-12s\n", "bench", "trials",
              "kept", "median_s", "mad_s", "min_s");
  for (const std::string& name : names) {
    const obs::BenchEntry* entry = reg.find(name);
    obs::BenchRecord rec = obs::run_bench(*entry, opt.trials, opt.warmup,
                                          opt.self_test_slowdown);
    std::printf("%-36s %-7d %-5d %-12.5f %-12.5f %-12.5f\n",
                rec.name.c_str(), rec.stats.trials, rec.stats.kept,
                rec.stats.median_s, rec.stats.mad_s, rec.stats.min_s);
    std::fflush(stdout);
    doc.records.push_back(std::move(rec));
  }
  return doc;
}

int run_trend(const Options& opt) {
  const obs::RunMeta here = obs::collect_run_meta(0);
  std::vector<obs::BenchDoc> docs;
  if (fs::is_directory(opt.archive_dir)) {
    for (const auto& e : fs::directory_iterator(opt.archive_dir)) {
      if (e.path().extension() != ".json") continue;
      try {
        obs::BenchDoc d = load_doc(e.path().string());
        if (d.meta.fingerprint == here.fingerprint)
          docs.push_back(std::move(d));
      } catch (const std::exception&) {
        // Not a bench document (e.g. a legacy hotpath archive); skip.
      }
    }
  }
  if (docs.empty()) {
    std::fprintf(stderr,
                 "dpgen-bench: no archived runs for fingerprint %s under "
                 "'%s' — run with --archive or --save-baseline first\n",
                 here.fingerprint.c_str(), opt.archive_dir.c_str());
    return 1;
  }
  std::sort(docs.begin(), docs.end(),
            [](const obs::BenchDoc& a, const obs::BenchDoc& b) {
              return a.meta.timestamp < b.meta.timestamp;
            });

  // One chart per bench family (the prefix before '/'), one polyline per
  // bench, one x position per archived run.
  const double kGap = std::nan("");
  std::map<std::string, std::map<std::string, std::vector<double>>> families;
  for (std::size_t di = 0; di < docs.size(); ++di) {
    for (const obs::BenchRecord& r : docs[di].records) {
      auto slash = r.name.find('/');
      std::string family =
          slash == std::string::npos ? r.name : r.name.substr(0, slash);
      auto& series = families[family][r.name];
      series.resize(docs.size(), kGap);
      series[di] = r.stats.median_s;
    }
  }

  std::string html = cat(
      "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>"
      "dpgen bench trend</title></head>\n<body style=\"font-family:"
      "sans-serif\">\n<h1>dpgen bench trend</h1>\n<p>machine: ",
      here.machine, " (fingerprint ", here.fingerprint, "), ", docs.size(),
      " archived runs</p>\n<ol>\n");
  for (const obs::BenchDoc& d : docs)
    html += cat("<li>", d.meta.git_sha, " @ ", d.meta.timestamp, "</li>\n");
  html += "</ol>\n";
  // Axis ticks + legend: x positions are commits (short SHAs), y is
  // auto-scaled seconds with labelled gridlines.
  sim::SeriesSvgOptions svg_opt;
  for (const obs::BenchDoc& d : docs)
    svg_opt.x_labels.push_back(d.meta.git_sha.substr(0, 8));
  svg_opt.y_ticks = 4;
  svg_opt.legend = true;
  for (const auto& [family, benches] : families) {
    std::vector<sim::Series> series;
    for (const auto& [name, y] : benches) {
      sim::Series s;
      s.label = name;
      s.y = y;
      s.y.resize(docs.size(), kGap);
      series.push_back(std::move(s));
    }
    html += cat("<h2>", family, "</h2>\n",
                sim::series_svg(series, cat(family, " median seconds"),
                                svg_opt));
  }
  html += "</body></html>\n";

  std::ofstream out(opt.trend_path);
  DPGEN_CHECK(out.good(), cat("cannot open '", opt.trend_path, "'"));
  out << html;
  DPGEN_CHECK(out.good(), cat("error writing '", opt.trend_path, "'"));
  std::printf("wrote %s (%zu runs, %zu families)\n", opt.trend_path.c_str(),
              docs.size(), families.size());
  return 0;
}

int run_gate(const Options& opt, const obs::BenchDoc& run) {
  const std::string base_path = baseline_path_for(opt, run.meta);
  if (opt.baseline_path.empty() && !fs::exists(base_path)) {
    // Auto-baseline: first gated run on this machine becomes the baseline.
    fs::create_directories(opt.archive_dir);
    obs::write_bench_json(base_path, run);
    std::printf("perf gate: no baseline for this machine yet — "
                "established %s\n", base_path.c_str());
    return 0;
  }
  obs::BenchDoc baseline = load_doc(base_path);
  obs::GateOptions gopt;
  gopt.min_rel_delta = opt.min_delta;
  gopt.mad_factor = opt.mad_factor;
  gopt.min_abs_delta_s = opt.min_abs_delta;
  obs::GateResult result = obs::gate(baseline, run, gopt);
  if (!result.fingerprint_match) {
    std::printf("perf gate: skipped — baseline %s is from a different "
                "machine (%s, this machine %s)\n", base_path.c_str(),
                baseline.meta.fingerprint.c_str(),
                run.meta.fingerprint.c_str());
    return 0;
  }
  std::fputs(obs::gate_text(result).c_str(), stdout);
  if (!opt.gate_json_path.empty()) {
    std::ofstream out(opt.gate_json_path);
    DPGEN_CHECK(out.good(), cat("cannot open '", opt.gate_json_path, "'"));
    out << obs::gate_json(result) << "\n";
  }
  return result.regressions > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* prefix) -> const char* {
        return starts_with(arg, prefix) ? arg.c_str() + std::strlen(prefix)
                                        : nullptr;
      };
      if (arg == "--list") opt.list = true;
      else if (arg == "--table") opt.table = "";
      else if (arg == "--save-baseline") opt.save_baseline = true;
      else if (arg == "--archive") opt.archive = true;
      else if (arg == "--gate") opt.gate = true;
      else if (const char* v = value("--table=")) opt.table = v;
      else if (const char* v = value("--filter=")) opt.filter = v;
      else if (const char* v = value("--trials="))
        opt.trials = static_cast<int>(parse_int(v, "--trials", 1, INT_MAX));
      else if (const char* v = value("--warmup="))
        opt.warmup = static_cast<int>(parse_int(v, "--warmup", 0, INT_MAX));
      else if (const char* v = value("--json=")) opt.json_path = v;
      else if (const char* v = value("--baseline=")) opt.baseline_path = v;
      else if (const char* v = value("--archive-dir=")) opt.archive_dir = v;
      else if (const char* v = value("--gate-json=")) opt.gate_json_path = v;
      else if (const char* v = value("--min-delta="))
        opt.min_delta = parse_double(v, "--min-delta");
      else if (const char* v = value("--mad-factor="))
        opt.mad_factor = parse_double(v, "--mad-factor");
      else if (const char* v = value("--min-abs-delta="))
        opt.min_abs_delta = parse_double(v, "--min-abs-delta");
      else if (const char* v = value("--trend=")) opt.trend_path = v;
      else if (const char* v = value("--validate=")) opt.validate_path = v;
      else if (const char* v = value("--schema=")) opt.schema_path = v;
      else if (const char* v = value("--self-test-slowdown="))
        opt.self_test_slowdown = parse_double(v, "--self-test-slowdown");
      else return usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "dpgen-bench: error: %s\n", e.what());
    return 2;
  }
  if (opt.self_test_slowdown <= 0.0) return usage(argv[0]);

  try {
    if (opt.list) return run_list();
    if (opt.table) return run_tables(*opt.table, argv[0]);
    if (!opt.validate_path.empty()) return run_validate(opt);
    if (!opt.trend_path.empty()) return run_trend(opt);

    obs::BenchDoc doc = run_selected(opt);
    if (!opt.json_path.empty()) obs::write_bench_json(opt.json_path, doc);
    if (opt.archive) {
      fs::create_directories(opt.archive_dir);
      obs::write_bench_json(cat(opt.archive_dir, "/run-",
                                doc.meta.fingerprint, "-",
                                doc.meta.timestamp, ".json"),
                            doc);
    }
    if (opt.save_baseline) {
      fs::create_directories(opt.archive_dir);
      const std::string path =
          cat(opt.archive_dir, "/baseline-", doc.meta.fingerprint, ".json");
      obs::write_bench_json(path, doc);
      std::printf("saved baseline %s\n", path.c_str());
    }
    if (opt.gate) return run_gate(opt, doc);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpgen-bench: %s\n", e.what());
    return 1;
  }
}
