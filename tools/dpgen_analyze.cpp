// dpgen-analyze: turn a recorded run into an attributed performance report.
//
// Three input paths, one output format (schema dpgen.report.v1, see
// tools/report_schema.json and docs/observability.md):
//
//   dpgen-analyze --problem=lcs --params=96,96 --ranks=2 --threads=2
//       runs the bundled problem through the engine with tracing on and
//       reports the measured run (writes the JSON report, prints the text
//       report to stdout).
//
//   dpgen-analyze --problem=lcs --params=96,96 --sim --nodes=4 --cores=4
//       reports the cluster simulator's predicted schedule for the same
//       problem instead of a measured run.
//
//   dpgen-analyze --trace=run_trace.json [--problem=... --params=...]
//       re-ingests a Chrome trace exported by --trace= / trace_json_path.
//       Naming the problem restores the tile-dependency offsets and the
//       Ehrhart baseline; without it the critical path degenerates and the
//       load-balance audit shows measured shares only.  Per-peer counters
//       are not part of a trace, so the comm matrix is empty here.
//
//   dpgen-analyze --validate=report.json --schema=tools/report_schema.json
//       validates a report against the schema (exit 1 on violations).
//
//   dpgen-analyze --diff old.json new.json
//       deltas two dpgen.report.v1 reports (phase buckets along the
//       critical path, path length, comm totals, measured imbalance) —
//       the before/after view of an optimisation.  Text to stdout; pass
//       --report=FILE for the dpgen.reportdiff.v1 JSON as well.
//
//   dpgen-analyze --events=FILE [--schema=tools/events_schema.json]
//                 [--report=report.json]
//       summarizes a live dpgen.events.v1 JSONL log (heartbeats,
//       stragglers, stall warnings).  With --schema every line is
//       validated; with --report the final heartbeat totals are
//       cross-checked against the post-hoc dpgen.report.v1 (per-rank
//       executed tiles and total bytes/messages must conserve between the
//       live and post-hoc views).  Exit 1 on any violation or mismatch.

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "minimpi/faults.hpp"
#include "obs/analysis.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/json_schema.hpp"
#include "support/str.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace {

using namespace dpgen;

struct Options {
  std::string problem;
  IntVec params;
  int ranks = 2;
  int threads = 2;
  bool sim = false;
  int nodes = 4;
  int cores = 4;
  std::string report_path = "dpgen_report.json";
  bool report_path_set = false;
  std::string trace_out;
  std::string trace_in;
  std::string validate_path;
  std::string schema_path;
  std::string events_in;
  std::string diff_old;
  std::string diff_new;
  std::string profile_in;    ///< --profile=: analyze a dpgen.profile.v1 doc
  std::string profile_out;   ///< --profile-out=: profile the engine/sim run
  double profile_hz = 97.0;
  bool profile_cputime = false;
  std::string flame_out;     ///< --flame=: write the HTML icicle view
  std::string msgtrace_in;   ///< --msgtrace=: check a dpgen.msgtrace.v1 doc
  std::string msgtrace_out;  ///< --msgtrace-out=: msgtrace the engine/sim run
  std::string waterfall_out; ///< --waterfall=: per-message HTML view
  std::string faults;        ///< --faults=: run the engine under a fault plan
  bool list = false;
};

/// One bundled problem the CLI can run: factory + default parameters.
/// Sequence problems synthesize deterministic random DNA of the requested
/// lengths, so `--params` stays a plain list of integers everywhere.
struct Entry {
  const char* name;
  const char* params_help;
  IntVec defaults;
  problems::Problem (*make)(const IntVec& params);
};

std::vector<std::string> dna(const IntVec& lengths) {
  std::vector<std::string> seqs;
  for (std::size_t i = 0; i < lengths.size(); ++i)
    seqs.push_back(problems::random_dna(
        static_cast<std::size_t>(lengths[i]), static_cast<unsigned>(i + 1)));
  return seqs;
}

const Entry kEntries[] = {
    {"bandit2", "N", {12},
     [](const IntVec&) { return problems::bandit2(); }},
    {"bandit3", "N", {6},
     [](const IntVec&) { return problems::bandit3(); }},
    {"bandit2_delay", "N", {8},
     [](const IntVec&) { return problems::bandit2_delay(); }},
    {"lcs", "len1,len2[,len3]", {96, 96},
     [](const IntVec& p) { return problems::lcs(dna(p)); }},
    {"edit_distance", "len1,len2", {96, 96},
     [](const IntVec& p) {
       auto s = dna(p);
       return problems::edit_distance(s[0], s[1]);
     }},
    {"smith_waterman", "len1,len2", {96, 96},
     [](const IntVec& p) {
       auto s = dna(p);
       return problems::smith_waterman(s[0], s[1]);
     }},
    {"align_affine", "len1,len2", {64, 64},
     [](const IntVec& p) {
       auto s = dna(p);
       return problems::align_affine(s[0], s[1]);
     }},
    {"msa", "len1,len2[,len3]", {32, 32},
     [](const IntVec& p) { return problems::msa(dna(p)); }},
    {"coin_change", "C", {256},
     [](const IntVec&) { return problems::coin_change({1, 5, 9}); }},
    {"seam_carving", "T,S", {64, 64},
     [](const IntVec&) { return problems::seam_carving(); }},
};

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : kEntries)
    if (name == e.name) return &e;
  return nullptr;
}

IntVec parse_csv(const std::string& text) {
  IntVec out;
  for (const std::string& part : split(text, ","))
    out.push_back(parse_int(part, "--params"));
  return out;
}

/// A count flag (--ranks, --threads, --nodes, --cores), parsed strictly
/// with the launcher's lower bound of 1.
int count_flag(const char* v, const char* flag) {
  return static_cast<int>(parse_int(v, flag, 1, INT_MAX));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "dpgen-analyze: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --problem=NAME [--params=a,b,..] [--ranks=R] [--threads=T]\n"
      "          [--report=FILE] [--trace-out=FILE] [--profile-out=FILE]\n"
      "          [--profile-hz=HZ] [--profile-cputime]\n"
      "       %s --problem=NAME --sim [--nodes=N] [--cores=C] "
      "[--report=FILE] [--profile-out=FILE]\n"
      "       %s --trace=FILE [--problem=NAME --params=..] [--report=FILE]\n"
      "       %s --validate=DOC [--schema=SCHEMA]   (schema inferred from "
      "the doc's id when omitted)\n"
      "       %s --diff OLD.json NEW.json [--report=FILE]\n"
      "       %s --events=FILE [--schema=SCHEMA] [--report=REPORT]\n"
      "       %s --profile=FILE [--report=REPORT] [--flame=FILE]\n"
      "       %s --msgtrace=FILE [--waterfall=FILE]   (conservation check; "
      "exit 1 on unexplained loss)\n"
      "       %s --list\n"
      "engine runs also accept [--msgtrace-out=FILE] [--faults=PLAN]; sim "
      "runs accept [--msgtrace-out=FILE]\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// "(a, b, c)" -> {a, b, c} (the exporter's args.tile rendering).
IntVec parse_tile(const std::string& text) {
  IntVec out;
  std::string body = text;
  if (!body.empty() && body.front() == '(') body = body.substr(1);
  if (!body.empty() && body.back() == ')') body.pop_back();
  if (trim(body).empty()) return out;
  for (const std::string& part : split(body, ","))
    out.push_back(std::atoll(trim(part).c_str()));
  return out;
}

/// Re-ingests a Chrome trace-event document into analyzer spans.
void load_trace(const std::string& path, obs::AnalysisInput* in) {
  json::ValuePtr doc = json::parse(read_file(path));
  if (doc->has("metadata") && doc->at("metadata").has("spans_dropped"))
    in->spans_dropped = static_cast<std::uint64_t>(
        doc->at("metadata").at("spans_dropped").as_number());
  for (const json::ValuePtr& ev : doc->at("traceEvents").as_array()) {
    if (!ev->has("ph") || ev->at("ph").as_string() != "X") continue;
    obs::Phase phase;
    if (!ev->has("args") || !ev->at("args").has("phase") ||
        !obs::phase_from_name(ev->at("args").at("phase").as_string(),
                              &phase))
      continue;
    obs::Span s;
    const double ts_us = ev->at("ts").as_number();
    const double dur_us = ev->at("dur").as_number();
    s.start_ns = static_cast<std::int64_t>(ts_us * 1e3);
    s.end_ns = static_cast<std::int64_t>((ts_us + dur_us) * 1e3);
    s.rank = static_cast<std::int16_t>(ev->at("pid").as_number());
    s.thread = static_cast<std::int16_t>(ev->at("tid").as_number());
    s.phase = phase;
    if (ev->at("args").has("tile")) {
      IntVec tile = parse_tile(ev->at("args").at("tile").as_string());
      s.ncoord = static_cast<std::uint8_t>(
          std::min<std::size_t>(tile.size(), obs::kMaxSpanDims));
      for (std::size_t k = 0; k < s.ncoord; ++k)
        s.coord[k] = static_cast<std::int32_t>(tile[k]);
    }
    in->spans.push_back(s);
  }
}

/// Validates a document through the schema registry: with --schema the
/// given file is used; without it the document's own `schema` field picks
/// the checked-in schema (json::kSchemaRegistry), so every v1 document —
/// report, bench, events, checkpoint, profile — validates through this one
/// path.  dpgen.events.v1 files are JSONL: each line validates separately.
int run_validate(const Options& opt) {
  const std::string text = read_file(opt.validate_path);
  // JSONL detection via the first line: events logs are the only multi-
  // document files the tools emit.  Single documents may still span lines
  // (reports pretty-break between sections), so a first line that is not
  // itself a complete JSON value means "one document" — parse the whole
  // text instead.
  const std::string first_line = text.substr(0, text.find('\n'));
  json::ValuePtr first;
  try {
    first = json::parse(first_line.empty() ? text : first_line);
  } catch (const std::exception&) {
    first = json::parse(text);
  }
  const std::string doc_id =
      first->is(json::Kind::kObject) && first->has("schema")
          ? first->at("schema").as_string()
          : "";

  std::string schema_path = opt.schema_path;
  if (schema_path.empty()) {
    const std::string file = json::schema_file_for(doc_id);
    if (file.empty()) {
      std::fprintf(stderr,
                   "dpgen-analyze: '%s' has unknown schema id '%s' and no "
                   "--schema=FILE was given\n",
                   opt.validate_path.c_str(), doc_id.c_str());
      return 2;
    }
    schema_path = json::find_schema_file(file);
    if (schema_path.empty()) {
      std::fprintf(stderr,
                   "dpgen-analyze: cannot locate %s (set DPGEN_SCHEMA_DIR "
                   "or run from the repo root)\n",
                   file.c_str());
      return 2;
    }
  }
  json::ValuePtr schema = json::parse(read_file(schema_path));

  std::vector<std::string> errors;
  if (doc_id == "dpgen.events.v1") {
    long long lineno = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      ++lineno;
      if (trim(line).empty()) continue;
      for (const std::string& e : json::validate(*schema, *json::parse(line)))
        errors.push_back(cat("line ", lineno, e));
    }
  } else {
    errors = json::validate(*schema, *json::parse(text));
  }
  for (const std::string& e : errors)
    std::fprintf(stderr, "dpgen-analyze: schema violation %s\n", e.c_str());
  if (errors.empty())
    std::printf("%s: valid (%s)\n", opt.validate_path.c_str(),
                schema_path.c_str());
  return errors.empty() ? 0 : 1;
}

int run_diff(const Options& opt) {
  json::ValuePtr old_report = json::parse(read_file(opt.diff_old));
  json::ValuePtr new_report = json::parse(read_file(opt.diff_new));
  obs::ReportDelta delta = obs::diff_reports(*old_report, *new_report);
  std::fputs(obs::diff_text(delta).c_str(), stdout);
  if (opt.report_path_set) {
    std::ofstream out(opt.report_path);
    DPGEN_CHECK(out.good(),
                cat("cannot open diff output '", opt.report_path, "'"));
    out << obs::diff_json(delta);
    std::printf("\ndiff written to %s\n", opt.report_path.c_str());
  }
  return 0;
}

int run_trace(const Options& opt) {
  obs::AnalysisInput in;
  in.source = "trace";
  load_trace(opt.trace_in, &in);
  if (!opt.problem.empty()) {
    const Entry* entry = find_entry(opt.problem);
    if (!entry) {
      std::fprintf(stderr, "dpgen-analyze: unknown problem '%s'\n",
                   opt.problem.c_str());
      return 2;
    }
    IntVec params = in.params = !opt.params.empty() ? opt.params
                                                    : entry->defaults;
    problems::Problem problem = entry->make(params);
    tiling::TilingModel model(problem.spec);
    in.problem = entry->name;
    for (const auto& e : model.edges()) in.edge_offsets.push_back(e.offset);
    int nranks = 0;
    for (const obs::Span& s : in.spans)
      nranks = std::max(nranks, static_cast<int>(s.rank) + 1);
    if (nranks > 0) {
      in.nranks = nranks;
      tiling::LoadBalancer balancer(model, params, nranks);
      for (int r = 0; r < nranks; ++r)
        in.predicted_work.push_back(
            static_cast<double>(balancer.owned_work(r)));
    }
  } else {
    std::fprintf(stderr,
                 "dpgen-analyze: note: no --problem given; dependency "
                 "offsets and the Ehrhart baseline are unavailable\n");
  }
  std::fprintf(stderr,
               "dpgen-analyze: note: per-peer comm counters are not part "
               "of a trace; the comm matrix is empty\n");
  obs::AnalysisReport report = obs::analyze(in);
  obs::write_report_json(opt.report_path, report);
  std::fputs(obs::report_text(report).c_str(), stdout);
  std::printf("\nreport written to %s\n", opt.report_path.c_str());
  return 0;
}

/// Live-vs-post-hoc conservation check: summarizes a dpgen.events.v1 JSONL
/// log, optionally schema-validating every line, and cross-checks the final
/// per-rank heartbeat totals against a dpgen.report.v1 document.
int run_events(const Options& opt) {
  std::ifstream in(opt.events_in);
  if (!in.good()) {
    std::fprintf(stderr, "dpgen-analyze: cannot read '%s'\n",
                 opt.events_in.c_str());
    return 2;
  }
  json::ValuePtr schema;
  if (!opt.schema_path.empty())
    schema = json::parse(read_file(opt.schema_path));

  long long lines = 0, heartbeats = 0, stragglers = 0, stall_warnings = 0;
  int nranks = 0;
  bool saw_run_start = false, saw_run_end = false;
  std::vector<json::ValuePtr> last_heartbeat;  // per rank
  std::vector<int> straggler_ranks;
  int violations = 0;

  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    ++lines;
    json::ValuePtr ev;
    try {
      ev = json::parse(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dpgen-analyze: line %lld: bad JSON: %s\n",
                   lines, e.what());
      ++violations;
      continue;
    }
    if (schema) {
      for (const std::string& err : json::validate(*schema, *ev)) {
        std::fprintf(stderr,
                     "dpgen-analyze: line %lld: schema violation %s\n",
                     lines, err.c_str());
        ++violations;
      }
    }
    const std::string kind =
        ev->has("event") ? ev->at("event").as_string() : "";
    if (kind == "run_start") {
      saw_run_start = true;
      if (ev->has("nranks"))
        nranks = static_cast<int>(ev->at("nranks").as_number());
      last_heartbeat.resize(static_cast<std::size_t>(std::max(nranks, 0)));
    } else if (kind == "heartbeat") {
      ++heartbeats;
      const int r = ev->has("rank")
                        ? static_cast<int>(ev->at("rank").as_number())
                        : -1;
      if (r >= 0) {
        if (r >= static_cast<int>(last_heartbeat.size()))
          last_heartbeat.resize(static_cast<std::size_t>(r) + 1);
        last_heartbeat[static_cast<std::size_t>(r)] = std::move(ev);
      }
    } else if (kind == "straggler") {
      ++stragglers;
      if (ev->has("rank"))
        straggler_ranks.push_back(
            static_cast<int>(ev->at("rank").as_number()));
    } else if (kind == "stall_warning") {
      ++stall_warnings;
    } else if (kind == "run_end") {
      saw_run_end = true;
    }
  }
  if (!saw_run_start || !saw_run_end) {
    std::fprintf(stderr,
                 "dpgen-analyze: events log is %s (run_start %s, run_end "
                 "%s)\n",
                 lines == 0 ? "empty" : "truncated",
                 saw_run_start ? "present" : "missing",
                 saw_run_end ? "present" : "missing");
    ++violations;
  }

  auto mismatch = [&](const std::string& what) {
    std::fprintf(stderr, "dpgen-analyze: conservation mismatch: %s\n",
                 what.c_str());
    ++violations;
  };
  if (opt.report_path_set) {
    json::ValuePtr report = json::parse(read_file(opt.report_path));
    const int report_ranks =
        report->has("nranks")
            ? static_cast<int>(report->at("nranks").as_number())
            : 0;
    if (report_ranks != nranks)
      mismatch(cat("events nranks ", nranks, " vs report nranks ",
                   report_ranks));
    long long live_bytes = 0, live_messages = 0;
    if (report->has("load_balance") &&
        report->at("load_balance").has("ranks")) {
      for (const json::ValuePtr& audit :
           report->at("load_balance").at("ranks").as_array()) {
        const int r = static_cast<int>(audit->at("rank").as_number());
        const long long tiles =
            static_cast<long long>(audit->at("tiles").as_number());
        if (r < 0 || r >= static_cast<int>(last_heartbeat.size()) ||
            !last_heartbeat[static_cast<std::size_t>(r)]) {
          mismatch(cat("report rank ", r, " has no heartbeat"));
          continue;
        }
        const json::Value& hb = *last_heartbeat[static_cast<std::size_t>(r)];
        const long long executed =
            static_cast<long long>(hb.at("executed").as_number());
        if (executed != tiles)
          mismatch(cat("rank ", r, ": live executed ", executed,
                       " vs post-hoc tiles ", tiles));
        live_bytes += static_cast<long long>(hb.at("bytes_sent").as_number());
        live_messages +=
            static_cast<long long>(hb.at("messages_sent").as_number());
      }
    }
    if (report->has("comm_matrix")) {
      const json::Value& cm = report->at("comm_matrix");
      const long long total_bytes =
          static_cast<long long>(cm.at("total_bytes").as_number());
      const long long total_messages =
          static_cast<long long>(cm.at("total_messages").as_number());
      if (live_bytes != total_bytes)
        mismatch(cat("live bytes_sent total ", live_bytes,
                     " vs post-hoc total_bytes ", total_bytes));
      if (live_messages != total_messages)
        mismatch(cat("live messages_sent total ", live_messages,
                     " vs post-hoc total_messages ", total_messages));
    }
  }

  std::string flagged;
  for (std::size_t i = 0; i < straggler_ranks.size(); ++i)
    flagged += cat(i ? "," : " flagged_ranks=", straggler_ranks[i]);
  std::printf(
      "events=%lld heartbeats=%lld stragglers=%lld stall_warnings=%lld "
      "ranks=%d%s\n",
      lines, heartbeats, stragglers, stall_warnings, nranks,
      flagged.c_str());
  if (violations == 0 && opt.report_path_set)
    std::printf("conservation check passed (%s vs %s)\n",
                opt.events_in.c_str(), opt.report_path.c_str());
  return violations == 0 ? 0 : 1;
}

/// Analyzes a dpgen.profile.v1 document: prints the phase self-time
/// histogram and the per-family cost table; with --report= cross-checks the
/// sample attribution against the span-attribution report (exit 1 when a
/// major phase disagrees by more than 15 percentage points — an attribution
/// gap one of the two views is missing); with --flame= writes the
/// self-contained HTML icicle view.
int run_profile(const Options& opt) {
  obs::ProfileDoc prof =
      obs::parse_profile_doc(*json::parse(read_file(opt.profile_in)));

  std::printf(
      "profile: problem=%s source=%s counters=%s sampler=%s hz=%.0f "
      "ranks=%d\nsamples: %lld total, %lld untraced, %lld dropped\n",
      prof.problem.c_str(), prof.source.c_str(), prof.counters.c_str(),
      prof.sampler.c_str(), prof.hz, prof.nranks, prof.samples_total,
      prof.samples_untraced, prof.samples_dropped);

  long long attributed = 0;
  for (int p = 0; p < obs::kProfilePhases; ++p)
    attributed += prof.phase_samples[static_cast<std::size_t>(p)];
  std::printf("\nphase self-time (samples):\n");
  for (int p = 0; p < obs::kProfilePhases; ++p) {
    const long long n = prof.phase_samples[static_cast<std::size_t>(p)];
    if (n == 0) continue;
    std::printf("  %-14s %6.1f%%  (%lld)\n",
                obs::phase_name(static_cast<obs::Phase>(p)),
                attributed > 0 ? 100.0 * static_cast<double>(n) /
                                     static_cast<double>(attributed)
                               : 0.0,
                n);
  }

  // Cost table: measured cost per cell against the Ehrhart prediction.
  // In cputime mode the "cycles" channel counts thread CPU ns, so the
  // column is labelled accordingly and IPC is omitted (no instructions).
  const bool perf = prof.counters == "perf";
  std::printf("\ncost model (%s):\n", prof.counters.c_str());
  std::printf("  %-16s %12s %12s %10s %8s %10s\n", "family", "cells",
              "predicted", perf ? "cyc/cell" : "ns/cell", "ipc",
              "llc/cell");
  for (const obs::ProfileFamily& f : prof.families) {
    std::printf("  %-16s %12lld %12.0f %10.2f %8s %10.4f\n",
                f.name.c_str(), f.cells, f.predicted_cells,
                f.cycles_per_cell(),
                f.ipc() > 0 ? cat(f.ipc()).substr(0, 6).c_str() : "-",
                f.misses_per_cell());
  }

  if (!opt.flame_out.empty()) {
    std::ofstream out(opt.flame_out);
    DPGEN_CHECK(out.good(),
                cat("cannot open flame output '", opt.flame_out, "'"));
    out << obs::profile_flame_html(prof);
    std::printf("\nflame view written to %s\n", opt.flame_out.c_str());
  }

  int violations = 0;
  if (opt.report_path_set) {
    // Cross-check: the profiler's sample shares against the spans'
    // attribution.  The two measure the same run through independent
    // channels (statistical samples vs exact span brackets), so a major
    // phase (>= 10% of report time) drifting more than 15 percentage
    // points means one view has an attribution gap.  Span phases the
    // report buckets as "other" (setup work) map load_balance / init_scan
    // / gather; "compute" maps tile_execute.
    json::ValuePtr report = json::parse(read_file(opt.report_path));
    std::map<std::string, double> rep_seconds;
    double rep_total = 0.0;
    DPGEN_CHECK(report->has("load_balance") &&
                    report->at("load_balance").has("ranks"),
                "report has no load_balance.ranks for the cross-check");
    for (const json::ValuePtr& rank_audit :
         report->at("load_balance").at("ranks").as_array()) {
      const json::Value& ph = rank_audit->at("phases_seconds");
      for (const auto& [key, val] : ph.fields) {
        rep_seconds[key] += val->as_number();
        rep_total += val->as_number();
      }
    }
    std::map<std::string, long long> prof_samples;
    for (int p = 0; p < obs::kProfilePhases; ++p) {
      const long long n = prof.phase_samples[static_cast<std::size_t>(p)];
      const std::string name =
          obs::phase_name(static_cast<obs::Phase>(p));
      if (name == "tile_execute")
        prof_samples["compute"] += n;
      else if (name == "load_balance" || name == "init_scan" ||
               name == "gather")
        prof_samples["other"] += n;
      else
        prof_samples[name] += n;
    }
    // Two buckets are structurally unobservable by the sampler and are
    // excluded from both sides before computing shares:
    //  - "idle": the sampling timers run on wall time and a descheduled
    //    thread cannot take a signal, so on an oversubscribed host idle
    //    (mostly descheduled) time is systematically under-sampled.
    //  - "other" (load_balance / init_scan / gather): setup phases that
    //    run on the driver thread before the per-worker samplers attach.
    // Both rows are still printed for context but never gated.
    const double rep_busy =
        rep_total - rep_seconds["idle"] - rep_seconds["other"];
    const double prof_busy = static_cast<double>(
        attributed - prof_samples["idle"] - prof_samples["other"]);
    std::printf("\nattribution cross-check (profile vs %s, busy-time "
                "shares):\n",
                opt.report_path.c_str());
    for (const auto& [key, secs] : rep_seconds) {
      if (key == "idle" || key == "other") {
        std::printf("  %-14s report %5.1f%%  samples %5.1f%%  "
                    "(unobservable, not gated)\n",
                    key.c_str(),
                    rep_total > 0 ? 100.0 * secs / rep_total : 0.0,
                    attributed > 0
                        ? 100.0 * static_cast<double>(prof_samples[key]) /
                              static_cast<double>(attributed)
                        : 0.0);
        continue;
      }
      const double rep_share = rep_busy > 0 ? secs / rep_busy : 0.0;
      const double prof_share =
          prof_busy > 0
              ? static_cast<double>(prof_samples[key]) / prof_busy
              : 0.0;
      const double diff = std::abs(prof_share - rep_share);
      const bool major = rep_share >= 0.10;
      const bool bad = major && diff > 0.15;
      std::printf("  %-14s report %5.1f%%  samples %5.1f%%  %s\n",
                  key.c_str(), 100.0 * rep_share, 100.0 * prof_share,
                  bad ? "MISMATCH" : (major ? "ok" : "minor"));
      if (bad) ++violations;
    }
    if (violations > 0)
      std::fprintf(stderr,
                   "dpgen-analyze: %d phase(s) drifted more than 15 "
                   "percentage points between samples and spans\n",
                   violations);
    else
      std::printf("  sample shares within 15pp of span attribution\n");
  }
  return violations == 0 ? 0 : 1;
}

long long inum(const json::Value& v, const char* key) {
  return v.has(key) ? static_cast<long long>(v.at(key).as_number()) : 0;
}

/// pack + sender_blocked + queue + unpack_wait + dispatch == end_to_end:
/// the decomposition's defining invariant (integer ns, exact).
bool queueing_sums(const json::Value& q) {
  return inum(q, "pack") + inum(q, "sender_blocked") + inum(q, "queue") +
             inum(q, "unpack_wait") + inum(q, "dispatch") ==
         inum(q, "end_to_end");
}

/// Self-contained per-message waterfall: one horizontal bar per record,
/// the five lifecycle segments colour-coded, time left to right.
std::string waterfall_html(const json::Value& doc) {
  static const struct {
    const char* stage;
    const char* from;
    const char* to;
    const char* color;
  } kStages[] = {
      {"pack", "pack_ns", "send_ns", "#4c78a8"},
      {"sender_blocked", "send_ns", "admit_ns", "#e45756"},
      {"queue", "admit_ns", "deliver_ns", "#f58518"},
      {"unpack_wait", "deliver_ns", "unpack_ns", "#72b7b2"},
      {"dispatch", "unpack_ns", "dispatch_ns", "#54a24b"},
  };
  constexpr std::size_t kMaxRows = 2000;
  constexpr double kPlotW = 960.0, kLabelW = 150.0, kRowH = 14.0;

  std::vector<const json::Value*> records;
  for (const json::ValuePtr& r : doc.at("records").as_array())
    records.push_back(r.get());
  std::sort(records.begin(), records.end(),
            [](const json::Value* a, const json::Value* b) {
              return inum(*a, "pack_ns") < inum(*b, "pack_ns");
            });
  const std::size_t rows = std::min(records.size(), kMaxRows);
  long long t0 = 0, t1 = 1;
  if (rows > 0) {
    t0 = inum(*records[0], "pack_ns");
    t1 = t0 + 1;
    for (std::size_t i = 0; i < rows; ++i)
      t1 = std::max(t1, inum(*records[i], "dispatch_ns"));
  }
  auto x_of = [&](long long ns) {
    return kLabelW + kPlotW * static_cast<double>(ns - t0) /
                         static_cast<double>(t1 - t0);
  };

  std::string out = cat(
      "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
      "<title>dpgen message waterfall</title>\n"
      "<style>body{font:13px sans-serif;margin:16px}"
      ".lg{display:inline-block;margin-right:14px}"
      ".sw{display:inline-block;width:11px;height:11px;margin-right:4px;"
      "vertical-align:-1px}"
      "text{font:10px monospace}</style></head>\n<body>\n"
      "<h1>dpgen message waterfall</h1>\n<p>problem: ",
      doc.has("problem") ? doc.at("problem").as_string() : "?",
      " &middot; messages: ", inum(doc, "messages"),
      records.size() > rows
          ? cat(" (showing the first ", rows, " by pack time)")
          : std::string(),
      "</p>\n<p>");
  for (const auto& st : kStages)
    out += cat("<span class=\"lg\"><span class=\"sw\" style=\"background:",
               st.color, "\"></span>", st.stage, "</span>");
  out += cat("</p>\n<svg width=\"", kLabelW + kPlotW + 20, "\" height=\"",
             (static_cast<double>(rows) + 2.0) * kRowH,
             "\" xmlns=\"http://www.w3.org/2000/svg\">\n");
  for (std::size_t i = 0; i < rows; ++i) {
    const json::Value& r = *records[i];
    const double y = (static_cast<double>(i) + 1.0) * kRowH;
    out += cat("<text x=\"0\" y=\"", y + 10, "\">", inum(r, "src"),
               "&#8594;", inum(r, "dst"), " #", inum(r, "seq"), "</text>\n");
    // Stamps are taken in lifecycle order on one clock; render with a
    // running clamp so a malformed record cannot produce negative widths.
    long long prev = inum(r, "pack_ns");
    for (const auto& st : kStages) {
      const long long lo = prev;
      const long long hi = std::max(lo, inum(r, st.to));
      prev = hi;
      if (hi == lo) continue;
      out += cat("<rect x=\"", x_of(lo), "\" y=\"", y + 2, "\" width=\"",
                 x_of(hi) - x_of(lo), "\" height=\"", kRowH - 4,
                 "\" fill=\"", st.color, "\"><title>", st.stage, " ",
                 hi - lo, " ns (edge ", inum(r, "edge"), ", ",
                 inum(r, "bytes"), " bytes)</title></rect>\n");
    }
  }
  out += "</svg>\n</body></html>\n";
  return out;
}

/// Conservation checker for a dpgen.msgtrace.v1 document: re-derives the
/// per-link and aggregate accounting from the links array, re-verifies the
/// queueing decomposition's sum invariant everywhere it appears, and exits
/// nonzero on unexplained message loss (gaps beyond the fault plan's
/// expected drops and the recorded ring overflow) or over-budget repeats.
int run_msgtrace(const Options& opt) {
  json::ValuePtr doc = json::parse(read_file(opt.msgtrace_in));
  if (!doc->has("schema") ||
      doc->at("schema").as_string() != "dpgen.msgtrace.v1") {
    std::fprintf(stderr,
                 "dpgen-analyze: '%s' is not a dpgen.msgtrace.v1 document\n",
                 opt.msgtrace_in.c_str());
    return 2;
  }
  int violations = 0;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "dpgen-analyze: msgtrace violation: %s\n",
                 what.c_str());
    ++violations;
  };

  long long sent = 0, delivered = 0, gaps = 0, repeats = 0;
  for (const json::ValuePtr& link : doc->at("links").as_array()) {
    const long long lsent = inum(*link, "sent");
    const long long ldel = inum(*link, "delivered");
    const long long lgaps = inum(*link, "gaps");
    const long long lrep = inum(*link, "repeats");
    const std::string name =
        cat("link ", inum(*link, "src"), "->", inum(*link, "dst"));
    if (lgaps != std::max(0LL, lsent - ldel))
      fail(cat(name, ": gaps ", lgaps, " != max(0, sent ", lsent,
               " - delivered ", ldel, ")"));
    if (lrep < 0 || ldel < 0 || lsent < 0)
      fail(cat(name, ": negative counter"));
    if (!queueing_sums(link->at("queueing_ns")))
      fail(cat(name, ": queueing buckets do not sum to end_to_end"));
    sent += lsent;
    delivered += ldel;
    gaps += lgaps;
    repeats += lrep;
  }
  if (!queueing_sums(doc->at("queueing_ns")))
    fail("aggregate queueing buckets do not sum to end_to_end");

  const json::Value& c = doc->at("conservation");
  if (inum(c, "total_sent") != sent)
    fail(cat("total_sent ", inum(c, "total_sent"), " != links sum ", sent));
  if (inum(c, "total_delivered") != delivered)
    fail(cat("total_delivered ", inum(c, "total_delivered"),
             " != links sum ", delivered));
  if (inum(c, "total_gaps") != gaps)
    fail(cat("total_gaps ", inum(c, "total_gaps"), " != links sum ", gaps));
  if (inum(c, "total_repeats") != repeats)
    fail(cat("total_repeats ", inum(c, "total_repeats"), " != links sum ",
             repeats));
  const long long explained = std::max(0LL, inum(*doc, "expected_drops")) +
                              inum(*doc, "records_dropped");
  const long long unexplained = std::max(0LL, gaps - explained);
  if (inum(c, "unexplained_loss") != unexplained)
    fail(cat("unexplained_loss ", inum(c, "unexplained_loss"),
             " != recomputed ", unexplained));
  const bool accounted =
      unexplained == 0 &&
      repeats <= std::max(0LL, inum(*doc, "expected_dups"));
  const bool doc_accounted = c.has("accounted") &&
                             c.at("accounted").is(json::Kind::kBool) &&
                             c.at("accounted").boolean;
  if (accounted != doc_accounted)
    fail(cat("accounted flag ", doc_accounted ? "true" : "false",
             " disagrees with recomputed ", accounted ? "true" : "false"));
  if (unexplained > 0)
    fail(cat(unexplained, " message(s) lost beyond the expected drops (",
             inum(*doc, "expected_drops"), ") and ring overflow (",
             inum(*doc, "records_dropped"), ")"));
  if (repeats > std::max(0LL, inum(*doc, "expected_dups")))
    fail(cat(repeats, " repeated delivery(ies) vs ",
             inum(*doc, "expected_dups"), " expected duplicates"));

  // Record-level re-check: when the record array is complete, the
  // aggregate decomposition must equal the per-record sum exactly.
  if (inum(*doc, "records_truncated") == 0) {
    long long e2e = 0;
    for (const json::ValuePtr& r : doc->at("records").as_array()) {
      long long prev = inum(*r, "pack_ns");
      for (const char* key : {"send_ns", "admit_ns", "deliver_ns",
                              "unpack_ns", "dispatch_ns"}) {
        const long long t = inum(*r, key);
        if (t > prev) e2e += t - prev;
        prev = std::max(prev, t);
      }
    }
    if (e2e != inum(doc->at("queueing_ns"), "end_to_end"))
      fail(cat("records sum to end_to_end ", e2e, " but the aggregate says ",
               inum(doc->at("queueing_ns"), "end_to_end")));
  }

  std::printf(
      "msgtrace: %lld records (%lld dropped), %lld sent / %lld delivered, "
      "gaps=%lld repeats=%lld expected_drops=%lld expected_dups=%lld "
      "table_duplicates=%lld unexplained=%lld\n",
      inum(*doc, "messages"), inum(*doc, "records_dropped"), sent, delivered,
      gaps, repeats, inum(*doc, "expected_drops"),
      inum(*doc, "expected_dups"), inum(*doc, "table_duplicates"),
      unexplained);

  if (!opt.waterfall_out.empty()) {
    std::ofstream out(opt.waterfall_out);
    DPGEN_CHECK(out.good(), cat("cannot open waterfall output '",
                                opt.waterfall_out, "'"));
    out << waterfall_html(*doc);
    std::printf("waterfall written to %s\n", opt.waterfall_out.c_str());
  }
  if (violations == 0)
    std::printf("conservation check passed (%s)\n", opt.msgtrace_in.c_str());
  return violations == 0 ? 0 : 1;
}

int run_problem(const Options& opt) {
  const Entry* entry = find_entry(opt.problem);
  if (!entry) {
    std::fprintf(stderr, "dpgen-analyze: unknown problem '%s'\n",
                 opt.problem.c_str());
    return 2;
  }
  IntVec params = !opt.params.empty() ? opt.params : entry->defaults;
  problems::Problem problem = entry->make(params);
  tiling::TilingModel model(problem.spec);

  if (opt.sim) {
    sim::ClusterConfig cfg;
    cfg.nodes = opt.nodes;
    cfg.cores_per_node = opt.cores;
    cfg.record_timeline = true;
    cfg.profile_path = opt.profile_out;
    cfg.profile_hz = opt.profile_hz;
    cfg.problem_name = entry->name;
    cfg.msgtrace_path = opt.msgtrace_out;
    sim::SimResult res = sim::simulate(model, params, cfg);
    obs::AnalysisReport report =
        obs::analyze(sim::analysis_input(res, model, params, cfg));
    obs::write_report_json(opt.report_path, report);
    std::fputs(obs::report_text(report).c_str(), stdout);
    std::printf("\nreport written to %s\n", opt.report_path.c_str());
    if (!opt.profile_out.empty())
      std::printf("synthetic profile written to %s\n",
                  opt.profile_out.c_str());
    if (!opt.msgtrace_out.empty() && opt.msgtrace_out != "-")
      std::printf("msgtrace written to %s\n", opt.msgtrace_out.c_str());
    return 0;
  }

  engine::EngineOptions eopt;
  eopt.ranks = opt.ranks;
  eopt.threads = opt.threads;
  eopt.report_json_path = opt.report_path;
  eopt.trace_json_path = opt.trace_out;
  eopt.profile_path = opt.profile_out;
  eopt.profile_hz = opt.profile_hz;
  eopt.profile_force_cputime = opt.profile_cputime;
  eopt.profile_problem = entry->name;
  eopt.msgtrace_json_path = opt.msgtrace_out;
  if (!opt.faults.empty()) {
    // Chaos leg: inject the plan on the first attempt and let the
    // checkpoint/restart path recover; the msgtrace document carries the
    // plan's drop/dup counts as expected gaps/repeats for --msgtrace.
    eopt.fault_plan = minimpi::FaultPlan::parse(opt.faults);
    eopt.fault_tolerant = true;
    eopt.recover_stall_seconds = 0.25;
  }
  engine::EngineResult result =
      engine::run(model, params, problem.kernel, eopt);
  std::fputs(obs::report_text(*result.report).c_str(), stdout);
  std::printf("\nreport written to %s\n", opt.report_path.c_str());
  if (!opt.trace_out.empty())
    std::printf("trace written to %s\n", opt.trace_out.c_str());
  if (!opt.msgtrace_out.empty() && opt.msgtrace_out != "-")
    std::printf("msgtrace written to %s\n", opt.msgtrace_out.c_str());
  if (result.profile) {
    const obs::ProfileDoc& p = *result.profile;
    std::printf(
        "profile: %lld samples (%s counters) over %zu threads",
        p.samples_total, p.counters.c_str(), p.threads.size());
    if (!p.families.empty())
      std::printf(", %.2f %s/cell",
                  p.families[0].cycles_per_cell(),
                  p.counters == "perf" ? "cyc" : "ns");
    std::printf("\n");
    if (opt.profile_out != "-")
      std::printf("profile written to %s\n", opt.profile_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&](const char* prefix) -> const char* {
        const std::size_t n = std::strlen(prefix);
        return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
      };
      if (const char* v = value("--problem=")) opt.problem = v;
      else if (const char* v = value("--params=")) opt.params = parse_csv(v);
      else if (const char* v = value("--ranks="))
        opt.ranks = count_flag(v, "--ranks");
      else if (const char* v = value("--threads="))
        opt.threads = count_flag(v, "--threads");
      else if (arg == "--sim") opt.sim = true;
      else if (const char* v = value("--nodes="))
        opt.nodes = count_flag(v, "--nodes");
      else if (const char* v = value("--cores="))
        opt.cores = count_flag(v, "--cores");
      else if (const char* v = value("--report=")) {
        opt.report_path = v;
        opt.report_path_set = true;
      }
      else if (const char* v = value("--trace-out=")) opt.trace_out = v;
      else if (const char* v = value("--trace=")) opt.trace_in = v;
      else if (const char* v = value("--validate=")) opt.validate_path = v;
      else if (const char* v = value("--schema=")) opt.schema_path = v;
      else if (const char* v = value("--events=")) opt.events_in = v;
      else if (const char* v = value("--profile-out=")) opt.profile_out = v;
      else if (const char* v = value("--profile-hz="))
        opt.profile_hz = parse_double(v, "--profile-hz");
      else if (arg == "--profile-cputime") opt.profile_cputime = true;
      else if (const char* v = value("--profile=")) opt.profile_in = v;
      else if (const char* v = value("--flame=")) opt.flame_out = v;
      else if (const char* v = value("--msgtrace-out=")) opt.msgtrace_out = v;
      else if (const char* v = value("--msgtrace=")) opt.msgtrace_in = v;
      else if (const char* v = value("--waterfall=")) opt.waterfall_out = v;
      else if (const char* v = value("--faults=")) opt.faults = v;
      else if (const char* v = value("--diff=")) {
        const std::vector<std::string> parts = split(v, ",");
        if (parts.size() != 2) return usage(argv[0]);
        opt.diff_old = parts[0];
        opt.diff_new = parts[1];
      }
      else if (arg == "--diff" && i + 2 < argc) {
        opt.diff_old = argv[++i];
        opt.diff_new = argv[++i];
      }
      else if (arg == "--list") opt.list = true;
      else return usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "dpgen-analyze: error: %s\n", e.what());
    return 2;
  }

  if (opt.list) {
    for (const Entry& e : kEntries) {
      std::string defaults;
      for (std::size_t k = 0; k < e.defaults.size(); ++k)
        defaults += dpgen::cat(k ? "," : "", e.defaults[k]);
      std::printf("%-14s params: %-18s default: %s\n", e.name,
                  e.params_help, defaults.c_str());
    }
    return 0;
  }
  try {
    if (!opt.validate_path.empty()) return run_validate(opt);
    if (!opt.events_in.empty()) return run_events(opt);
    if (!opt.diff_old.empty()) return run_diff(opt);
    if (!opt.profile_in.empty()) return run_profile(opt);
    if (!opt.msgtrace_in.empty()) return run_msgtrace(opt);
    if (!opt.trace_in.empty()) return run_trace(opt);
    if (!opt.problem.empty()) return run_problem(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpgen-analyze: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
