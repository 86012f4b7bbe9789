// dpgen-top: a live run monitor for dpgen executions.
//
// Runs a bundled problem with live telemetry on and renders what the
// obs::Monitor sees while the run is still going:
//
//   dpgen-top --problem=lcs --params=256,256 --ranks=4 --threads=4
//       runs the engine in a background thread and refreshes a per-rank
//       text table (executed/owned, ready/pending depth, buffered edges,
//       blocked senders, bytes on the wire, straggler flags) from the
//       in-process MonitorHub until the run completes.
//
//   dpgen-top --problem=grid --sim --nodes=4 --cores=2 --slow-node=1:4
//       replays the same view from the cluster simulator's DES clock —
//       deterministic, instant, and the straggler-injection knob
//       (--slow-node=NODE:FACTOR) makes the online detector observable
//       on demand.
//
//   dpgen-top --problem=lcs --profile
//       engine mode only: runs the sampling profiler alongside the
//       monitor and adds live ipc / cost-per-cell columns to the table
//       (from each rank's per-tile counter windows; in the perf-free
//       cputime fallback the cost column is ns/cell and ipc is "-").
//
//   dpgen-top --problem=lcs --faults=kill:1@40 --checkpoint=ckpt.json
//       engine mode only: replays a deterministic minimpi::FaultPlan
//       (kill/drop/dup/delay/slow) against the run and flushes the
//       dpgen.checkpoint.v1 store, so the failure, the restart and the
//       re-balanced ownership are all visible in the monitor.
//
// Either mode takes --events=FILE to append the dpgen.events.v1 JSONL
// log, --html=FILE to render a self-refreshing dashboard (progress lines
// per rank via sim::series_svg), and --check to run non-interactively and
// print one machine-readable summary line:
//
//   events=N heartbeats=H stragglers=S stall_warnings=W rank_failures=F
//   restarts=X ranks=R
//
// which scripts/check.sh asserts on (>=1 heartbeat per rank, zero
// spurious straggler flags on balanced runs, and exactly one
// failure/restart pair in the chaos smoke).

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "minimpi/faults.hpp"
#include "obs/monitor.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/svg.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
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
  int cores = 2;
  std::map<int, double> slowdown;  // --slow-node=I:F, by node
  double interval = 0.0;         // 0 = mode default
  double refresh = 0.2;
  std::string faults;            // FaultPlan text, engine mode only
  std::string checkpoint_path;   // dpgen.checkpoint.v1 JSON flush target
  bool profile = false;          // live profiler columns, engine mode only
  std::string events_path;
  std::string html_path;
  bool check = false;
  bool list = false;
};

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
    {"lcs", "len1,len2[,len3]", {192, 192},
     [](const IntVec& p) { return problems::lcs(dna(p)); }},
    {"edit_distance", "len1,len2", {192, 192},
     [](const IntVec& p) {
       auto s = dna(p);
       return problems::edit_distance(s[0], s[1]);
     }},
    {"smith_waterman", "len1,len2", {192, 192},
     [](const IntVec& p) {
       auto s = dna(p);
       return problems::smith_waterman(s[0], s[1]);
     }},
    {"coin_change", "C", {512},
     [](const IntVec&) { return problems::coin_change({1, 5, 9}); }},
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

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --problem=NAME [--params=a,b,..] [--ranks=R] [--threads=T]\n"
      "          [--interval=S] [--refresh=S] [--events=FILE] [--html=FILE]\n"
      "          [--faults=PLAN] [--checkpoint=FILE] [--profile] [--check]\n"
      "       %s --problem=NAME --sim [--nodes=N] [--cores=C]\n"
      "          [--slow-node=NODE:FACTOR]... [--interval=S] [--events=FILE]\n"
      "          [--html=FILE] [--check]\n"
      "       %s --list\n",
      argv0, argv0, argv0);
  return 2;
}

// ---- rendering ------------------------------------------------------------

std::string rank_table(const std::vector<obs::RankSnapshot>& snaps,
                       const std::vector<obs::StragglerFlag>& flags) {
  // Profiler columns appear once any rank has counter data: ipc is "-"
  // in the cputime fallback (no instruction counts) and cost/cell is
  // cycles/cell under perf, ns/cell under cputime.
  bool prof = false;
  for (const obs::RankSnapshot& s : snaps)
    if (s.prof_cycles > 0) prof = true;
  std::string out =
      "rank     executed/owned    %   ready  pending  buffered  blocked"
      "   mbox      bytes   msgs";
  if (prof) out += "    ipc  cost/cell";
  out += "  status\n";
  for (std::size_t r = 0; r < snaps.size(); ++r) {
    const obs::RankSnapshot& s = snaps[r];
    const char* status = "start";
    for (const obs::StragglerFlag& f : flags)
      if (f.rank == static_cast<int>(r)) status = "STRAGGLER";
    if (std::string(status) != "STRAGGLER" && s.epoch > 0)
      status = s.owned > 0 && s.executed >= s.owned ? "done" : "run";
    const double pct =
        s.owned > 0 ? 100.0 * static_cast<double>(s.executed) /
                          static_cast<double>(s.owned)
                    : 0.0;
    char line[240];
    std::snprintf(line, sizeof line,
                  "%4zu  %8lld/%-8lld %5.1f  %6lld  %7lld  %8lld  %7lld"
                  "  %5lld  %9lld  %5lld",
                  r, s.executed, s.owned, pct, s.ready_tiles,
                  s.pending_tiles, s.buffered_edges, s.blocked_senders,
                  s.mailbox_depth, s.bytes_sent, s.messages_sent);
    out += line;
    if (prof) {
      if (s.prof_instructions > 0 && s.prof_cycles > 0)
        std::snprintf(line, sizeof line, "  %5.2f",
                      static_cast<double>(s.prof_instructions) /
                          static_cast<double>(s.prof_cycles));
      else
        std::snprintf(line, sizeof line, "  %5s", "-");
      out += line;
      if (s.prof_sampled_cells > 0)
        std::snprintf(line, sizeof line, "  %9.2f",
                      static_cast<double>(s.prof_cycles) /
                          static_cast<double>(s.prof_sampled_cells));
      else
        std::snprintf(line, sizeof line, "  %9s", "-");
      out += line;
    }
    out += cat("  ", status, "\n");
  }
  return out;
}

/// Per-rank completed-fraction history, appended to on every poll; feeds
/// the HTML dashboard's progress chart.
struct History {
  std::vector<std::vector<double>> fraction;  // [rank][sample]
  std::vector<std::string> t_labels;
  std::vector<long long> seen_epoch;

  void observe(const std::vector<obs::RankSnapshot>& snaps, double t_s) {
    fraction.resize(snaps.size());
    seen_epoch.resize(snaps.size(), -1);
    bool fresh = false;
    for (std::size_t r = 0; r < snaps.size(); ++r)
      if (snaps[r].epoch > seen_epoch[r]) fresh = true;
    if (!fresh) return;
    char label[32];
    std::snprintf(label, sizeof label, "%.3gs", t_s);
    t_labels.push_back(label);
    for (std::size_t r = 0; r < snaps.size(); ++r) {
      const obs::RankSnapshot& s = snaps[r];
      seen_epoch[r] = s.epoch;
      fraction[r].push_back(
          s.owned > 0 ? static_cast<double>(s.executed) /
                            static_cast<double>(s.owned)
                      : 0.0);
    }
  }
};

void write_html(const std::string& path, const std::string& title,
                const History& hist, const std::string& table,
                const std::vector<obs::StragglerFlag>& flags,
                bool refreshing, double refresh_s) {
  if (hist.t_labels.empty()) return;
  std::vector<sim::Series> series;
  for (std::size_t r = 0; r < hist.fraction.size(); ++r)
    series.push_back({cat("rank ", r), hist.fraction[r]});
  sim::SeriesSvgOptions svg_opt;
  svg_opt.width_px = 860;
  svg_opt.height_px = 280;
  svg_opt.x_labels = hist.t_labels;
  svg_opt.y_ticks = 4;
  svg_opt.legend = true;
  std::string html = "<!DOCTYPE html>\n<html><head>";
  if (refreshing)
    html += cat("<meta http-equiv=\"refresh\" content=\"",
                refresh_s < 1 ? 1.0 : refresh_s, "\">");
  html += cat("<title>", title, "</title></head>\n<body>\n<h2>", title,
              "</h2>\n",
              sim::series_svg(series, "completed fraction per rank",
                              svg_opt),
              "\n<pre>", table, "</pre>\n");
  for (const obs::StragglerFlag& f : flags) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "<p><b>straggler</b>: rank %d at t=%.3gs pace=%.4g "
                  "median=%.4g lag=%.0f%%</p>\n",
                  f.rank, f.t_s, f.pace, f.median_pace, f.lag * 100.0);
    html += line;
  }
  html += "</body></html>\n";
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("dpgen-top: cannot open '", path, "'"));
  out << html;
}

/// Counts events in a dpgen.events.v1 JSONL log -> the --check summary.
struct EventTotals {
  long long events = 0, heartbeats = 0, stragglers = 0, stall_warnings = 0;
  long long rank_failures = 0, restarts = 0;
  int nranks = 0;
};

EventTotals summarize_events(const std::string& path) {
  EventTotals t;
  std::ifstream in(path);
  DPGEN_CHECK(in.good(), cat("dpgen-top: cannot read '", path, "'"));
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    ++t.events;
    json::ValuePtr ev = json::parse(line);
    const std::string kind =
        ev->has("event") ? ev->at("event").as_string() : "";
    if (kind == "run_start" && ev->has("nranks"))
      t.nranks = static_cast<int>(ev->at("nranks").as_number());
    else if (kind == "heartbeat")
      ++t.heartbeats;
    else if (kind == "straggler")
      ++t.stragglers;
    else if (kind == "stall_warning")
      ++t.stall_warnings;
    else if (kind == "rank_failed")
      ++t.rank_failures;
    else if (kind == "restart")
      ++t.restarts;
  }
  return t;
}

void print_summary(const EventTotals& t) {
  std::printf(
      "events=%lld heartbeats=%lld stragglers=%lld stall_warnings=%lld "
      "rank_failures=%lld restarts=%lld ranks=%d\n",
      t.events, t.heartbeats, t.stragglers, t.stall_warnings,
      t.rank_failures, t.restarts, t.nranks);
}

// ---- modes ----------------------------------------------------------------

int run_engine_top(const Options& opt, const Entry& entry,
                   const IntVec& params) {
  problems::Problem problem = entry.make(params);
  tiling::TilingModel model(problem.spec);

  engine::EngineOptions eopt;
  eopt.ranks = opt.ranks;
  eopt.threads = opt.threads;
  eopt.monitor_path = opt.events_path.empty() ? "-" : opt.events_path;
  eopt.monitor_interval = opt.interval > 0 ? opt.interval : 0.05;
  if (!opt.faults.empty()) {
    // Replays a deterministic fault plan (implies fault-tolerant mode):
    // the monitor shows the kill, the restart, and the re-balanced
    // ownership live.  Grammar: see minimpi::FaultPlan::parse.
    eopt.fault_plan = minimpi::FaultPlan::parse(opt.faults);
    // Dropped messages only recover via the stall detector.  Kill plans
    // restart on their own and slow plans finish on their own — and a
    // slowed rank must not be mistaken for a stalled one, so the
    // detector is armed only when the plan actually drops messages.
    if (opt.faults.find("drop") != std::string::npos)
      eopt.recover_stall_seconds = 0.5;
  }
  if (!opt.checkpoint_path.empty()) {
    eopt.fault_tolerant = true;
    eopt.checkpoint_json_path = opt.checkpoint_path;
    eopt.checkpoint_every_tiles = 8;
  }
  if (opt.profile) {
    eopt.profile_path = "-";  // collect, don't write
    // Interactive runs are short; sample fast enough that the live
    // table has data on the first refresh.
    eopt.profile_hz = 997.0;
  }

  std::atomic<bool> done{false};
  engine::EngineResult result;
  std::string run_error;
  std::thread runner([&] {
    try {
      result = engine::run(model, params, problem.kernel, eopt);
    } catch (const std::exception& e) {
      run_error = e.what();
    }
    done.store(true);
  });

  const std::string title =
      cat("dpgen-top: ", entry.name, " ranks=", opt.ranks,
          " threads=", opt.threads);
  History hist;
  long long live_heartbeats = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (!done.load()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(opt.refresh));
    std::vector<obs::RankSnapshot> snaps;
    std::vector<obs::StragglerFlag> flags;
    long long heartbeats = 0;
    obs::MonitorHub::instance().visit([&](obs::Monitor& m) {
      snaps = m.latest_all();
      flags = m.stragglers();
      heartbeats = m.heartbeats();
    });
    if (snaps.empty()) continue;
    live_heartbeats = heartbeats;
    const double t_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    hist.observe(snaps, t_s);
    const std::string table = rank_table(snaps, flags);
    if (!opt.check) {
      // ANSI clear + home, like top(1).
      std::printf("\033[2J\033[H%s  t=%.2fs heartbeats=%lld\n%s",
                  title.c_str(), t_s, heartbeats, table.c_str());
      std::fflush(stdout);
    }
    if (!opt.html_path.empty())
      write_html(opt.html_path, title, hist, table, flags, true,
                 opt.refresh);
  }
  runner.join();
  if (!run_error.empty()) {
    std::fprintf(stderr, "dpgen-top: run failed: %s\n", run_error.c_str());
    return 1;
  }

  // Final view from the run's own results (the hub entry is gone).
  long long stall_warnings = 0;
  for (const auto& s : result.rank_stats) stall_warnings += s.stall_warnings;
  for (int r : result.failed_ranks)
    std::fprintf(stderr, "dpgen-top: rank %d failed mid-run\n", r);
  if (result.restarts > 0)
    std::fprintf(stderr,
                 "dpgen-top: recovered via %d checkpoint restart%s "
                 "(kills=%lld dropped=%lld duplicated=%lld delayed=%lld)\n",
                 result.restarts, result.restarts == 1 ? "" : "s",
                 result.fault_stats.kills_fired,
                 result.fault_stats.messages_dropped,
                 result.fault_stats.messages_duplicated,
                 result.fault_stats.messages_delayed);
  for (const obs::StragglerFlag& f : result.stragglers)
    std::fprintf(stderr,
                 "dpgen-top: straggler: rank %d pace=%.4g median=%.4g "
                 "lag=%.0f%%\n",
                 f.rank, f.pace, f.median_pace, f.lag * 100.0);
  if (result.profile) {
    const obs::ProfileDoc& doc = *result.profile;
    double cost = 0.0;
    if (!doc.families.empty() && doc.families[0].sampled_cells > 0)
      cost = static_cast<double>(doc.families[0].cycles) /
             static_cast<double>(doc.families[0].sampled_cells);
    std::printf("profile samples=%lld counters=%s cost_per_cell=%.2f\n",
                doc.samples_total, doc.counters.c_str(), cost);
  }
  if (!opt.html_path.empty() && !hist.t_labels.empty())
    write_html(opt.html_path, title, hist,
               "run complete\n", result.stragglers, false, opt.refresh);
  if (!opt.events_path.empty()) {
    print_summary(summarize_events(opt.events_path));
  } else {
    // No log to count from; live_heartbeats is the last hub sample (a
    // lower bound — the forced final beats land after the poll loop).
    std::printf("events=0 heartbeats=%lld stragglers=%lld "
                "stall_warnings=%lld rank_failures=%zu restarts=%d "
                "ranks=%d\n",
                live_heartbeats,
                static_cast<long long>(result.stragglers.size()),
                stall_warnings, result.failed_ranks.size(),
                result.restarts, opt.ranks);
  }
  return 0;
}

int run_sim_top(const Options& opt, const Entry& entry,
                const IntVec& params) {
  problems::Problem problem = entry.make(params);
  tiling::TilingModel model(problem.spec);

  sim::ClusterConfig cfg;
  cfg.nodes = opt.nodes;
  cfg.cores_per_node = opt.cores;
  cfg.events_path = opt.events_path.empty() ? "-" : opt.events_path;
  cfg.monitor_interval_s = opt.interval;
  if (!opt.slowdown.empty()) {
    cfg.node_slowdown.assign(static_cast<std::size_t>(opt.nodes), 1.0);
    for (const auto& [node, factor] : opt.slowdown)
      if (node < opt.nodes && factor > 0)
        cfg.node_slowdown[static_cast<std::size_t>(node)] = factor;
  }
  sim::SimResult res = sim::simulate(model, params, cfg);

  const std::string title =
      cat("dpgen-top (sim): ", entry.name, " nodes=", opt.nodes,
          " cores=", opt.cores);
  if (!opt.check)
    std::printf("%s  makespan=%.6fs utilization=%.3f tiles=%lld\n",
                title.c_str(), res.makespan, res.utilization, res.tiles);
  for (const obs::StragglerFlag& f : res.stragglers)
    std::fprintf(stderr,
                 "dpgen-top: straggler: node %d at t=%.6gs pace=%.4g "
                 "median=%.4g lag=%.0f%%\n",
                 f.rank, f.t_s, f.pace, f.median_pace, f.lag * 100.0);

  if (!opt.events_path.empty()) {
    // Re-read the log for the table + dashboard: the sim's monitor is
    // gone, but its events are the same data.
    std::vector<obs::RankSnapshot> final_snaps(
        static_cast<std::size_t>(opt.nodes));
    History hist;
    std::ifstream in(opt.events_path);
    DPGEN_CHECK(in.good(),
                cat("dpgen-top: cannot read '", opt.events_path, "'"));
    std::string line;
    std::vector<obs::RankSnapshot> batch(
        static_cast<std::size_t>(opt.nodes));
    double batch_t = -1.0;
    auto flush_batch = [&] {
      if (batch_t >= 0) hist.observe(batch, batch_t);
    };
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      json::ValuePtr ev = json::parse(line);
      if (!ev->has("event") || ev->at("event").as_string() != "heartbeat")
        continue;
      const int r = static_cast<int>(ev->at("rank").as_number());
      if (r < 0 || r >= opt.nodes) continue;
      obs::RankSnapshot s;
      s.epoch = static_cast<long long>(ev->at("epoch").as_number());
      s.t_s = ev->at("t_s").as_number();
      s.executed = static_cast<long long>(ev->at("executed").as_number());
      s.owned = static_cast<long long>(ev->at("owned").as_number());
      s.pending_tiles =
          static_cast<long long>(ev->at("pending_tiles").as_number());
      s.ready_tiles =
          static_cast<long long>(ev->at("ready_tiles").as_number());
      s.buffered_edges =
          static_cast<long long>(ev->at("buffered_edges").as_number());
      s.bytes_sent =
          static_cast<long long>(ev->at("bytes_sent").as_number());
      s.messages_sent =
          static_cast<long long>(ev->at("messages_sent").as_number());
      if (ev->has("mailbox_depth"))
        s.mailbox_depth =
            static_cast<long long>(ev->at("mailbox_depth").as_number());
      if (s.t_s != batch_t) {
        flush_batch();
        batch_t = s.t_s;
      }
      batch[static_cast<std::size_t>(r)] = s;
      final_snaps[static_cast<std::size_t>(r)] = s;
    }
    flush_batch();
    const std::string table = rank_table(final_snaps, res.stragglers);
    if (!opt.check) std::fputs(table.c_str(), stdout);
    if (!opt.html_path.empty())
      write_html(opt.html_path, title, hist, table, res.stragglers, false,
                 opt.refresh);
    print_summary(summarize_events(opt.events_path));
  } else {
    std::printf(
        "events=0 heartbeats=0 stragglers=%lld stall_warnings=0 "
        "ranks=%d\n",
        static_cast<long long>(res.stragglers.size()), opt.nodes);
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
      else if (const char* v = value("--slow-node=")) {
        const std::vector<std::string> parts = split(v, ":");
        if (parts.size() != 2) return usage(argv[0]);
        const int node = static_cast<int>(
            parse_int(parts[0], "--slow-node NODE", 0, INT_MAX));
        opt.slowdown[node] = parse_double(parts[1], "--slow-node FACTOR");
      }
      else if (const char* v = value("--interval="))
        opt.interval = parse_double(v, "--interval");
      else if (const char* v = value("--refresh="))
        opt.refresh = parse_double(v, "--refresh");
      else if (const char* v = value("--faults=")) opt.faults = v;
      else if (const char* v = value("--checkpoint=")) opt.checkpoint_path = v;
      else if (const char* v = value("--events=")) opt.events_path = v;
      else if (const char* v = value("--html=")) opt.html_path = v;
      else if (arg == "--profile") opt.profile = true;
      else if (arg == "--check") opt.check = true;
      else if (arg == "--list") opt.list = true;
      else return usage(argv[0]);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "dpgen-top: error: %s\n", e.what());
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
  if (opt.problem.empty()) return usage(argv[0]);
  if (opt.sim &&
      (!opt.faults.empty() || !opt.checkpoint_path.empty() || opt.profile)) {
    std::fprintf(stderr,
                 "dpgen-top: --faults/--checkpoint/--profile need the live "
                 "engine (drop --sim)\n");
    return 2;
  }
  const Entry* entry = find_entry(opt.problem);
  if (!entry) {
    std::fprintf(stderr, "dpgen-top: unknown problem '%s'\n",
                 opt.problem.c_str());
    return 2;
  }
  const IntVec params = !opt.params.empty() ? opt.params : entry->defaults;
  try {
    return opt.sim ? run_sim_top(opt, *entry, params)
                   : run_engine_top(opt, *entry, params);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpgen-top: %s\n", e.what());
    return 1;
  }
}
