#include "runtime/launch.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/export.hpp"
#include "obs/msgtrace.hpp"

namespace dpgen::runtime {

namespace {

using Opt = LaunchOptions;
using Arg = const std::string&;

/// One generated-program flag: `--name=VALUE`, or the bare switch
/// `--name` when `value` (the usage line's placeholder) is null.
struct Flag {
  const char* name;
  const char* value;
  void (*apply)(Opt& options, Arg value);
};

template <std::string LaunchOptions::*Path>
void set_path(Opt& o, Arg v) {
  o.*Path = v;
}

int count(Arg v, const char* flag) {
  return static_cast<int>(parse_int(v, flag, 1, INT_MAX));
}

// The one flag set: parse_flag takes these, usage() lists them in order.
const Flag kFlags[] = {
    {"ranks", "R", [](Opt& o, Arg v) { o.ranks = count(v, "--ranks"); }},
    {"threads", "T", [](Opt& o, Arg v) { o.threads = count(v, "--threads"); }},
    {"capacity", "C",
     [](Opt& o, Arg v) {
       o.mailbox_capacity =
           static_cast<std::size_t>(parse_int(v, "--capacity", 0));
     }},
    {"shards", "S",
     [](Opt& o, Arg v) { o.queue_shards = count(v, "--shards"); }},
    {"policy", "column|level",
     [](Opt& o, Arg v) {
       DPGEN_CHECK(v == "column" || v == "level",
                   cat("bad --policy value '", v,
                       "' (expected column|level)"));
       o.policy = v == "level" ? PriorityPolicy::kLevelSet
                               : PriorityPolicy::kColumnMajor;
     }},
    {"trace", "FILE", set_path<&Opt::trace_json_path>},
    {"metrics", "FILE", set_path<&Opt::metrics_json_path>},
    {"report", "FILE", set_path<&Opt::report_json_path>},
    {"msgtrace", "FILE", set_path<&Opt::msgtrace_json_path>},
    {"monitor", "FILE", set_path<&Opt::monitor_path>},
    {"monitor-interval", "S",
     [](Opt& o, Arg v) {
       o.monitor_interval = parse_double(v, "--monitor-interval");
     }},
    {"profile", "FILE", set_path<&Opt::profile_path>},
    {"profile-hz", "N",
     [](Opt& o, Arg v) { o.profile_hz = parse_double(v, "--profile-hz"); }},
    {"profile-cputime", nullptr,
     [](Opt& o, Arg) { o.profile_force_cputime = true; }},
    {"poison-buffers", nullptr, [](Opt& o, Arg) { o.poison_buffers = true; }},
};

}  // namespace

bool LaunchOptions::parse_flag(const std::string& arg) {
  for (const Flag& f : kFlags) {
    const std::string dashed = cat("--", f.name);
    if (f.value ? !starts_with(arg, dashed + "=") : arg != dashed) continue;
    const std::string v = f.value ? arg.substr(dashed.size() + 1) : "";
    DPGEN_CHECK(!v.empty() || !f.value || std::string(f.value) != "FILE",
                cat(dashed, " needs a FILE"));
    f.apply(*this, v);
    return true;
  }
  return false;
}

std::string LaunchOptions::usage() {
  std::vector<std::string> parts;
  for (const Flag& f : kFlags)
    parts.push_back(f.value ? cat("[--", f.name, "=", f.value, "]")
                            : cat("[--", f.name, "]"));
  return join(parts, " ");
}

void print_summary(const LaunchOptions& options, const LaunchResult& result,
                   long long total_work) {
  long long tiles = 0, remote = 0, peak_edges = 0, stall_warnings = 0;
  unsigned long long bytes = 0;
  double init_scan = 0.0;
  for (const RunStats& s : result.rank_stats) {
    tiles += s.tiles_executed;
    remote += s.remote_edges;
    bytes += s.bytes_sent;
    peak_edges = std::max(peak_edges, s.table.peak_buffered_edges);
    init_scan = std::max(init_scan, s.init_scan_seconds);
    stall_warnings += s.stall_warnings;
  }
  std::printf("STATS tiles=%lld total_work=%lld remote_edges=%lld "
              "bytes=%llu peak_edges=%lld init_scan_s=%.6f\n",
              tiles, total_work, remote, bytes, peak_edges, init_scan);
  if (!options.monitor_path.empty()) {
    for (const obs::StragglerFlag& f : result.stragglers)
      std::fprintf(stderr,
                   "dpgen: straggler: rank %d pace=%.4g median=%.4g "
                   "lag=%.0f%%\n",
                   f.rank, f.pace, f.median_pace, f.lag * 100.0);
    std::printf("MONITOR heartbeats=%lld stragglers=%lld "
                "stall_warnings=%lld\n",
                result.heartbeats,
                static_cast<long long>(result.stragglers.size()),
                stall_warnings);
  }
  if (result.profile) {
    const obs::ProfileDoc& doc = *result.profile;
    std::printf("PROFILE samples=%lld untraced=%lld dropped=%lld "
                "counters=%s threads=%lld\n",
                doc.samples_total, doc.samples_untraced, doc.samples_dropped,
                doc.counters.c_str(),
                static_cast<long long>(doc.threads.size()));
  }
  if (!options.msgtrace_json_path.empty())
    std::printf("MSGTRACE records=%lld dropped=%llu\n", result.msg_records,
                static_cast<unsigned long long>(result.msg_records_dropped));
}

namespace detail {

LaunchResult launch(const std::function<Attempt(int alive)>& plan,
                    const LaunchOptions& opt, const LaunchLabels& labels) {
  for (auto [name, count] : {std::pair{"ranks", opt.ranks},
                             std::pair{"threads", opt.threads},
                             std::pair{"queue shards", opt.queue_shards}})
    DPGEN_CHECK(count >= 1, cat(name, " must be >= 1 (got ", count, ")"));
  DPGEN_CHECK(opt.monitor_interval > 0,
              cat("monitor interval must be positive (got ",
                  opt.monitor_interval, ")"));
  // A report request implies tracing: the analyzer needs the spans.
  const bool tracing =
      !opt.trace_json_path.empty() || !opt.report_json_path.empty();
  const bool msg_tracing = !opt.msgtrace_json_path.empty();
  const bool fault_tolerant = opt.fault_tolerant || opt.fault_plan;

  // Every document covers exactly this run: its records and counters live
  // in this Session, across every restart attempt.  Profiling is armed
  // once for the whole run: restart attempts accumulate into one document
  // (the cost model wants the total work).
  std::optional<obs::ProfileOptions> profile;
  if (!opt.profile_path.empty())
    profile = obs::ProfileOptions{
        .hz = opt.profile_hz,
        .force_cputime = opt.profile_force_cputime,
        .source = labels.source,
        .problem = labels.profile_problem.empty() ? labels.problem
                                                  : labels.profile_problem,
        .params = labels.params};
  obs::Session session(tracing, msg_tracing, std::move(profile));
  // Setup phases on this thread record outside any rank.
  obs::ThreadBinding setup_binding(&session, /*rank=*/-1, /*thread=*/0);

  // Fault-tolerant runs arm the table's post-ready duplicate guard: faulty
  // wires can duplicate and restarts re-send.
  RunOptions ropt{
      .threads = opt.threads,
      .order = {},
      .queue_shards = opt.queue_shards,
      .poison_buffers = opt.poison_buffers,
      .stall_timeout_seconds = opt.stall_timeout_seconds,
      .recover_stall_seconds = fault_tolerant ? opt.recover_stall_seconds : 0,
      .replay_guard = fault_tolerant,
      .session = &session};

  LaunchResult out;
  int alive = opt.ranks;
  Attempt attempt;
  std::optional<obs::Monitor> monitor;
  std::optional<minimpi::World> world;
  for (;;) {
    {
      obs::ScopedSpan span(obs::Phase::kLoadBalance);
      attempt = plan(alive);
    }
    // Live telemetry against the plan's predicted shares; restart attempts
    // append to the same event log for one continuous history.
    monitor.reset();
    if (!opt.monitor_path.empty())
      monitor.emplace(obs::MonitorOptions{
          .nranks = alive,
          .interval_s = opt.monitor_interval,
          .events_path = opt.monitor_path == "-" ? "" : opt.monitor_path,
          .predicted_work = attempt.predicted_work,
          .source = labels.source,
          .problem = labels.problem,
          .append = out.restarts > 0});
    // Faults are injected only on the first attempt: the plan describes
    // one failure scenario, and recovery must not re-trip it.
    auto base = std::make_shared<minimpi::InProcessTransport>(
        alive, opt.mailbox_capacity);
    std::shared_ptr<minimpi::FaultInjector> injector;
    std::shared_ptr<minimpi::Transport> transport = base;
    if (opt.fault_plan && out.restarts == 0) {
      injector = std::make_shared<minimpi::FaultInjector>(base, *opt.fault_plan);
      transport = injector;
    }
    // A fresh World restarts the per-link sequence counters, so records of
    // an aborted attempt must not pollute the final conservation check.
    session.msgs().clear();
    world.emplace(alive, opt.mailbox_capacity, transport, &session.metrics());
    ropt.order = attempt.order;
    ropt.monitor = monitor ? &*monitor : nullptr;
    try {
      out.rank_stats = attempt.run(*world, ropt);
      if (injector) out.fault_stats = injector->stats();
      break;
    } catch (const minimpi::TransportFailure& e) {
      if (!fault_tolerant) throw;
      if (injector) out.fault_stats = injector->stats();
      const std::vector<int> dead = transport->dead_ranks();
      ++out.restarts;
      DPGEN_CHECK(out.restarts <= opt.max_restarts,
                  cat("fault tolerance exhausted after ", out.restarts - 1,
                      " restarts: ", e.what()));
      const int next_alive =
          std::max(1, alive - static_cast<int>(dead.size()));
      if (monitor) {
        for (int r : dead) monitor->rank_failed(r, e.what());
        monitor->restart_event(out.restarts, next_alive);
        monitor->stop();
      }
      for (int r : dead) out.failed_ranks.push_back(r);
      alive = next_alive;
    }
  }

  // The documents cover the attempt that finished: its plan, world and
  // rank count (smaller than opt.ranks after a kill).
  if (monitor) {
    monitor->stop();
    out.stragglers = monitor->stragglers();
    out.heartbeats = monitor->heartbeats();
  }
  if (session.profiling()) {
    obs::ProfileDoc doc = session.stop_profiler();
    doc.nranks = alive;
    if (!doc.families.empty())
      doc.families[0].predicted_cells = std::accumulate(
          attempt.predicted_work.begin(), attempt.predicted_work.end(), 0.0);
    if (opt.profile_path != "-") obs::write_profile_json(opt.profile_path, doc);
    out.profile = std::move(doc);
  }
  // run_node gathered every rank's message records and spans to rank 0,
  // i.e. into this run's Session.
  std::vector<obs::MsgRecord> msgs;
  if (msg_tracing) {
    msgs = session.msgs().merged();
    out.msg_records = static_cast<long long>(msgs.size());
    out.msg_records_dropped = session.msgs().dropped();
    if (opt.msgtrace_json_path != "-") {
      long long table_duplicates = 0;
      for (const RunStats& s : out.rank_stats)
        table_duplicates += s.table.duplicate_edges;
      obs::write_msgtrace_json(
          opt.msgtrace_json_path,
          {.records = msgs,
           .nranks = alive,
           .sent_matrix = world->sent_matrix(),
           .records_dropped = out.msg_records_dropped,
           .expected_drops = out.fault_stats.messages_dropped,
           .expected_dups = out.fault_stats.messages_duplicated,
           .table_duplicates = table_duplicates,
           .source = labels.source,
           .problem = labels.problem,
           .params = labels.params});
    }
  }
  if (tracing) {
    // Setup spans recorded outside the world ride along under rank -1.
    std::vector<obs::Span> spans = session.spans().merged();
    for (const obs::Span& s : session.spans().collect_rank(-1))
      spans.push_back(s);
    const std::uint64_t spans_dropped = session.spans().dropped();
    if (!opt.trace_json_path.empty())
      obs::write_chrome_trace(opt.trace_json_path, spans, spans_dropped,
                              msgs);
    if (!opt.report_json_path.empty()) {
      out.report = obs::analyze({.spans = std::move(spans),
                                 .nranks = alive,
                                 .edge_offsets = attempt.edge_offsets,
                                 .predicted_work = attempt.predicted_work,
                                 .bytes_matrix = world->bytes_matrix(),
                                 .messages_matrix = world->messages_matrix(),
                                 .spans_dropped = spans_dropped,
                                 .source = labels.source,
                                 .problem = labels.problem,
                                 .params = labels.params,
                                 .passes = labels.passes,
                                 .msg_records = std::move(msgs),
                                 .msg_records_dropped = out.msg_records_dropped});
      obs::write_report_json(opt.report_json_path, *out.report);
    }
  }
  if (!opt.metrics_json_path.empty())
    obs::write_metrics_json(opt.metrics_json_path, session.metrics());
  return out;
}

}  // namespace detail

}  // namespace dpgen::runtime
