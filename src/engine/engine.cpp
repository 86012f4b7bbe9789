#include "engine/engine.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "engine/decisions.hpp"
#include "engine/interpret.hpp"
#include "obs/export.hpp"
#include "obs/msgtrace.hpp"
#include "support/str.hpp"

namespace dpgen::engine {

namespace {

/// Shared (per-run, across ranks) state: the recorded values.
struct Recorder {
  std::mutex mu;
  std::unordered_map<IntVec, double, IntVecHash> values;
  bool record_all = false;
  std::vector<IntVec> probes;
  bool track_max = false;
  bool have_max = false;
  double max_value = 0.0;
  IntVec max_point;
};

/// ProblemHooks implementation that interprets the TilingModel.
class ModelHooks final : public runtime::ProblemHooks<double> {
 public:
  ModelHooks(const tiling::TilingModel& model, const IntVec& params,
             const tiling::LoadBalancer& balancer, const CenterFn& center,
             Recorder& recorder, EdgeStore* edge_store,
             const std::function<void(const IntVec&)>& tile_hook,
             DecisionLog* decision_log)
      : model_(model),
        params_(params),
        balancer_(balancer),
        center_(center),
        recorder_(recorder),
        edge_store_(edge_store),
        tile_hook_(tile_hook),
        decision_log_(decision_log),
        cells_fn_(model.cell_count_fn(params)) {}

  int dim() const override { return model_.dim(); }
  Int buffer_size() const override { return model_.buffer_size(); }
  int num_edges() const override { return model_.num_edges(); }
  const IntVec& edge_offset(int edge) const override {
    return model_.edges()[static_cast<std::size_t>(edge)].offset;
  }
  Int edge_capacity(int edge) const override {
    return model_.edges()[static_cast<std::size_t>(edge)].capacity;
  }
  bool tile_exists(const IntVec& tile) const override {
    return model_.tile_in_space(params_, tile);
  }
  int dep_count(const IntVec& tile) const override {
    return model_.num_deps_of(params_, tile);
  }
  Int tile_cells(const IntVec& tile) const override {
    // Per dispatched tile on the monitored hot path: use the specialised
    // product form when the local nest permits it, the generic counter
    // otherwise.
    return cells_fn_.ok() ? cells_fn_.count(tile)
                          : model_.cell_count(params_, tile);
  }
  void initial_tiles(std::vector<IntVec>& out) const override {
    model_.for_each_initial_tile(params_,
                                 [&](const IntVec& t) { out.push_back(t); });
  }
  int owner(const IntVec& tile) const override {
    return balancer_.owner(tile);
  }
  Int owned_tiles(int rank) const override {
    return balancer_.owned_tiles(rank);
  }

  void execute_tile(const IntVec& tile, double* buffer) override {
    if (decision_log_) {
      // Per-thread scratch like the rest of the hot path: the log copies
      // the bytes into its run-length encoding, so the vector is reusable.
      thread_local std::vector<unsigned char> decisions;
      decisions.clear();
      detail::execute_tile_interpreted(model_, params_, tile, center_,
                                       buffer, &decisions);
      decision_log_->record(tile, decisions);
    } else {
      detail::execute_tile_interpreted(model_, params_, tile, center_,
                                       buffer);
    }
  }

  void on_tile_executed(const IntVec& tile, const double* buffer) override {
    if (tile_hook_) tile_hook_(tile);
    if (recorder_.track_max) {
      // Per-tile local maximum first (no lock), then one merge.
      bool have = false;
      double best = 0.0;
      IntVec best_point;
      IntVec global(static_cast<std::size_t>(model_.dim()));
      model_.for_each_row(params_, tile, [&](const tiling::CellRow& row) {
        for (Int i = row.lo; i <= row.hi; ++i) {
          double v = buffer[row.loc + i];
          row.point(i, global);
          if (!have || v > best || (v == best && global < best_point)) {
            have = true;
            best = v;
            best_point = global;
          }
        }
      });
      if (have) {
        std::lock_guard<std::mutex> lock(recorder_.mu);
        if (!recorder_.have_max || best > recorder_.max_value ||
            (best == recorder_.max_value &&
             best_point < recorder_.max_point)) {
          recorder_.have_max = true;
          recorder_.max_value = best;
          recorder_.max_point = best_point;
        }
      }
    }
    if (!recorder_.record_all && recorder_.probes.empty()) return;
    if (recorder_.record_all) {
      std::lock_guard<std::mutex> lock(recorder_.mu);
      IntVec global(static_cast<std::size_t>(model_.dim()));
      model_.for_each_row(params_, tile, [&](const tiling::CellRow& row) {
        for (Int i = row.lo; i <= row.hi; ++i) {
          row.point(i, global);
          recorder_.values[global] = buffer[row.loc + i];
        }
      });
      return;
    }
    const int d = model_.dim();
    const auto& w = model_.problem().widths();
    for (const auto& probe : recorder_.probes) {
      bool inside = true;
      IntVec local(static_cast<std::size_t>(d));
      for (int k = 0; k < d && inside; ++k) {
        auto ks = static_cast<std::size_t>(k);
        if (floor_div(probe[ks], w[ks]) != tile[ks]) inside = false;
        local[ks] = probe[ks] - w[ks] * tile[ks];
      }
      if (!inside) continue;
      std::lock_guard<std::mutex> lock(recorder_.mu);
      recorder_.values[probe] = buffer[model_.local_index(local)];
    }
  }

  Int pack(int edge, const IntVec& producer, const double* buffer,
           double* out) const override {
    return detail::pack_interpreted(model_, params_, edge, producer, buffer,
                                    out);
  }

  void unpack(int edge, const IntVec& producer, const double* data, Int count,
              double* buffer) const override {
    if (edge_store_) {
      IntVec consumer = vec_sub(
          producer, model_.edges()[static_cast<std::size_t>(edge)].offset);
      runtime::EdgeData<double> copy;
      copy.edge = edge;
      copy.payload.assign(data, data + count);
      std::lock_guard<std::mutex> lock(edge_store_->mu);
      edge_store_->by_consumer[consumer].push_back(std::move(copy));
    }
    detail::unpack_interpreted(model_, params_, edge, producer, data, count,
                               buffer);
  }

 private:
  const tiling::TilingModel& model_;
  const IntVec& params_;
  const tiling::LoadBalancer& balancer_;
  const CenterFn& center_;
  Recorder& recorder_;
  EdgeStore* edge_store_;
  const std::function<void(const IntVec&)>& tile_hook_;
  DecisionLog* decision_log_;
  tiling::CellCountFn cells_fn_;
};

}  // namespace

double EngineResult::at(const IntVec& point) const {
  auto it = values.find(point);
  DPGEN_CHECK(it != values.end(),
              cat("no recorded value at ", vec_to_string(point),
                  "; add it to EngineOptions::probes or set record_all"));
  return it->second;
}

long long EngineResult::total(long long runtime::RunStats::* field) const {
  long long sum = 0;
  for (const auto& s : rank_stats) sum += s.*field;
  return sum;
}

EngineResult run(const tiling::TilingModel& model, const IntVec& params,
                 const CenterFn& center, const EngineOptions& options) {
  // A trace request switches the process-wide tracer on for this run and
  // starts it from a clean buffer, so the exported timeline covers exactly
  // this execution.  A report request implies tracing: the analyzer needs
  // the spans.
  const bool tracing =
      !options.trace_json_path.empty() || !options.report_json_path.empty();
  obs::Tracer& tracer = obs::Tracer::instance();
  const bool was_enabled = tracer.enabled();
  if (tracing) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  // Message tracing is independent of span tracing (either can run alone);
  // the records feed the msgtrace document, the report's msgtrace section
  // and the exported trace's flow events.
  const bool msg_tracing = !options.msgtrace_json_path.empty();
  obs::MsgTracer& msg_tracer = obs::MsgTracer::instance();
  const bool msg_was_enabled = msg_tracer.enabled();
  if (msg_tracing) {
    msg_tracer.clear();
    msg_tracer.set_enabled(true);
  }

  Recorder recorder;
  recorder.record_all = options.record_all;
  recorder.probes = options.probes;
  recorder.track_max = options.track_max;

  // Priority dimensions: load-balanced dims first, then the rest in loop
  // order (paper Fig. 5).
  std::vector<int> dim_priority = model.lb_dims();
  for (int k = 0; k < model.dim(); ++k)
    if (std::find(dim_priority.begin(), dim_priority.end(), k) ==
        dim_priority.end())
      dim_priority.push_back(k);

  runtime::RunOptions ropt;
  ropt.threads = options.threads;
  ropt.queue_shards = options.queue_shards;
  ropt.order = runtime::TileOrder(dim_priority,
                                  model.problem().dep_signs(), options.policy);
  ropt.poison_buffers = options.poison_buffers;
  ropt.stall_timeout_seconds = options.stall_timeout_seconds;

  // Fault tolerance: tile completions feed a checkpoint store (producer-
  // side edge log; see runtime/checkpoint.hpp), and a TransportFailure —
  // injected kill, declared drop-stall, or a real worker exception —
  // restarts the run over the surviving ranks instead of propagating.
  // Because every DP here is confluent (cell values are schedule-
  // independent) and edge delivery is idempotent under the tile table's
  // duplicate guard, re-executing the non-checkpointed frontier converges
  // to byte-identical results.
  const bool fault_tolerant =
      options.fault_tolerant || options.fault_plan.has_value();
  runtime::CheckpointStore<double> store;
  if (fault_tolerant) {
    store.set_meta(model.problem().problem_name(), vec_to_string(params),
                   model.dim());
    if (!options.resume_checkpoint_path.empty())
      store.restore_from(
          runtime::load_checkpoint_json(options.resume_checkpoint_path));
    if (!options.checkpoint_json_path.empty())
      store.configure_flush(options.checkpoint_json_path,
                            options.checkpoint_every_tiles);
    ropt.recover_stall_seconds = options.recover_stall_seconds;
    // Faulty wires can duplicate; replayed restarts can re-send.  Either
    // way re-delivered edges must be dropped even after their tile went
    // ready, so arm the table guard for every attempt of this run.
    ropt.replay_guard = true;
  }

  // Continuous profiling: armed once for the whole run (restart attempts
  // accumulate into the same document — the cost model wants the total
  // work, not one attempt's slice).
  const bool profiling = !options.profile_path.empty();
  if (profiling) {
    obs::ProfileOptions popt;
    popt.hz = options.profile_hz;
    popt.force_cputime = options.profile_force_cputime;
    popt.source = "engine";
    popt.problem = options.profile_problem.empty()
                       ? model.problem().problem_name()
                       : options.profile_problem;
    popt.params = params;
    obs::Profiler::instance().start(popt);
    ropt.profile = true;
  }
  // A run that throws (non-fault-tolerant failure, restarts exhausted) must
  // not leave the process-wide profiler armed for the next run.
  struct ProfilerDisarm {
    bool armed;
    ~ProfilerDisarm() {
      if (armed && obs::Profiler::instance().active())
        (void)obs::Profiler::instance().stop();
    }
  } profiler_disarm{profiling};

  int alive = options.ranks;
  int restarts = 0;
  std::vector<int> failed_ranks;
  minimpi::FaultStats fault_stats;

  std::optional<tiling::LoadBalancer> balancer_storage;
  std::optional<obs::Monitor> monitor;
  std::optional<minimpi::World> world;
  std::vector<runtime::RunStats> rank_stats;

  for (;;) {
    // Ownership is re-planned for the surviving fleet each attempt: the
    // Ehrhart balancer runs over `alive` ranks, so a killed rank's tiles
    // are re-distributed proportionally instead of piling onto one peer.
    {
      obs::ScopedSpan span(obs::Phase::kLoadBalance);
      balancer_storage.emplace(model, params, alive, options.balance);
    }
    tiling::LoadBalancer& balancer = *balancer_storage;

    // Live telemetry: a wall-clock sampler publishes per-rank heartbeats
    // and runs the straggler detector while the ranks execute ("-" =
    // in-process monitoring only, no event log).  Restart attempts append
    // to the same event log for one continuous history.
    monitor.reset();
    ropt.monitor = nullptr;
    if (!options.monitor_path.empty()) {
      obs::MonitorOptions mopt;
      mopt.nranks = alive;
      mopt.interval_s = options.monitor_interval;
      if (options.monitor_path != "-") mopt.events_path = options.monitor_path;
      mopt.append = restarts > 0;
      for (int r = 0; r < alive; ++r)
        mopt.predicted_work.push_back(
            static_cast<double>(balancer.owned_work(r)));
      mopt.source = "engine";
      mopt.problem = model.problem().problem_name();
      monitor.emplace(std::move(mopt));
      ropt.monitor = &*monitor;
    }

    // Faults are injected only on the first attempt: the plan describes
    // one concrete failure scenario, and recovery must not re-trip it.
    auto base = std::make_shared<minimpi::InProcessTransport>(
        alive, options.mailbox_capacity);
    std::shared_ptr<minimpi::FaultInjector> injector;
    std::shared_ptr<minimpi::Transport> transport = base;
    if (options.fault_plan && restarts == 0) {
      injector =
          std::make_shared<minimpi::FaultInjector>(base, *options.fault_plan);
      transport = injector;
    }

    // Each attempt gets a fresh World (per-link sequence counters restart
    // from 0), so stale records from an aborted attempt must not pollute
    // the final attempt's conservation accounting.
    if (msg_tracing) msg_tracer.clear();

    world.emplace(alive, options.mailbox_capacity, transport);
    rank_stats.assign(static_cast<std::size_t>(alive), {});
    try {
      world->run([&](minimpi::Comm& comm) {
        ModelHooks hooks(model, params, balancer, center, recorder,
                         options.edge_store, options.on_tile_executed,
                         options.decision_log);
        rank_stats[static_cast<std::size_t>(comm.rank())] =
            runtime::run_node<double>(hooks, comm, ropt,
                                      fault_tolerant ? &store : nullptr);
      });
      if (injector) fault_stats = injector->stats();
      break;
    } catch (const minimpi::TransportFailure& e) {
      if (!fault_tolerant) throw;
      if (injector) fault_stats = injector->stats();
      const std::vector<int> dead = transport->dead_ranks();
      ++restarts;
      DPGEN_CHECK(restarts <= options.max_restarts,
                  cat("fault tolerance exhausted after ", restarts - 1,
                      " restarts: ", e.what()));
      const int next_alive =
          std::max(1, alive - static_cast<int>(dead.size()));
      if (monitor) {
        for (int r : dead) monitor->rank_failed(r, e.what());
        monitor->restart_event(restarts, next_alive);
        monitor->stop();
      }
      for (int r : dead) failed_ranks.push_back(r);
      alive = next_alive;
      // Credited tiles may now re-execute (crash-before-record frontier),
      // so the next attempt's drivers must screen deliveries against the
      // executed set — see CheckpointStore::replay_possible.
      store.enter_replay();
      store.flush();
    }
  }
  if (fault_tolerant) store.flush();

  std::vector<obs::StragglerFlag> stragglers;
  if (monitor) {
    monitor->stop();
    stragglers = monitor->stragglers();
  }

  std::optional<obs::ProfileDoc> profile;
  if (profiling) {
    profiler_disarm.armed = false;
    obs::ProfileDoc doc = obs::Profiler::instance().stop();
    doc.nranks = alive;
    if (!doc.families.empty()) {
      // The Ehrhart prediction for the fleet that finished the run: the
      // cost table's "predicted cells" column.
      double predicted = 0.0;
      for (int r = 0; r < alive; ++r)
        predicted += static_cast<double>(balancer_storage->owned_work(r));
      doc.families[0].predicted_cells = predicted;
    }
    if (options.profile_path != "-")
      obs::write_profile_json(options.profile_path, doc);
    profile = std::move(doc);
  }

  std::vector<obs::MsgRecord> msg_records;
  std::uint64_t msg_dropped = 0;
  if (msg_tracing) {
    // run_node gathered every rank's records to rank 0 (the shared
    // in-process tracer), mirroring the span gather.
    msg_records = msg_tracer.merged();
    msg_dropped = msg_tracer.dropped();
    if (options.msgtrace_json_path != "-") {
      obs::MsgTraceInput min;
      min.records = msg_records;
      min.nranks = alive;
      min.sent_matrix = world->sent_matrix();
      min.records_dropped = msg_dropped;
      min.expected_drops = fault_stats.messages_dropped;
      min.expected_dups = fault_stats.messages_duplicated;
      for (const auto& s : rank_stats)
        min.table_duplicates += s.table.duplicate_edges;
      min.source = "engine";
      min.problem = model.problem().problem_name();
      min.params = params;
      obs::write_msgtrace_json(options.msgtrace_json_path, min);
    }
    msg_tracer.set_enabled(msg_was_enabled);
  }

  std::optional<obs::AnalysisReport> report;
  if (tracing) {
    // run_node gathered every rank's spans to rank 0, which (in this
    // in-process world) merged them into the shared tracer; the setup
    // spans recorded before the world started ride along under rank -1.
    std::vector<obs::Span> spans = tracer.merged();
    for (const obs::Span& s : tracer.collect_rank(-1)) spans.push_back(s);
    const std::uint64_t dropped = tracer.dropped();
    if (!options.trace_json_path.empty())
      obs::write_chrome_trace(options.trace_json_path, spans, dropped,
                              msg_records);
    if (!options.report_json_path.empty()) {
      // The report covers the attempt that finished: the last balancer,
      // world and rank count (smaller than options.ranks after a kill).
      obs::AnalysisInput in;
      in.spans = std::move(spans);
      in.nranks = alive;
      for (const auto& e : model.edges()) in.edge_offsets.push_back(e.offset);
      for (int r = 0; r < alive; ++r)
        in.predicted_work.push_back(
            static_cast<double>(balancer_storage->owned_work(r)));
      in.bytes_matrix = world->bytes_matrix();
      in.messages_matrix = world->messages_matrix();
      in.spans_dropped = dropped;
      in.source = "engine";
      in.problem = model.problem().problem_name();
      in.params = params;
      in.msg_records = msg_records;
      in.msg_records_dropped = msg_dropped;
      report = obs::analyze(in);
      obs::write_report_json(options.report_json_path, *report);
    }
    tracer.set_enabled(was_enabled);
  }
  if (!options.metrics_json_path.empty())
    obs::write_metrics_json(options.metrics_json_path,
                            obs::MetricsRegistry::instance());

  EngineResult result;
  result.report = std::move(report);
  result.values = std::move(recorder.values);
  result.rank_stats = std::move(rank_stats);
  result.max_value = recorder.max_value;
  result.max_point = std::move(recorder.max_point);
  result.stragglers = std::move(stragglers);
  result.restarts = restarts;
  result.failed_ranks = std::move(failed_ranks);
  result.fault_stats = fault_stats;
  result.profile = std::move(profile);
  return result;
}

}  // namespace dpgen::engine
