#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <unordered_map>

#include <cmath>

#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::sim {

namespace {

enum class EventKind { kTileComplete, kEdgeArrive };

struct Event {
  double time = 0.0;
  long long seq = 0;  // FIFO tie-break for determinism
  EventKind kind = EventKind::kEdgeArrive;
  int node = 0;
  IntVec tile;  // completed tile / consumer tile
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct NodeState {
  explicit NodeState(const runtime::TileOrder& order)
      : ready(order.less()) {}

  std::set<IntVec, runtime::TileOrder::Less> ready;
  std::unordered_map<IntVec, int, IntVecHash> waiting;       // deps left
  std::unordered_map<IntVec, int, IntVecHash> stored_edges;  // buffered
  std::vector<double> core_free;  // absolute free times
  double busy = 0.0;
  long long cur_edges = 0;
  // Live-telemetry counters (only read when monitoring is on).
  long long executed = 0;
  long long executed_cells = 0;
  long long sent_bytes = 0;
  long long sent_msgs = 0;
};

}  // namespace

SimResult simulate(const tiling::TilingModel& model, const IntVec& params,
                   const ClusterConfig& cfg) {
  DPGEN_CHECK(cfg.nodes >= 1 && cfg.cores_per_node >= 1,
              "cluster needs at least one node and one core");
  DPGEN_CHECK(cfg.sec_per_cell > 0, "sec_per_cell must be positive");
  DPGEN_CHECK(cfg.node_slowdown.empty() ||
                  cfg.node_slowdown.size() ==
                      static_cast<std::size_t>(cfg.nodes),
              "node_slowdown must be empty or have one factor per node");
  for (double f : cfg.node_slowdown)
    DPGEN_CHECK(f > 0, "node_slowdown factors must be positive");

  tiling::LoadBalancer balancer(model, params, cfg.nodes, cfg.balance);

  runtime::TileOrder order(model.priority_dims(), model.problem().dep_signs(),
                           cfg.policy);

  std::vector<NodeState> nodes;
  nodes.reserve(static_cast<std::size_t>(cfg.nodes));
  for (int n = 0; n < cfg.nodes; ++n) {
    nodes.emplace_back(order);
    nodes.back().core_free.assign(
        static_cast<std::size_t>(cfg.cores_per_node), 0.0);
  }

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  long long seq = 0;

  SimResult result;
  const bool msg_trace = !cfg.msgtrace_path.empty();
  const bool record_timeline = cfg.record_timeline ||
                               !cfg.report_json_path.empty() || msg_trace;
  result.bytes_matrix.assign(
      static_cast<std::size_t>(cfg.nodes),
      std::vector<std::uint64_t>(static_cast<std::size_t>(cfg.nodes), 0));
  result.messages_matrix.assign(
      static_cast<std::size_t>(cfg.nodes),
      std::vector<std::uint64_t>(static_cast<std::size_t>(cfg.nodes), 0));
  long long global_edges = 0;
  // Per-link sequence counters for synthesized message records; simulated
  // seconds map to trace nanoseconds.
  std::map<std::pair<int, int>, std::int64_t> link_seq;
  auto sim_ns = [](double t) { return static_cast<std::int64_t>(t * 1e9); };

  auto tile_cost = [&](int n, const IntVec& t) {
    const double slow = cfg.node_slowdown.empty()
                            ? 1.0
                            : cfg.node_slowdown[static_cast<std::size_t>(n)];
    return slow * (cfg.tile_overhead_sec +
                   static_cast<double>(model.cell_count(params, t)) *
                       cfg.sec_per_cell);
  };

  // Live monitoring against DES time: the event loop publishes synthetic
  // heartbeats at every interval boundary it crosses, so detector
  // behaviour is exactly reproducible (no sampler thread, no wall clock).
  std::optional<obs::Monitor> monitor;
  double monitor_interval = cfg.monitor_interval_s;
  if (!cfg.events_path.empty()) {
    if (monitor_interval <= 0) {
      // Predicted makespan (balanced-compute estimate) split ~32 ways.
      double cells = 0.0;
      for (int r = 0; r < cfg.nodes; ++r)
        cells += static_cast<double>(balancer.owned_work(r));
      monitor_interval = std::max(
          cells * cfg.sec_per_cell / (cfg.nodes * cfg.cores_per_node) / 32.0,
          cfg.sec_per_cell);
    }
    obs::MonitorOptions mopt;
    mopt.nranks = cfg.nodes;
    mopt.interval_s = monitor_interval;
    if (cfg.events_path != "-") mopt.events_path = cfg.events_path;
    for (int r = 0; r < cfg.nodes; ++r)
      mopt.predicted_work.push_back(
          static_cast<double>(balancer.owned_work(r)));
    mopt.sampler_thread = false;
    mopt.source = "sim";
    mopt.problem = model.problem().problem_name();
    monitor.emplace(std::move(mopt));
  }
  auto publish_all = [&](std::vector<NodeState>& ns, double t) {
    for (int n = 0; n < cfg.nodes; ++n) {
      const NodeState& node = ns[static_cast<std::size_t>(n)];
      obs::RankSnapshot s;
      s.t_s = t;
      s.executed = node.executed;
      s.executed_cells = node.executed_cells;
      s.owned = balancer.owned_tiles(n);
      s.pending_tiles = static_cast<long long>(node.waiting.size());
      s.ready_tiles = static_cast<long long>(node.ready.size());
      s.buffered_edges = node.cur_edges;
      s.bytes_sent = node.sent_bytes;
      s.messages_sent = node.sent_msgs;
      s.progress_marker = node.executed;
      // A core is busy at `t` when its absolute free time lies ahead.
      for (double f : node.core_free)
        if (f > t + 1e-15) ++s.active_workers;
      s.workers = cfg.cores_per_node;
      monitor->publish(n, s);
    }
  };

  // Dispatch any idle cores of a node onto ready tiles.
  auto dispatch = [&](int n, double now) {
    auto& node = nodes[static_cast<std::size_t>(n)];
    while (!node.ready.empty()) {
      // Find an idle core.
      std::size_t core = node.core_free.size();
      for (std::size_t c = 0; c < node.core_free.size(); ++c) {
        if (node.core_free[c] <= now + 1e-15) {
          core = c;
          break;
        }
      }
      if (core == node.core_free.size()) break;  // all busy
      IntVec tile = *node.ready.begin();
      node.ready.erase(node.ready.begin());
      // Release the buffered edges this tile accumulated.
      auto it = node.stored_edges.find(tile);
      if (it != node.stored_edges.end()) {
        node.cur_edges -= it->second;
        global_edges -= it->second;
        node.stored_edges.erase(it);
      }
      // Cells are credited at dispatch, mirroring the driver: a core
      // inside one expensive tile must not read as stalled.
      if (monitor) node.executed_cells += model.cell_count(params, tile);
      double duration = tile_cost(n, tile);
      double finish = now + duration;
      node.core_free[core] = finish;
      node.busy += duration;
      if (record_timeline)
        result.timeline.push_back(
            {n, static_cast<int>(core), now, finish, tile});
      events.push({finish, seq++, EventKind::kTileComplete, n, tile});
    }
  };

  // Seed the initial (dependency-free) tiles.
  model.for_each_initial_tile(params, [&](const IntVec& t) {
    int n = balancer.owner(t);
    nodes[static_cast<std::size_t>(n)].ready.insert(t);
  });
  for (int n = 0; n < cfg.nodes; ++n) dispatch(n, 0.0);

  // Events are processed in same-timestamp batches: all completions and
  // arrivals at time `now` take effect before any core is dispatched.
  // This matches the real runtime, where a finishing worker delivers all
  // its outgoing edges before the next pop, so the priority queue chooses
  // among every tile that became eligible "at the same moment".
  double makespan = 0.0;
  std::set<int> touched;
  double next_sample = monitor_interval;
  while (!events.empty()) {
    const double now = events.top().time;
    makespan = std::max(makespan, now);
    // Cross every sampling boundary up to `now` before applying this
    // batch: the node states still describe simulated time < now, so each
    // published heartbeat is the state exactly at its boundary.
    while (monitor && next_sample <= now) {
      publish_all(nodes, next_sample);
      monitor->tick(next_sample);
      next_sample += monitor_interval;
    }
    touched.clear();
    while (!events.empty() && events.top().time == now) {
      Event ev = events.top();
      events.pop();
      auto& node = nodes[static_cast<std::size_t>(ev.node)];
      touched.insert(ev.node);

      if (ev.kind == EventKind::kTileComplete) {
        ++result.tiles;
        ++node.executed;
        // Route each outgoing edge to its consumer.
        for (int e = 0; e < model.num_edges(); ++e) {
          IntVec consumer = vec_sub(
              ev.tile, model.edges()[static_cast<std::size_t>(e)].offset);
          if (!model.tile_in_space(params, consumer)) continue;
          int dst = balancer.owner(consumer);
          double arrive = ev.time;
          if (dst != ev.node) {
            double scalars = static_cast<double>(
                model.edges()[static_cast<std::size_t>(e)].capacity);
            arrive += cfg.link_latency_sec +
                      scalars / cfg.link_bandwidth_scalars;
            ++result.remote_messages;
            result.remote_scalars += scalars;
            auto src = static_cast<std::size_t>(ev.node);
            auto dsts = static_cast<std::size_t>(dst);
            ++result.messages_matrix[src][dsts];
            const auto wire_bytes = static_cast<std::uint64_t>(
                model.edges()[static_cast<std::size_t>(e)].capacity *
                static_cast<Int>(sizeof(double)));
            result.bytes_matrix[src][dsts] += wire_bytes;
            ++node.sent_msgs;
            node.sent_bytes += static_cast<long long>(wire_bytes);
            if (msg_trace) {
              // The DES has no pack/admit granularity: those stamps
              // collapse onto the producer's completion, so the
              // decomposition puts the whole modelled link cost in the
              // `queue` bucket.  Consumer-side stamps are filled in after
              // the run from the consumer's execute start.
              obs::MsgRecord m;
              m.seq = link_seq[{ev.node, dst}]++;
              m.pack_ns = m.send_ns = m.admit_ns = sim_ns(ev.time);
              m.deliver_ns = sim_ns(arrive);
              m.bytes = static_cast<std::int64_t>(wire_bytes);
              m.src = static_cast<std::int16_t>(ev.node);
              m.dst = static_cast<std::int16_t>(dst);
              m.edge = static_cast<std::int16_t>(e);
              m.ncoord = static_cast<std::uint8_t>(std::min<std::size_t>(
                  consumer.size(), obs::kMaxSpanDims));
              for (std::size_t k = 0; k < m.ncoord; ++k)
                m.consumer[k] = static_cast<std::int32_t>(consumer[k]);
              result.msg_records.push_back(m);
            }
          }
          events.push(
              {arrive, seq++, EventKind::kEdgeArrive, dst, consumer});
        }
      } else {  // kEdgeArrive
        ++node.cur_edges;
        ++global_edges;
        result.peak_buffered_edges =
            std::max(result.peak_buffered_edges, global_edges);
        ++node.stored_edges[ev.tile];
        auto it = node.waiting.find(ev.tile);
        if (it == node.waiting.end()) {
          int expected =
              static_cast<int>(model.deps_of(params, ev.tile).size());
          it = node.waiting.emplace(ev.tile, expected).first;
        }
        if (--it->second == 0) {
          node.waiting.erase(it);
          node.ready.insert(ev.tile);
        }
      }
    }
    for (int n : touched) dispatch(n, now);
  }

  if (monitor) {
    // Final heartbeat at the makespan (all tables drained), final
    // detector pass, run_end event.
    publish_all(nodes, makespan);
    monitor->stop(makespan);
    result.stragglers = monitor->stragglers();
  }

  result.makespan = makespan;
  result.node_busy.reserve(nodes.size());
  double total_busy = 0.0;
  for (const auto& n : nodes) {
    result.node_busy.push_back(n.busy);
    total_busy += n.busy;
    DPGEN_ASSERT(n.ready.empty());
    DPGEN_ASSERT(n.waiting.empty());
  }
  result.total_work_sec = total_busy;
  result.utilization =
      makespan > 0
          ? total_busy / (makespan * cfg.nodes * cfg.cores_per_node)
          : 1.0;
  DPGEN_CHECK(result.tiles == model.total_tiles(params),
              "simulation did not execute every tile (scheduling bug)");

  if (msg_trace) {
    // Complete the consumer-side stamps: a simulated consumer "unpacks"
    // and "dispatches" when its tile starts executing.
    std::unordered_map<IntVec, const TileSpan*, IntVecHash> span_of;
    for (const TileSpan& ts : result.timeline) span_of[ts.tile] = &ts;
    for (obs::MsgRecord& m : result.msg_records) {
      IntVec consumer(static_cast<std::size_t>(m.ncoord));
      for (std::uint8_t k = 0; k < m.ncoord; ++k)
        consumer[k] = static_cast<Int>(m.consumer[k]);
      auto it = span_of.find(consumer);
      if (it == span_of.end()) continue;  // truncated coords; leave zeros
      m.unpack_ns = m.dispatch_ns =
          std::max(m.deliver_ns, sim_ns(it->second->start));
      m.dst_thread = static_cast<std::int16_t>(it->second->core);
    }
    if (cfg.msgtrace_path != "-") {
      obs::MsgTraceInput min;
      min.records = result.msg_records;
      min.nranks = cfg.nodes;
      min.sent_matrix = result.messages_matrix;
      min.source = "sim";
      min.problem = model.problem().problem_name();
      min.params = params;
      obs::write_msgtrace_json(cfg.msgtrace_path, min);
    }
  }

  if (!cfg.report_json_path.empty())
    obs::write_report_json(cfg.report_json_path,
                           obs::analyze(analysis_input(result, model, params,
                                                       cfg)));

  if (!cfg.profile_path.empty()) {
    // Synthetic profile: what a sampling profiler at profile_hz would have
    // seen, derived deterministically from DES time — per-node busy time
    // becomes tile_execute samples, the rest of the capacity becomes idle
    // samples, and the counter channel carries simulated nanoseconds.
    obs::ProfileDoc doc;
    doc.source = "sim";
    doc.problem =
        cfg.problem_name.empty() ? model.problem().problem_name()
                                 : cfg.problem_name;
    doc.params = params;
    // Simulated makespans are often milliseconds, where a wall-clock-ish
    // rate would round every node to zero samples; the synthetic sampler
    // raises the rate until the run yields ~1000 samples of resolution
    // (deterministic — it only depends on the makespan).
    double hz = cfg.profile_hz;
    const double capacity_total =
        makespan * cfg.cores_per_node * cfg.nodes;
    if (capacity_total > 0 && capacity_total * hz < 1000.0)
      hz = 1000.0 / capacity_total;
    doc.hz = hz;
    doc.counters = "sim";
    doc.sampler = "synthetic";
    doc.nranks = cfg.nodes;
    obs::ProfileFamily fam;
    fam.name = doc.problem;
    double predicted = 0.0;
    for (int n = 0; n < cfg.nodes; ++n)
      predicted += static_cast<double>(balancer.owned_work(n));
    fam.predicted_cells = predicted;
    fam.tiles = result.tiles;
    fam.cells = static_cast<long long>(predicted);
    fam.exec_seconds = result.total_work_sec;
    fam.sampled_tiles = result.tiles;
    fam.sampled_cells = fam.cells;
    fam.sampled_exec_seconds = result.total_work_sec;
    fam.cycles =
        static_cast<std::uint64_t>(result.total_work_sec * 1e9);  // sim ns
    for (int n = 0; n < cfg.nodes; ++n) {
      const double busy = result.node_busy[static_cast<std::size_t>(n)];
      const double capacity = makespan * cfg.cores_per_node;
      const auto busy_samples =
          static_cast<long long>(std::llround(busy * hz));
      const auto idle_samples = static_cast<long long>(
          std::llround(std::max(0.0, capacity - busy) * hz));
      doc.phase_samples[static_cast<std::size_t>(
          obs::Phase::kTileExecute)] += busy_samples;
      doc.phase_samples[static_cast<std::size_t>(obs::Phase::kIdle)] +=
          idle_samples;
      doc.samples_total += busy_samples + idle_samples;
      if (busy_samples > 0)
        doc.folded.push_back(
            {cat("rank", n, ";tile_execute"), busy_samples});
      if (idle_samples > 0)
        doc.folded.push_back({cat("rank", n, ";idle"), idle_samples});
      obs::ProfileThreadSummary ts;
      ts.rank = n;
      ts.thread = 0;
      ts.samples = busy_samples + idle_samples;
      doc.threads.push_back(ts);
    }
    doc.families.push_back(std::move(fam));
    obs::write_profile_json(cfg.profile_path, doc);
  }
  return result;
}

obs::AnalysisInput analysis_input(const SimResult& result,
                                  const tiling::TilingModel& model,
                                  const IntVec& params,
                                  const ClusterConfig& cfg) {
  obs::AnalysisInput in;
  in.source = "sim";
  in.problem = model.problem().problem_name();
  in.params = params;
  in.nranks = cfg.nodes;
  for (const auto& e : model.edges()) in.edge_offsets.push_back(e.offset);
  tiling::LoadBalancer balancer(model, params, cfg.nodes, cfg.balance);
  for (int r = 0; r < cfg.nodes; ++r)
    in.predicted_work.push_back(static_cast<double>(balancer.owned_work(r)));
  in.bytes_matrix = result.bytes_matrix;
  in.messages_matrix = result.messages_matrix;
  in.msg_records = result.msg_records;
  in.spans.reserve(result.timeline.size());
  for (const TileSpan& ts : result.timeline) {
    obs::Span s;
    s.start_ns = static_cast<std::int64_t>(ts.start * 1e9);
    s.end_ns = static_cast<std::int64_t>(ts.end * 1e9);
    s.rank = static_cast<std::int16_t>(ts.node);
    s.thread = static_cast<std::int16_t>(ts.core);
    s.phase = obs::Phase::kTileExecute;
    s.ncoord = static_cast<std::uint8_t>(
        std::min<std::size_t>(ts.tile.size(), obs::kMaxSpanDims));
    for (std::size_t k = 0; k < s.ncoord; ++k)
      s.coord[k] = static_cast<std::int32_t>(ts.tile[k]);
    in.spans.push_back(s);
  }
  return in;
}

std::vector<double> utilization_profile(const SimResult& result,
                                        int total_cores, int buckets) {
  DPGEN_CHECK(buckets >= 1 && total_cores >= 1,
              "utilization_profile needs positive buckets and cores");
  std::vector<double> busy(static_cast<std::size_t>(buckets), 0.0);
  if (result.makespan <= 0.0) return busy;
  const double width = result.makespan / buckets;
  for (const auto& span : result.timeline) {
    // Distribute the span's busy time over the buckets it overlaps.
    int b0 = std::min(buckets - 1, static_cast<int>(span.start / width));
    int b1 = std::min(buckets - 1, static_cast<int>(span.end / width));
    for (int b = b0; b <= b1; ++b) {
      double lo = std::max(span.start, b * width);
      double hi = std::min(span.end, (b + 1) * width);
      if (hi > lo) busy[static_cast<std::size_t>(b)] += hi - lo;
    }
  }
  for (auto& v : busy) v /= width * total_cores;
  return busy;
}

}  // namespace dpgen::sim
