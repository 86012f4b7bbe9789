#include "engine/engine.hpp"

#include <mutex>

#include "engine/decisions.hpp"
#include "engine/interpret.hpp"
#include "support/str.hpp"

namespace dpgen::engine {

namespace {

/// Every value of the run under record_all (shared across ranks); the
/// probes and the tracked maximum go to the run's ResultSink.
struct Recorder {
  std::mutex mu;
  std::unordered_map<IntVec, double, IntVecHash> values;
  bool record_all = false;
  bool track_max = false;
};

/// ProblemHooks implementation that interprets the TilingModel.  One
/// instance serves every rank.
class ModelHooks final : public runtime::ProblemHooks<double> {
 public:
  ModelHooks(const tiling::TilingModel& model, const IntVec& params,
             const CenterFn& center, Recorder& recorder,
             EdgeStore* edge_store,
             const std::function<void(const IntVec&)>& tile_hook,
             DecisionLog* decision_log)
      : model_(model),
        params_(params),
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

  bool tile_max(const IntVec& tile, const double* buffer, double& value,
                Int* point) const override {
    if (!recorder_.track_max) return false;
    bool have = false;
    IntVec global(static_cast<std::size_t>(model_.dim()));
    model_.for_each_row(params_, tile, [&](const tiling::CellRow& row) {
      for (Int i = row.lo; i <= row.hi; ++i) {
        const double v = buffer[row.loc + i];
        row.point(i, global);
        if (!have ||
            runtime::max_beats(v, global.data(), value, point, model_.dim())) {
          have = true;
          value = v;
          std::copy(global.begin(), global.end(), point);
        }
      }
    });
    return have;
  }

  void on_tile_executed(const IntVec& tile, const double* buffer) override {
    if (tile_hook_) tile_hook_(tile);
    if (!recorder_.record_all) return;
    std::lock_guard<std::mutex> lock(recorder_.mu);
    IntVec global(static_cast<std::size_t>(model_.dim()));
    model_.for_each_row(params_, tile, [&](const tiling::CellRow& row) {
      for (Int i = row.lo; i <= row.hi; ++i) {
        row.point(i, global);
        recorder_.values[global] = buffer[row.loc + i];
      }
    });
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
  Recorder recorder;
  runtime::ResultSink<double> sink({options.probes, model.problem().widths(),
                                    model.strides(), model.ghost_lo()});
  recorder.record_all = options.record_all;
  recorder.track_max = options.track_max;

  // One Ehrhart load-balance cut per attempt, over the ranks still alive.
  auto plan = [&](int alive) {
    return runtime::LaunchPlan<double>{
        .hooks = std::make_unique<ModelHooks>(
            model, params, center, recorder, options.edge_store,
            options.on_tile_executed, options.decision_log),
        .owners = tiling::LoadBalancer(model, params, alive, options.balance),
        .sink = &sink,
        .order = runtime::TileOrder(model.priority_dims(),
                                    model.problem().dep_signs(),
                                    options.policy)};
  };
  runtime::LaunchLabels labels;
  labels.problem = model.problem().problem_name();
  labels.params = params;
  labels.profile_problem = options.profile_problem;
  EngineResult result;
  static_cast<runtime::LaunchResult&>(result) =
      runtime::launch<double>(plan, options, labels);
  result.values = std::move(recorder.values);
  for (const auto& [point, value] : sink.values())
    result.values.emplace(point, value);
  result.max_value = sink.max_value();
  result.max_point = sink.max_point();
  return result;
}

}  // namespace dpgen::engine
