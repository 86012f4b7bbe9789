// FAULTS — fault-tolerance overhead on the clean path, and the price of an
// actual recovery.  The checkpoint store logs every tile completion, so its
// clean-path cost is one mutex-guarded map insert per tile; the budget
// (docs/fault-tolerance.md) is < 3% of tile throughput, which check.sh
// gates from the faults/clean vs faults/checkpointed registry entries.
//
// Configurations:
//   * clean          — the workload with fault tolerance off (baseline);
//   * checkpointed   — fault_tolerant=true, in-memory CheckpointStore;
//   * checkpoint_json — ditto plus periodic dpgen.checkpoint.v1 flushes,
//     the configuration a long-running job would actually use;
//   * kill_restart   — a seeded mid-run rank kill: measures the full
//     checkpoint -> rebalance -> restart -> completion path.

#include "bench_util.hpp"

#include <cstdio>

#include "engine/engine.hpp"
#include "minimpi/faults.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

struct FaultsRow {
  double seconds = 0.0;
  long long tiles = 0;
  int restarts = 0;
};

enum class Mode { kClean, kCheckpointed, kCheckpointJson, kKillRestart };

FaultsRow run_once(const tiling::TilingModel& model, Int n, Mode mode) {
  engine::EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 1;
  switch (mode) {
    case Mode::kClean:
      break;
    case Mode::kCheckpointed:
      opt.fault_tolerant = true;
      break;
    case Mode::kCheckpointJson:
      opt.fault_tolerant = true;
      opt.checkpoint_json_path = "bench_faults_ckpt.json";
      opt.checkpoint_every_tiles = 64;
      break;
    case Mode::kKillRestart:
      opt.fault_plan = minimpi::FaultPlan::parse("kill:1@64");
      break;
  }
  auto r = engine::run(model, {n}, [](const engine::Cell& c) {
    c.V[c.loc] = 1.0;
    for (int j = 0; j < 2; ++j)
      if (c.valid[j]) c.V[c.loc] += c.V[c.loc_dep[j]];
  }, opt);
  FaultsRow row;
  for (const auto& s : r.rank_stats) {
    row.tiles += s.tiles_executed;
    row.seconds = std::max(row.seconds, s.total_seconds);
  }
  row.restarts = r.restarts;
  return row;
}

obs::BenchSample faults_sample(Mode mode) {
  // Production-shaped tiles: the paper sizes tiles to amortize per-tile
  // communication, and the checkpoint's per-tile cost (one store insert +
  // one payload copy per outgoing edge) amortizes the same way.  At w=64
  // a tile is 4096 cells against ~0.5us of bookkeeping, which is what the
  // < 3% clean-path budget is defined over — scheduling-bound microtiles
  // (hotpath/grid_w2) would put near-zero compute under the same constant
  // and measure the store, not the overhead.
  tiling::TilingModel model(grid_spec(64));
  const Int n = 2047;
  FaultsRow row = run_once(model, n, mode);
  obs::BenchSample s;
  s.seconds = row.seconds;
  const double cells = static_cast<double>(model.total_cells({n}));
  s.metrics = {{"tiles", static_cast<double>(row.tiles)},
               {"cells_per_sec", row.seconds > 0 ? cells / row.seconds : 0.0},
               {"restarts", static_cast<double>(row.restarts)}};
  return s;
}

void faults_table() {
  header("FAULTS", "checkpoint overhead (clean path) and recovery cost");
  std::printf("%-17s %-9s %-12s %-14s %-9s\n", "config", "tiles", "seconds",
              "cells_per_sec", "restarts");
  struct Config {
    const char* name;
    Mode mode;
  };
  const Config configs[] = {
      {"clean", Mode::kClean},
      {"checkpointed", Mode::kCheckpointed},
      {"checkpoint_json", Mode::kCheckpointJson},
      {"kill_restart", Mode::kKillRestart},
  };
  tiling::TilingModel model(grid_spec(64));
  const Int n = 1023;
  const double cells = static_cast<double>(model.total_cells({n}));
  for (const auto& cfg : configs) {
    // One warm-up, then best-of-3 (the container is a single shared core).
    (void)run_once(model, n, cfg.mode);
    FaultsRow best;
    for (int rep = 0; rep < 3; ++rep) {
      FaultsRow row = run_once(model, n, cfg.mode);
      if (best.seconds == 0.0 || row.seconds < best.seconds) best = row;
    }
    const double rate = best.seconds > 0 ? cells / best.seconds : 0.0;
    std::printf("%-17s %-9lld %-12.4f %-14.0f %-9d\n", cfg.name, best.tiles,
                best.seconds, rate, best.restarts);
  }
  std::remove("bench_faults_ckpt.json");
  std::printf("\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("faults/clean",
                 [] { return faults_sample(Mode::kClean); });
  // check.sh gates checkpointed >= 0.97x clean cells_per_sec (the < 3%
  // clean-path overhead budget).
  register_bench("faults/checkpointed",
                 [] { return faults_sample(Mode::kCheckpointed); });
  register_bench("faults/kill_restart",
                 [] { return faults_sample(Mode::kKillRestart); });
  register_table("FAULTS", faults_table);
  return true;
}();

}  // namespace
