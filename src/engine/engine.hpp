#pragma once
// Direct (interpreted) execution of a ProblemSpec.
//
// The engine runs any problem end-to-end through the exact same machinery a
// generated program uses — TilingModel geometry, LoadBalancer ownership,
// the runtime tile scheduler and the minimpi message layer — but with the
// center loop supplied as a C++ callable instead of emitted source.  Tests,
// benchmarks and examples use it to execute problems without invoking a
// compiler; the code generator's output is validated against it.

#include <functional>
#include <mutex>
#include <unordered_map>

#include "runtime/launch.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace dpgen::engine {

/// Everything a center-loop kernel may touch for the current location,
/// mirroring the symbols the paper gives generated center code (IV.B):
/// V[loc], V[loc_r1...], is_valid_r1..., the original loop variables and
/// the input parameters.
struct Cell {
  double* V = nullptr;        ///< tile buffer base ("state array")
  Int loc = 0;                ///< index of the current location
  const Int* loc_dep = nullptr;          ///< per-dependency indices (loc_rj)
  const unsigned char* valid = nullptr;  ///< per-dependency validity flags
  const Int* x = nullptr;      ///< original loop variable values (d of them)
  const Int* params = nullptr; ///< input parameter values
  /// Optional decision slot: write the chosen action here to feed a
  /// DecisionLog (always a valid pointer; ignored unless a log is
  /// attached).
  unsigned char* decision = nullptr;
};

/// The center-loop body: called once per location, in a valid order.
/// Must be thread-safe (multiple tiles execute concurrently).
using CenterFn = std::function<void(const Cell&)>;

/// Captures every packed edge delivered during a run, keyed by the
/// consuming tile — the storage the paper's solution-recovery scheme
/// (section VII.A) needs: "the edges of the tiles could be saved, and
/// needed tiles recalculated on the fly during the traceback".
struct EdgeStore {
  std::mutex mu;
  std::unordered_map<IntVec, std::vector<runtime::EdgeData<double>>,
                     IntVecHash>
      by_consumer;
};

/// runtime::LaunchOptions (the run-level knobs) plus the engine-only ones.
struct EngineOptions : runtime::LaunchOptions {
  tiling::BalanceMethod balance = tiling::BalanceMethod::kPerDimension;
  /// Record the value of every location (small problems / oracle tests).
  bool record_all = false;
  /// Specific locations to record (global coordinates).
  std::vector<IntVec> probes;
  /// When set, every delivered tile edge is also copied here (enables
  /// post-run solution recovery; see engine/recovery.hpp).
  EdgeStore* edge_store = nullptr;
  /// Called after each tile finishes executing (under no lock; must be
  /// thread-safe).  Used by tests to observe the actual schedule.
  std::function<void(const IntVec& tile)> on_tile_executed;
  /// When set, per-cell decisions written through Cell::decision are
  /// stored run-length encoded (paper VII.A's decision matrix).
  class DecisionLog* decision_log = nullptr;
  /// Track the maximum value over ALL locations (and its lexicographically
  /// smallest location) — the objective shape of local-alignment style
  /// DPs, where the answer is max over the whole space rather than f(0).
  bool track_max = false;
  /// Label stamped into the profile document (family name for the cost
  /// table); defaults to the problem name when empty.
  std::string profile_problem;
};

/// runtime::LaunchResult plus the engine's recorded values.
struct EngineResult : runtime::LaunchResult {
  /// Recorded values keyed by global coordinate.
  std::unordered_map<IntVec, double, IntVecHash> values;
  /// Filled when EngineOptions::track_max is set: the maximum value over
  /// every location and its (lex-smallest) coordinates.
  double max_value = 0.0;
  IntVec max_point;

  /// Value at a recorded location; throws when it was not recorded.
  double at(const IntVec& point) const;

  /// Sums a statistic across ranks.
  long long total(long long runtime::RunStats::* field) const;
};

/// Runs the problem for the given parameter values and returns recorded
/// values plus statistics.  The model must outlive the call.
EngineResult run(const tiling::TilingModel& model, const IntVec& params,
                 const CenterFn& center, const EngineOptions& options = {});

}  // namespace dpgen::engine
