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
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

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

/// A run of consecutive cells in one tile row that share their validity
/// flags.  Cell n (0 <= n < count) sits at buffer index loc + n * step with
/// innermost coordinate x[dim-1] + n * step; every other Cell field is the
/// same for the whole run.
struct CellRun {
  double* V = nullptr;
  Int loc = 0;         ///< index of the first cell
  Int count = 0;
  Int step = 1;        ///< +1 ascending, -1 descending
  const Int* dep_offsets = nullptr;  ///< loc_rj - loc per dependency
  std::size_t ndeps = 0;
  const unsigned char* valid = nullptr;  ///< per-dependency validity flags
  Int* x = nullptr;    ///< dim coordinates of the first cell; x[dim-1] is
                       ///< stepped in place and left at the last cell's
  int dim = 0;
  const Int* params = nullptr;
  Int* loc_dep = nullptr;  ///< caller-owned scratch for ndeps indices
  /// When non-null, each cell's decision byte is appended in run order.
  std::vector<unsigned char>* decisions = nullptr;
};

/// The center-loop body: called once per location, in a valid order.
/// Must be thread-safe (multiple tiles execute concurrently); copies share
/// the one stored kernel.  Any callable taking `const Cell&` converts
/// implicitly.  The kernel has two entry points: a single Cell, and a
/// CellRun, whose loop is instantiated with the kernel inlined so a row
/// interior costs one indirect call rather than one per cell.
class CenterFn {
 public:
  CenterFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, CenterFn> &&
                std::is_invocable_v<std::decay_t<F>&, const Cell&>>>
  CenterFn(F&& fn)  // NOLINT(google-explicit-constructor)
      : kernel_(std::make_shared<Kernel<std::decay_t<F>>>(
            std::forward<F>(fn))) {}

  /// Runs the kernel on one cell.
  void operator()(const Cell& cell) const { kernel_->cell(cell); }

  /// Runs the kernel on every cell of `run`, in run order: the same Cell
  /// values and decision bytes as one cell call per cell with the
  /// decision slot zeroed before each.
  void run(const CellRun& run) const { kernel_->run(run); }

 private:
  struct KernelBase {
    virtual ~KernelBase() = default;
    virtual void cell(const Cell& cell) = 0;
    virtual void run(const CellRun& run) = 0;
  };

  template <typename F>
  struct Kernel final : KernelBase {
    explicit Kernel(F f) : fn(std::move(f)) {}
    void cell(const Cell& cell) override { fn(cell); }
    void run(const CellRun& r) override {
      // Two loops, so the common no-log one carries no per-cell branch
      // and no byte store the compiler must assume aliases the kernel's
      // data.
      if (r.decisions)
        run_cells<true>(r);
      else
        run_cells<false>(r);
    }
    template <bool kLog>
    void run_cells(const CellRun& r) {
      // Locals, not r's fields: the kernel's stores cannot alias them.
      const Int* const offsets = r.dep_offsets;
      const std::size_t ndeps = r.ndeps;
      Int* const loc_dep = r.loc_dep;
      Int* const inner = r.x + (r.dim - 1);
      std::vector<unsigned char>* const decisions = r.decisions;
      const Int count = r.count;
      const Int step = r.step;
      unsigned char slot = 0;
      Cell cell;
      cell.V = r.V;
      cell.loc_dep = loc_dep;
      cell.valid = r.valid;
      cell.x = r.x;
      cell.params = r.params;
      cell.decision = &slot;
      Int loc = r.loc;
      Int x_inner = *inner;
      for (Int n = 0; n < count; ++n, loc += step, x_inner += step) {
        cell.loc = loc;
        for (std::size_t j = 0; j < ndeps; ++j) loc_dep[j] = loc + offsets[j];
        *inner = x_inner;
        slot = 0;
        fn(static_cast<const Cell&>(cell));
        if constexpr (kLog) decisions->push_back(slot);
      }
    }
    F fn;
  };

  std::shared_ptr<KernelBase> kernel_;
};

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
