#include "codegen/generator.hpp"

#include <fstream>

#include "codegen/emit.hpp"
#include "codegen/passes.hpp"
#include "poly/ehrhart.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::codegen {

namespace {

std::string array_literal(const IntVec& v) {
  std::vector<std::string> parts;
  for (Int x : v) parts.push_back(std::to_string(x) + "LL");
  return "{" + join(parts, ", ") + "}";
}

std::string int_array_literal(const std::vector<int>& v) {
  std::vector<std::string> parts;
  for (int x : v) parts.push_back(std::to_string(x));
  return "{" + join(parts, ", ") + "}";
}

/// Builds the generated program for one model.
class ProgramBuilder {
 public:
  ProgramBuilder(const tiling::TilingModel& model, const GenOptions& opt)
      : m_(model),
        spec_(model.problem()),
        opt_(opt),
        plan_(LayoutPlan::make(model, opt.passes.layout)),
        full_split_(opt.passes.canonicalize &&
                    !model.full_tile_test().known_infeasible()),
        full_center_(full_split_ &&
                     !model.checks_hold_test().known_infeasible()) {
    d_ = m_.dim();
    p_ = m_.nparams();
    ext_names_ = m_.ext_vars().names();
    if (opt_.probes.empty())
      probes_.push_back(IntVec(static_cast<std::size_t>(d_), 0));
    else
      probes_ = opt_.probes;
    for (const auto& pt : probes_)
      DPGEN_CHECK(static_cast<int>(pt.size()) == d_,
                  "probe dimensionality mismatch");
  }

  std::string build() {
    header();
    helpers();
    user_globals();
    constants();
    tile_exists_fn();
    tile_full_fn();
    counting_fns();
    total_work_fn();
    problem_class();
    main_fn();
    return w_.str();
  }

 private:
  // ---- small helpers -------------------------------------------------------

  /// Declares every input parameter from a pointer expression.  The
  /// pointer itself is voided first: parameter-free problems would
  /// otherwise leave it unused.
  void param_preamble(const std::string& ptr) {
    w_.line(cat("(void)", ptr, ";"));
    for (int i = 0; i < p_; ++i)
      w_.line(cat("const long long ",
                  spec_.param_names()[static_cast<std::size_t>(i)], " = ",
                  ptr, "[", i, "]; (void)",
                  spec_.param_names()[static_cast<std::size_t>(i)], ";"));
  }

  /// Declares every tile index variable (t_<var>) from an indexable
  /// expression.  Not every emitted loop nest references every tile index
  /// (box-shaped spaces), hence the (void) silencers.
  void tile_preamble(const std::string& arr) {
    for (int k = 0; k < d_; ++k) {
      const std::string& name =
          ext_names_[static_cast<std::size_t>(m_.ext_tile(k))];
      w_.line(cat("const long long ", name, " = ", arr, "[", k, "]; (void)",
                  name, ";"));
    }
  }

  /// The mapping-function expression for `loc` (paper IV.H): a linear
  /// combination of the local loop variables plus the ghost offset, over
  /// the active layout plan's strides (identity, or the layout pass's
  /// padded variant).
  std::string loc_expr() const { return loc_expr_cpp(m_, plan_, ext_names_); }

  // ---- sections -------------------------------------------------------------

  void header() {
    w_.line(cat("// Generated by dpgen for problem '", spec_.problem_name(),
                "'."));
    w_.line("// Hybrid OpenMP + message-passing program: compile with");
    w_.line("//   c++ -std=c++20 -O2 -fopenmp -DDPGEN_RUNTIME_USE_OPENMP");
    w_.line("//       -I<repo>/src <this file> -ldpgen_runtime -ldpgen_minimpi");
    w_.line("//       -ldpgen_obs -ldpgen_support -lpthread");
    w_.line("// The double-precision worker loop is compiled into dpgen_runtime,");
    w_.line("// so threading follows the library build: OpenMP workers when it");
    w_.line("// was built with OpenMP (link with -fopenmp), else std::thread.");
    w_.line("// Everything below is problem-specific: main parses flags and");
    w_.line("// calls the pre-written launcher (runtime/launch.hpp).");
    w_.line("// Run with --trace=<path> to record a Perfetto timeline and");
    w_.line("// --metrics=<path> for a metrics dump (docs/observability.md);");
    w_.line("// The span hooks live in the libraries: configure them with");
    w_.line("// -DDPGEN_TRACE=OFF and compile this file with -DDPGEN_TRACE=0.");
    w_.line("// --monitor=<path> streams live dpgen.events.v1 telemetry");
    w_.line("// (per-rank heartbeats + online straggler detection) there;");
    w_.line("// --monitor-interval=<seconds> tunes the sampling period.");
    w_.line("// --profile=<path> runs the sampling profiler + hardware");
    w_.line("// counters and writes a dpgen.profile.v1 document (\"-\" prints");
    w_.line("// the summary only); --profile-hz=<n> tunes the sampling rate");
    w_.line("// and --profile-cputime forces the perf-free fallback.");
    if (opt_.passes.any()) {
      w_.line(cat("// Codegen optimization passes: ", opt_.passes.to_string(),
                  " (docs/codegen.md);"));
      if (opt_.passes.loop_passes())
        w_.line(
            "// --passes=none reverts to the plain center loop at run time.");
    }
    w_.line("//");
    w_.line("// Problem description this program was generated from:");
    {
      std::string text = spec_.to_text();
      std::string line;
      for (char c : text) {
        if (c == '\n') {
          w_.line("//   " + line);
          line.clear();
        } else {
          line += c;
        }
      }
      if (!line.empty()) w_.line("//   " + line);
    }
    w_.blank();
    w_.line("#include <cstdio>");
    w_.line("#include <cstdlib>");
    w_.line("#include <cstring>");
    w_.line("#include <map>");
    w_.line("#include <memory>");
    w_.line("#include <mutex>");
    w_.line("#include <set>");
    w_.line("#include <string>");
    w_.line("#include <vector>");
    w_.blank();
    w_.line("#include \"runtime/driver.hpp\"");
    w_.line("#include \"runtime/launch.hpp\"");
    w_.line("#include \"runtime/order.hpp\"");
    w_.blank();
    w_.line(cat("using dp_scalar = ", spec_.scalar_type(), ";"));
    w_.blank();
  }

  void helpers() {
    w_.raw_block(R"(static inline long long dp_floordiv(long long a, long long b) {
  long long q = a / b, r = a % b;
  if (r != 0 && ((r < 0) != (b < 0))) --q;
  return q;
}
static inline long long dp_ceildiv(long long a, long long b) {
  long long q = a / b, r = a % b;
  if (r != 0 && ((r < 0) == (b < 0))) ++q;
  return q;
}
static inline long long dp_min(long long a, long long b) { return a < b ? a : b; }
static inline long long dp_max(long long a, long long b) { return a > b ? a : b; }
)");
    w_.blank();
  }

  void user_globals() {
    if (spec_.code().global.empty()) return;
    w_.line("// ---- user global definitions ----");
    w_.raw_block(spec_.code().global);
    w_.blank();
  }

  void constants() {
    w_.line("// ---- problem geometry (derived at generation time) ----");
    w_.line(cat("constexpr int kDim = ", d_, ";"));
    w_.line(cat("static const char kProblemName[] = \"",
                spec_.problem_name(), "\";"));
    w_.line(cat("constexpr int kParams = ", p_ == 0 ? 1 : p_,
                ";  // storage size (>=1)"));
    w_.line(cat("constexpr int kNumParams = ", p_, ";"));
    w_.line(cat("constexpr int kEdges = ", m_.num_edges(), ";"));
    w_.line(cat("constexpr long long kBufferSize = ", plan_.buffer_size, ";"));
    w_.line(cat("static const long long kWidths[kDim] = ",
                array_literal(spec_.widths()), ";"));
    w_.line(cat("static const long long kStrides[kDim] = ",
                array_literal(plan_.strides), ";"));
    w_.line(cat("static const long long kGhostLo[kDim] = ",
                array_literal(plan_.ghost_lo), ";"));
    {
      std::vector<std::string> rows;
      for (const auto& e : m_.edges()) rows.push_back(array_literal(e.offset));
      w_.line(cat("static const long long kEdgeOffsets[kEdges][kDim] = {",
                  join(rows, ", "), "};"));
    }
    {
      // Constant buffer-index shift applied when unpacking each edge:
      // consumer ghost index = producer local index + sum_k strides*w*delta.
      IntVec shifts(plan_.unpack_shifts.begin(), plan_.unpack_shifts.end());
      w_.line(cat("static const long long kUnpackShift[kEdges] = ",
                  array_literal(shifts), ";"));
    }
    {
      // Upper bound on each edge's payload (product of slab extents); the
      // driver sizes pack destinations with it.
      IntVec caps;
      for (const auto& e : m_.edges()) caps.push_back(e.capacity);
      w_.line(cat("static const long long kEdgeCapacity[kEdges] = ",
                  array_literal(caps), ";"));
    }
    w_.line(cat("static const int kDimPriority[kDim] = ",
                int_array_literal(m_.priority_dims()), ";"));
    w_.line(cat("static const int kDepSigns[kDim] = ",
                int_array_literal(spec_.dep_signs()), ";"));
    w_.line(cat("constexpr int kLbDims = ",
                static_cast<int>(m_.lb_dims().size()), ";"));
    if (!m_.lb_dims().empty())
      w_.line(cat("static const int kLbDim[kLbDims] = ",
                  int_array_literal(m_.lb_dims()), ";"));
    {
      std::vector<std::string> rows;
      for (const auto& pt : probes_) rows.push_back(array_literal(pt));
      w_.line(cat("constexpr int kNumProbes = ",
                  static_cast<int>(probes_.size()), ";"));
      w_.line(cat("static const long long kProbes[kNumProbes][kDim] = {",
                  join(rows, ", "), "};"));
    }
    if (opt_.passes.loop_passes()) {
      w_.line(cat("// Codegen passes baked in at generation time: ",
                  opt_.passes.to_string(), "."));
      w_.line("// --passes=none falls back to the plain Fig. 3 center loop and");
      w_.line("// pack/unpack nests at run time (the layout pass is part of the");
      w_.line("// geometry above and cannot be toggled).");
      w_.line("static bool dp_g_loop_passes = true;");
    }
    w_.blank();
  }

  void tile_exists_fn() {
    w_.line("// Tile space membership: the FM projection of the extended");
    w_.line("// system onto (parameters, tile indices) (paper IV.E).");
    Block fn(w_,
             "static inline bool dp_tile_exists(const long long* P, const "
             "long long* t)");
    param_preamble("P");
    tile_preamble("t");
    w_.line(cat("return ", system_test_cpp(m_.tile_space(), ext_names_), ";"));
  }

  void tile_full_fn() {
    if (!full_split_) return;
    w_.blank();
    w_.line("// Full tile: the whole local box lies in the iteration space, so");
    w_.line("// every local and pack bound is a constant (each constraint of");
    w_.line("// the extended system minimised over the box).");
    Block fn(w_,
             "static inline bool dp_tile_full(const long long* P, const "
             "dpgen::Int* t)");
    param_preamble("P");
    tile_preamble("t");
    w_.line(cat("return ", system_test_cpp(m_.full_tile_test(), ext_names_),
                ";"));
  }

  /// Emits a counting function scanning `nest` after fixing the lb tile
  /// indices from an argument array.
  void counting_fn(const std::string& name, const poly::LoopNest& nest,
                   bool takes_lb) {
    Block fn(w_, cat("[[maybe_unused]] static long long ", name,
                     "(const long long* P",
                     takes_lb ? ", const long long* lb)" : ")"));
    param_preamble("P");
    if (takes_lb) {
      w_.line("(void)lb;");
      for (std::size_t i = 0; i < m_.lb_dims().size(); ++i) {
        const std::string& vn = ext_names_[static_cast<std::size_t>(
            m_.ext_tile(m_.lb_dims()[i]))];
        w_.line(cat("const long long ", vn, " = lb[", i, "]; (void)", vn,
                    ";"));
      }
    }
    w_.line("long long dp_total = 0;");
    if (nest.levels() == 0)
      w_.line("dp_total = 1;");
    else
      emit_count(w_, nest, ext_names_, "dp_total");
    w_.line("return dp_total;");
  }

  void counting_fns() {
    w_.blank();
    w_.line("// Work counting: these loop nests play the role of the");
    w_.line("// paper's Ehrhart polynomials for load balancing (IV.J); see");
    w_.line("// dp_total_work below for the fitted-polynomial form.");
    {
      // Cells of all tiles with the lb indices fixed.
      std::vector<int> order;
      for (int k = 0; k < d_; ++k)
        if (std::find(m_.lb_dims().begin(), m_.lb_dims().end(), k) ==
            m_.lb_dims().end())
          order.push_back(m_.ext_tile(k));
      for (int k = 0; k < d_; ++k) order.push_back(m_.ext_local(k));
      counting_fn("dp_cell_count_lb",
                  poly::LoopNest::build(m_.extended(), order), true);
    }
    w_.blank();
    {
      // Tiles with the lb indices fixed.
      std::vector<int> order;
      for (int k = 0; k < d_; ++k)
        if (std::find(m_.lb_dims().begin(), m_.lb_dims().end(), k) ==
            m_.lb_dims().end())
          order.push_back(m_.ext_tile(k));
      counting_fn("dp_tile_count_lb",
                  poly::LoopNest::build(m_.tile_space(), order), true);
    }
    w_.blank();
    {
      std::vector<int> order;
      for (int k = 0; k < d_; ++k) order.push_back(m_.ext_tile(k));
      counting_fn("dp_total_tiles",
                  poly::LoopNest::build(m_.tile_space(), order), false);
    }
    w_.blank();
    {
      // Cells of one tile (all tile indices fixed): consulted per
      // dispatched tile by the monitored/profiled driver (straggler pace,
      // profiler cost-model cells), so it is a loop nest over the local
      // dims only.
      std::vector<int> order;
      for (int k = 0; k < d_; ++k) order.push_back(m_.ext_local(k));
      // The tile-index array gets a dp_-reserved name: problem parameters
      // land in scope via param_preamble and may be called "T".
      Block fn(w_,
               "[[maybe_unused]] static long long dp_tile_cells("
               "const long long* P, const long long* dp_tv)");
      param_preamble("P");
      w_.line("(void)dp_tv;");
      for (int k = 0; k < d_; ++k) {
        const std::string& vn =
            ext_names_[static_cast<std::size_t>(m_.ext_tile(k))];
        w_.line(cat("const long long ", vn, " = dp_tv[", k, "]; (void)", vn,
                    ";"));
      }
      w_.line("long long dp_total = 0;");
      const auto nest = poly::LoopNest::build(m_.extended(), order);
      if (nest.levels() == 0)
        w_.line("dp_total = 1;");
      else
        emit_count(w_, nest, ext_names_, "dp_total");
      w_.line("return dp_total;");
    }
    w_.blank();
  }

  void total_work_fn() {
    // The paper's first Ehrhart polynomial: total work as a function of
    // the input parameters.  Reconstructed by exact interpolation; when
    // the count is not quasi-polynomial over the sampled range (or there
    // are no parameters), fall back to a counting loop nest.
    bool emitted = false;
    if (p_ >= 1 && p_ <= 2) {
      Int period = 1;
      for (Int wdt : spec_.widths()) period = lcm(period, wdt);
      for (Int try_period : {Int{1}, period}) {
        poly::FitOptions fo;
        fo.degree.assign(static_cast<std::size_t>(p_), d_);
        fo.periods.assign(static_cast<std::size_t>(p_), try_period);
        fo.base.assign(static_cast<std::size_t>(p_), 0);
        auto fit = poly::fit_quasi_polynomial(
            [&](const IntVec& args) { return m_.total_cells(args); }, fo);
        if (!fit) continue;
        w_.line("// Total work (locations) as a function of the input");
        w_.line(cat("// parameters: Ehrhart quasi-polynomial, period ",
                    try_period, " (exact interpolation fit)."));
        Block fn(w_, "static long long dp_total_work(const long long* P)");
        param_preamble("P");
        if (try_period == 1) {
          const auto& poly = fit->classes().begin()->second;
          w_.line(cat("return ", poly.to_cpp(spec_.param_names()), ";"));
        } else {
          if (p_ == 1) {
            Block sw(w_, cat("switch ((", spec_.param_names()[0], " % ",
                             try_period, " + ", try_period, ") % ",
                             try_period, ")"));
            for (const auto& [res, poly] : fit->classes())
              w_.line(cat("case ", res[0], ": return ",
                          poly.to_cpp(spec_.param_names()), ";"));
            w_.line("default: return 0;");
          } else {
            w_.line("long long dp_r0 = (" + spec_.param_names()[0] + " % " +
                    std::to_string(try_period) + " + " +
                    std::to_string(try_period) + ") % " +
                    std::to_string(try_period) + ";");
            w_.line("long long dp_r1 = (" + spec_.param_names()[1] + " % " +
                    std::to_string(try_period) + " + " +
                    std::to_string(try_period) + ") % " +
                    std::to_string(try_period) + ";");
            for (const auto& [res, poly] : fit->classes())
              w_.line(cat("if (dp_r0 == ", res[0], " && dp_r1 == ", res[1],
                          ") return ", poly.to_cpp(spec_.param_names()),
                          ";"));
            w_.line("return 0;");
          }
        }
        emitted = true;
        break;
      }
    }
    if (!emitted) {
      w_.line("// Total work: counting loop nest (no quasi-polynomial fit");
      w_.line("// was validated for this space; see DESIGN.md).");
      std::vector<int> order;
      for (int k = 0; k < d_; ++k) order.push_back(m_.ext_tile(k));
      for (int k = 0; k < d_; ++k) order.push_back(m_.ext_local(k));
      counting_fn("dp_total_work", poly::LoopNest::build(m_.extended(), order),
                  false);
    }
    w_.blank();
  }

  void problem_class() {
    w_.line("// Shared result sink: probed locations, keyed by coordinates.");
    w_.raw_block(R"(struct dp_results_t {
  std::mutex mu;
  std::map<std::vector<long long>, dp_scalar> values;
  bool have_max = false;
  dp_scalar max_value = 0;
  std::vector<long long> max_point;
};
)");
    Block cls(w_,
              "class GenProblem final : public "
              "dpgen::runtime::ProblemHooks<dp_scalar>");
    w_.dedent();
    w_.line(" public:");
    w_.indent();
    ctor();
    basic_overrides();
    initial_tiles_override();
    owner_overrides();
    execute_override();
    probe_override();
    pack_override();
    unpack_override();
    w_.dedent();
    w_.line(" private:");
    w_.indent();
    w_.line("long long P_[kParams] = {};");
    w_.line("int nranks_ = 1;");
    w_.line("dp_results_t* results_ = nullptr;");
    if (!m_.lb_dims().empty()) {
      w_.line("// Owner rank of each load-balance cell, row-major over the");
      w_.line("// cells' bounding box [lb_lo_, lb_lo_ + lb_extent_).");
      w_.line("std::vector<int> owner_;");
      w_.line("long long lb_lo_[kLbDims] = {};");
      w_.line("long long lb_extent_[kLbDims] = {};");
    }
    w_.line("std::vector<long long> owned_;");
    w_.line("std::vector<long long> owned_work_;");
  }

  void ctor() {
    Block fn(w_,
             "GenProblem(const long long* P, int nranks, dp_results_t* "
             "results)");
    w_.line("nranks_ = nranks;");
    w_.line("results_ = results;");
    w_.line("for (int i = 0; i < kNumParams; ++i) P_[i] = P[i];");
    w_.line("owned_.assign(static_cast<size_t>(nranks), 0);");
    w_.line("owned_work_.assign(static_cast<size_t>(nranks), 0);");
    w_.line("// Load balancing (paper IV.J): scan the load-balance cells in");
    w_.line("// lb1-major order and cut the cumulative work into nranks");
    w_.line("// contiguous spans.");
    if (m_.lb_dims().empty()) {
      w_.line("owned_[0] = dp_total_tiles(P_);");
      w_.line("owned_work_[0] = dp_total_work(P_);");
      return;
    }
    w_.line("std::vector<std::pair<std::vector<long long>, long long>> "
            "dp_cells;");
    w_.line("long long dp_total = 0;");
    {
      Block scope(w_, "");
      param_preamble("P_");
      std::vector<int> lb_order;
      for (int k : m_.lb_dims()) lb_order.push_back(m_.ext_tile(k));
      poly::LoopNest nest = poly::LoopNest::build(m_.lb_space(), lb_order);
      emit_scan(w_, nest, ext_names_, [&](Writer& ww) {
        std::string coords;
        for (int k : m_.lb_dims())
          coords += cat(coords.empty() ? "" : ", ",
                        ext_names_[static_cast<std::size_t>(m_.ext_tile(k))]);
        ww.line(cat("std::vector<long long> dp_lb{", coords, "};"));
        ww.line("long long dp_w = dp_cell_count_lb(P_, dp_lb.data());");
        ww.line("dp_total += dp_w;");
        ww.line("dp_cells.emplace_back(std::move(dp_lb), dp_w);");
      });
    }
    w_.raw_block(R"(if (!dp_cells.empty()) {
  long long dp_hi[kLbDims];
  for (int i = 0; i < kLbDims; ++i)
    lb_lo_[i] = dp_hi[i] = dp_cells[0].first[static_cast<size_t>(i)];
  for (const auto& dp_c : dp_cells)
    for (int i = 0; i < kLbDims; ++i) {
      const long long v = dp_c.first[static_cast<size_t>(i)];
      if (v < lb_lo_[i]) lb_lo_[i] = v;
      if (v > dp_hi[i]) dp_hi[i] = v;
    }
  dpgen::Int dp_volume = 1;
  for (int i = 0; i < kLbDims; ++i) {
    lb_extent_[i] = dp_hi[i] - lb_lo_[i] + 1;
    dp_volume = dpgen::mul_ck(dp_volume, lb_extent_[i]);
  }
  owner_.assign(static_cast<size_t>(dp_volume), 0);
}
long long dp_cum = 0;
for (auto& dp_c : dp_cells) {
  int dp_owner = 0;
  if (dp_total > 0) {
    dp_owner = static_cast<int>((static_cast<__int128>(dp_cum) * nranks_) /
                                dp_total);
    if (dp_owner > nranks_ - 1) dp_owner = nranks_ - 1;
  }
  size_t dp_idx = 0;
  for (int i = 0; i < kLbDims; ++i)
    dp_idx = dp_idx * static_cast<size_t>(lb_extent_[i]) +
             static_cast<size_t>(dp_c.first[static_cast<size_t>(i)] -
                                 lb_lo_[i]);
  owner_[dp_idx] = dp_owner;
  owned_[static_cast<size_t>(dp_owner)] +=
      dp_tile_count_lb(P_, dp_c.first.data());
  owned_work_[static_cast<size_t>(dp_owner)] += dp_c.second;
  dp_cum += dp_c.second;
}
)");
  }

  void basic_overrides() {
    // Edge offsets as IntVecs: function-local static, built once and
    // immutable afterwards (worker threads call edge_offset concurrently).
    w_.raw_block(R"(int dim() const override { return kDim; }
dpgen::Int buffer_size() const override { return kBufferSize; }
int num_edges() const override { return kEdges; }
dpgen::Int edge_capacity(int e) const override {
  return kEdgeCapacity[e];
}
const dpgen::IntVec& edge_offset(int e) const override {
  static const std::vector<dpgen::IntVec> dp_offs = [] {
    std::vector<dpgen::IntVec> v;
    for (int i = 0; i < kEdges; ++i)
      v.emplace_back(kEdgeOffsets[i], kEdgeOffsets[i] + kDim);
    return v;
  }();
  return dp_offs[static_cast<size_t>(e)];
}
bool tile_exists(const dpgen::IntVec& t) const override {
  long long tt[kDim];
  for (int k = 0; k < kDim; ++k) tt[k] = t[static_cast<size_t>(k)];
  return dp_tile_exists(P_, tt);
}
int dep_count(const dpgen::IntVec& t) const override {
  int n = 0;
  long long q[kDim];
  for (int e = 0; e < kEdges; ++e) {
    for (int k = 0; k < kDim; ++k)
      q[k] = t[static_cast<size_t>(k)] + kEdgeOffsets[e][k];
    if (dp_tile_exists(P_, q)) ++n;
  }
  return n;
}
dpgen::Int tile_cells(const dpgen::IntVec& t) const override {
  long long tt[kDim];
  for (int k = 0; k < kDim; ++k) tt[k] = t[static_cast<size_t>(k)];
  return dp_tile_cells(P_, tt);
}
)");
  }

  void initial_tiles_override() {
    w_.line("// Initial tiles (paper IV.K): scan the candidate face systems");
    w_.line("// and keep the tiles all of whose dependencies fall outside.");
    Block fn(w_,
             "void initial_tiles(std::vector<dpgen::IntVec>& out) const "
             "override");
    param_preamble("P_");
    w_.line("std::set<std::vector<long long>> dp_cand;");
    for (const auto& nest : m_.face_nests()) {
      Block scope(w_, "");
      emit_scan(w_, nest, ext_names_, [&](Writer& ww) {
        std::string coords;
        for (int k = 0; k < d_; ++k)
          coords += cat(k ? ", " : "",
                        ext_names_[static_cast<std::size_t>(m_.ext_tile(k))]);
        ww.line(cat("dp_cand.insert({", coords, "});"));
      });
    }
    w_.raw_block(R"(for (const auto& dp_c : dp_cand) {
  long long t[kDim], q[kDim];
  for (int k = 0; k < kDim; ++k) t[k] = dp_c[static_cast<size_t>(k)];
  if (!dp_tile_exists(P_, t)) continue;
  bool dp_initial = true;
  for (int e = 0; e < kEdges && dp_initial; ++e) {
    for (int k = 0; k < kDim; ++k) q[k] = t[k] + kEdgeOffsets[e][k];
    if (dp_tile_exists(P_, q)) dp_initial = false;
  }
  if (dp_initial) out.push_back(dpgen::IntVec(dp_c.begin(), dp_c.end()));
}
)");
  }

  void owner_overrides() {
    if (m_.lb_dims().empty()) {
      w_.raw_block(R"(int owner(const dpgen::IntVec&) const override { return 0; }
dpgen::Int owned_tiles(int rank) const override {
  return owned_[static_cast<size_t>(rank)];
}
// Ehrhart-predicted per-rank work (location count): the baseline the
// performance report's load-balance audit compares measured time against.
long long dp_owned_work(int rank) const {
  return owned_work_[static_cast<size_t>(rank)];
}
)");
      return;
    }
    // Called once per outgoing edge: a flat index into owner_, with no
    // allocation.  Tiles outside the box or in one of its holes go to 0.
    w_.raw_block(R"(int owner(const dpgen::IntVec& t) const override {
  size_t dp_idx = 0;
  for (int i = 0; i < kLbDims; ++i) {
    const long long v = t[static_cast<size_t>(kLbDim[i])] - lb_lo_[i];
    if (v < 0 || v >= lb_extent_[i]) return 0;
    dp_idx = dp_idx * static_cast<size_t>(lb_extent_[i]) +
             static_cast<size_t>(v);
  }
  return owner_[dp_idx];
}
dpgen::Int owned_tiles(int rank) const override {
  return owned_[static_cast<size_t>(rank)];
}
// Ehrhart-predicted per-rank work (location count): the baseline the
// performance report's load-balance audit compares measured time against.
long long dp_owned_work(int rank) const {
  return owned_work_[static_cast<size_t>(rank)];
}
)");
  }

  void execute_override() {
    w_.line("// Tile calculation (paper IV.L / Fig. 3): the loop nest over");
    w_.line("// the local iteration space with the user's center code inside.");
    Block fn(w_,
             cat("void execute_tile(const dpgen::IntVec& dp_t, dp_scalar* "
                 "dp_buf) override"));
    param_preamble("P_");
    tile_preamble("dp_t");
    w_.line(cat("dp_scalar* ", spec_.array_name(), " = dp_buf;"));
    // Validity flags (paper IV.G) are shared across dependencies
    // ("calculations are reused in cases where two dependencies share some
    // or all of the validity calculations"); both emitters number them
    // by TilingModel::validity_checks(), which the interpreter runs too.
    if (opt_.passes.loop_passes()) {
      {
        Block opt(w_, "if (dp_g_loop_passes)");
        if (full_center_) {
          std::string cond = "dp_tile_full(P_, dp_t.data())";
          if (!m_.checks_hold_test().empty())
            cond += cat(" && ",
                        system_test_cpp(m_.checks_hold_test(), ext_names_));
          {
            Block full(w_, cat("if (", cond, ")"));
            emit_center_full(w_, m_, plan_, opt_.passes, ext_names_);
          }
          Block partial(w_, "else");
          emit_center_optimized(w_, m_, plan_, opt_.passes, ext_names_);
        } else {
          emit_center_optimized(w_, m_, plan_, opt_.passes, ext_names_);
        }
      }
      Block plain(w_, "else");
      emit_center_plain(w_, m_, plan_, ext_names_);
    } else {
      emit_center_plain(w_, m_, plan_, ext_names_);
    }
  }

  void probe_override() {
    Block fn(w_,
             "void on_tile_executed(const dpgen::IntVec& dp_t, const "
             "dp_scalar* dp_buf) override");
    if (opt_.track_max) emit_max_tracking();
    w_.raw_block(R"(for (int p = 0; p < kNumProbes; ++p) {
  bool dp_inside = true;
  long long dp_idx = 0;
  for (int k = 0; k < kDim && dp_inside; ++k) {
    long long dp_local =
        kProbes[p][k] - kWidths[k] * dp_t[static_cast<size_t>(k)];
    if (dp_floordiv(kProbes[p][k], kWidths[k]) != dp_t[static_cast<size_t>(k)])
      dp_inside = false;
    else
      dp_idx += kStrides[k] * (dp_local + kGhostLo[k]);
  }
  if (!dp_inside) continue;
  std::lock_guard<std::mutex> dp_lock(results_->mu);
  results_->values[std::vector<long long>(kProbes[p], kProbes[p] + kDim)] =
      dp_buf[dp_idx];
}
)");
  }

  /// Local-alignment style objective: scan the executed tile's interior
  /// for its maximum and merge (value, lex-smallest coordinates) into the
  /// shared results.
  void emit_max_tracking() {
    Block scope(w_, "");
    param_preamble("P_");
    tile_preamble("dp_t");
    w_.line("bool dp_have = false;");
    w_.line("dp_scalar dp_best = 0;");
    w_.line("long long dp_bp[kDim] = {};");
    emit_scan(w_, m_.local_nest(), ext_names_, [&](Writer& ww) {
      std::string coords;
      for (int k = 0; k < d_; ++k) {
        auto ks = static_cast<std::size_t>(k);
        ww.line(cat("const long long ", spec_.var_names()[ks], " = ",
                    ext_names_[static_cast<std::size_t>(m_.ext_local(k))],
                    " + ", spec_.widths()[ks], "LL*",
                    ext_names_[static_cast<std::size_t>(m_.ext_tile(k))],
                    ";"));
        coords += cat(k ? ", " : "", spec_.var_names()[ks]);
      }
      ww.line(cat("const long long dp_idx = ", loc_expr(), ";"));
      ww.line(cat("const long long dp_xs[kDim] = {", coords, "};"));
      ww.raw_block(R"(bool dp_better = !dp_have || dp_buf[dp_idx] > dp_best;
if (!dp_better && dp_buf[dp_idx] == dp_best) {
  for (int k = 0; k < kDim; ++k) {
    if (dp_xs[k] != dp_bp[k]) { dp_better = dp_xs[k] < dp_bp[k]; break; }
  }
}
if (dp_better) {
  dp_have = true;
  dp_best = dp_buf[dp_idx];
  for (int k = 0; k < kDim; ++k) dp_bp[k] = dp_xs[k];
}
)");
    });
    w_.raw_block(R"(if (dp_have) {
  std::lock_guard<std::mutex> dp_lock(results_->mu);
  std::vector<long long> dp_pt(dp_bp, dp_bp + kDim);
  if (!results_->have_max || dp_best > results_->max_value ||
      (dp_best == results_->max_value && dp_pt < results_->max_point)) {
    results_->have_max = true;
    results_->max_value = dp_best;
    results_->max_point = std::move(dp_pt);
  }
}
)");
  }

  /// Emits the shared body of a coalesced pack/unpack case: the innermost
  /// local loop has buffer stride 1, so its whole [lo, hi] range moves as
  /// one memcpy (`copy(run_start_index, run_length)` renders the line).
  void emit_run_copy(Writer& ww, const std::string& v,
                     const std::function<std::string(const std::string&,
                                                     const std::string&)>&
                         copy) {
    Block guard(ww, cat("if (dp_hi_", v, " >= dp_lo_", v, ")"));
    ww.line(cat("const long long ", v, " = dp_lo_", v, ";"));
    const std::string len = cat("dp_hi_", v, " - dp_lo_", v, " + 1");
    ww.line(copy(cat("(", loc_expr(), ")"), len));
    ww.line(cat("dp_n += ", len, ";"));
  }

  /// Emits the edge switch shared by pack and unpack: each case scans
  /// the edge's coalesced runs, and `copy(e, start, len)` renders one run's
  /// memcpy.  On a full tile (canonicalize only) the runs come from the
  /// slab box with constant bounds: the same runs in the same order as
  /// the pack nest yields there, so payloads are unchanged.
  void emit_edge_runs(
      const std::function<std::string(int, const std::string&,
                                      const std::string&)>& copy) {
    param_preamble("P_");
    tile_preamble("dp_t");
    w_.line("long long dp_n = 0;");
    if (full_split_)
      w_.line("const bool dp_full = dp_g_loop_passes && "
              "dp_tile_full(P_, dp_t.data());");
    Block sw(w_, "switch (dp_e)");
    for (int e = 0; e < m_.num_edges(); ++e) {
      Block cs(w_, cat("case ", e, ":"));
      auto scan = [&](const poly::LoopNest& nest) {
        emit_scan_coalesced(
            w_, nest, ext_names_, [&](Writer& ww, const std::string& v) {
              emit_run_copy(ww, v, [&](const std::string& idx,
                                       const std::string& len) {
                return copy(e, idx, len);
              });
            });
      };
      if (full_split_) {
        const tiling::Edge& edge = m_.edges()[static_cast<std::size_t>(e)];
        {
          Block full(w_, "if (dp_full)");
          scan(local_box_nest(m_, edge.box_lo, edge.box_hi));
        }
        Block partial(w_, "else");
        scan(m_.pack_nest(e));
      } else {
        scan(m_.pack_nest(e));
      }
      w_.line("break;");
    }
    w_.line("default: break;");
  }

  void pack_override() {
    w_.line("// Edge packing (paper IV.I): condense the boundary slab of a");
    w_.line("// finished tile for storage/transmission.  The innermost");
    w_.line("// local dimension is buffer-contiguous, so each innermost");
    w_.line("// range is copied with one memcpy (run coalescing).");
    Block fn(w_,
             "dpgen::Int pack(int dp_e, const dpgen::IntVec& dp_t, const "
             "dp_scalar* dp_buf, dp_scalar* dp_out) const override");
    emit_edge_runs([](int, const std::string& idx, const std::string& len) {
      return cat("std::memcpy(dp_out + dp_n, dp_buf + ", idx,
                 ", static_cast<size_t>(", len, ") * sizeof(dp_scalar));");
    });
    w_.line("return static_cast<dpgen::Int>(dp_n);");
  }

  void unpack_override() {
    w_.line("// Edge unpacking: the same runs as pack, written into the");
    w_.line("// consumer's ghost cells (constant shift per edge).");
    Block fn(w_,
             "void unpack(int dp_e, const dpgen::IntVec& dp_t, const "
             "dp_scalar* dp_data, dpgen::Int dp_count, dp_scalar* dp_buf) "
             "const override");
    emit_edge_runs([](int e, const std::string& idx, const std::string& len) {
      return cat("std::memcpy(dp_buf + ", idx, " + kUnpackShift[", e,
                 "], dp_data + dp_n, static_cast<size_t>(", len,
                 ") * sizeof(dp_scalar));");
    });
    w_.line("(void)dp_count;");
  }

  void main_fn() {
    w_.line(";");
    w_.blank();
    w_.line("// ---- program entry point ----");
    std::string usage = "usage: %s";
    for (const auto& name : spec_.param_names()) usage += " <" + name + ">";
    usage += cat(
        " [--ranks=R] [--threads=T] [--capacity=C] [--shards=S] "
        "[--policy=column|level] ",
        opt_.passes.loop_passes() ? "[--passes=none|full] " : "",
        "[--trace=FILE] [--metrics=FILE] [--report=FILE] [--msgtrace=FILE] "
        "[--monitor=FILE] [--monitor-interval=S] [--profile=FILE] "
        "[--profile-hz=N] [--profile-cputime]\\n");
    Block fn(w_, "int main(int argc, char** argv)");
    w_.raw_block(cat(R"(if (argc < 1 + kNumParams) {
  std::fprintf(stderr, ")", usage, R"(", argv[0]);
  return 2;
}
)"));
    // Malformed or out-of-range values surface as dpgen::Error (exit 2).
    w_.line("try {");
    w_.indent();
    w_.raw_block(R"(long long P[kParams] = {};
for (int i = 0; i < kNumParams; ++i)
  P[i] = dpgen::parse_int(argv[1 + i], "parameter");
dpgen::runtime::LaunchOptions dp_opt;
for (int i = 1 + kNumParams; i < argc; ++i) {
)");
    if (opt_.passes.loop_passes())
      w_.raw_block(R"(  if (std::strncmp(argv[i], "--passes=", 9) == 0) {
    const std::string dp_v = argv[i] + 9;
    if (dp_v != "none" && dp_v != "full") {
      std::fprintf(stderr, "bad --passes value '%s' (expected none|full)\n",
                   dp_v.c_str());
      return 2;
    }
    dp_g_loop_passes = dp_v == "full";
    continue;
  }
)");
    w_.raw_block(R"(  if (!dp_opt.parse_flag(argv[i])) {
    std::fprintf(stderr, "unknown option %s\n", argv[i]);
    return 2;
  }
}
)");
    if (!spec_.code().init.empty()) {
      w_.line("// ---- user initialization code ----");
      Block init(w_, "");
      w_.raw_block(spec_.code().init);
    }
    w_.raw_block(R"(dp_results_t dp_results;
dpgen::runtime::LaunchLabels dp_labels;
dp_labels.source = "generated";
dp_labels.problem = kProblemName;
dp_labels.params.assign(P, P + kNumParams);
)");
    if (opt_.passes.any()) {
      // The passes live for this run: the generation-time list, minus the
      // loop passes when --passes=none disabled them (the layout pass is
      // baked into the geometry and always in effect).
      std::vector<std::string> quoted;
      for (const auto& n : opt_.passes.names())
        quoted.push_back(cat("\"", n, "\""));
      w_.line(cat("dp_labels.passes = {", join(quoted, ", "), "};"));
      if (opt_.passes.loop_passes())
        w_.line(cat("if (!dp_g_loop_passes) dp_labels.passes = {",
                    opt_.passes.layout ? "\"layout\"" : "", "};"));
    }
    w_.raw_block(R"(// One load-balance cut per attempt, shared by every rank.
const dpgen::runtime::LaunchResult dp_run = dpgen::runtime::launch<dp_scalar>(
    [&](int dp_alive) {
      auto dp_prob = std::make_unique<GenProblem>(P, dp_alive, &dp_results);
      dpgen::runtime::LaunchPlan<dp_scalar> dp_plan;
      for (int r = 0; r < dp_alive; ++r)
        dp_plan.predicted_work.push_back(
            static_cast<double>(dp_prob->dp_owned_work(r)));
      dp_plan.order = dpgen::runtime::TileOrder(
          std::vector<int>(kDimPriority, kDimPriority + kDim),
          std::vector<int>(kDepSigns, kDepSigns + kDim), dp_opt.policy);
      dp_plan.hooks = std::move(dp_prob);
      return dp_plan;
    },
    dp_opt, dp_labels);
for (const auto& dp_kv : dp_results.values) {
  std::printf("RESULT (");
  for (int k = 0; k < kDim; ++k)
    std::printf(k ? ", %lld" : "%lld", dp_kv.first[static_cast<size_t>(k)]);
  std::printf(") = %.17g\n", static_cast<double>(dp_kv.second));
}
if (dp_results.have_max) {
  std::printf("MAX (");
  for (int k = 0; k < kDim; ++k)
    std::printf(k ? ", %lld" : "%lld",
                dp_results.max_point[static_cast<size_t>(k)]);
  std::printf(") = %.17g\n", static_cast<double>(dp_results.max_value));
}
long long dp_tiles = 0, dp_remote = 0, dp_peak_edges = 0;
unsigned long long dp_bytes = 0;
double dp_init = 0.0;
for (const auto& s : dp_run.rank_stats) {
  dp_tiles += s.tiles_executed;
  dp_remote += s.remote_edges;
  dp_bytes += s.bytes_sent;
  if (s.table.peak_buffered_edges > dp_peak_edges)
    dp_peak_edges = s.table.peak_buffered_edges;
  if (s.init_scan_seconds > dp_init) dp_init = s.init_scan_seconds;
}
std::printf("STATS tiles=%lld total_work=%lld remote_edges=%lld "
            "bytes=%llu peak_edges=%lld init_scan_s=%.6f\n",
            dp_tiles, dp_total_work(P), dp_remote, dp_bytes, dp_peak_edges,
            dp_init);
dpgen::runtime::print_summary(dp_opt, dp_run);
return 0;
)");
    w_.dedent();
    w_.raw_block(R"(} catch (const dpgen::Error& dp_e) {
  std::fprintf(stderr, "dpgen: error: %s\n", dp_e.what());
  return 2;
}
)");
  }

  const tiling::TilingModel& m_;
  const spec::ProblemSpec& spec_;
  GenOptions opt_;
  LayoutPlan plan_;
  // Full/partial tile separation (canonicalize): pack/unpack specialise
  // when some tile can be full, execute_tile when the checks can also
  // hold on a whole box.
  bool full_split_ = false;
  bool full_center_ = false;
  int d_ = 0;
  int p_ = 0;
  std::vector<std::string> ext_names_;
  std::vector<IntVec> probes_;
  Writer w_;
};

}  // namespace

std::string generate_program(const tiling::TilingModel& model,
                             const GenOptions& options) {
  return ProgramBuilder(model, options).build();
}

void write_program(const tiling::TilingModel& model, const std::string& path,
                   const GenOptions& options) {
  std::ofstream out(path);
  DPGEN_CHECK(out.good(), cat("cannot open output file '", path, "'"));
  out << generate_program(model, options);
  DPGEN_CHECK(out.good(), cat("error writing '", path, "'"));
}

}  // namespace dpgen::codegen
