#include "codegen/generator.hpp"

#include <fstream>
#include <numeric>

#include "codegen/emit.hpp"
#include "codegen/passes.hpp"
#include "poly/ehrhart.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::codegen {

namespace {

/// "{1LL, 2LL}" for 64-bit values, "{1, 2}" for ints.
template <typename T>
std::string array_literal(const std::vector<T>& v) {
  std::string out = "{";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += cat(i ? ", " : "", v[i], std::is_same_v<T, int> ? "" : "LL");
  out += '}';
  return out;
}

/// Builds the generated program for one model.
class ProgramBuilder {
 public:
  ProgramBuilder(const tiling::TilingModel& model, const GenOptions& opt)
      : m_(model),
        spec_(model.problem()),
        opt_(opt),
        plan_(LayoutPlan::make(model, opt.passes.layout)),
        can_full_(!model.full_tile_test().known_infeasible()),
        full_split_(opt.passes.canonicalize && can_full_),
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
    lb_cells_fn();
    init_fn();
    problem_class();
    program_fn();
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

  /// "t_a, t_b, ...": every tile index variable in dimension order.
  std::string tile_coords() const {
    std::string coords;
    for (int k = 0; k < d_; ++k)
      coords += cat(k ? ", " : "",
                    ext_names_[static_cast<std::size_t>(m_.ext_tile(k))]);
    return coords;
  }

  /// The mapping-function expression for `loc` (paper IV.H): a linear
  /// combination of the local loop variables plus the ghost offset, over
  /// the active layout plan's strides (identity, or the layout pass's
  /// padded variant).
  std::string loc_expr() const { return loc_expr_cpp(m_, plan_, ext_names_); }

  // ---- sections -------------------------------------------------------------

  void header() {
    w_.line(cat("// Generated by dpgen for problem '", spec_.problem_name(),
                "'.  Compile with"));
    w_.line("//   c++ -std=c++20 -O2 -fopenmp -DDPGEN_RUNTIME_USE_OPENMP "
            "-I<repo>/src <this file>");
    w_.line("//       -ldpgen_runtime -ldpgen_minimpi -ldpgen_obs "
            "-ldpgen_support -lpthread");
    w_.line("// Flags, output and build options: docs/codegen.md.");
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
    w_.line("#include <cstring>");
    w_.blank();
    w_.line("#include \"runtime/program.hpp\"");
    // run_program is compiled into dpgen_runtime for double only.
    if (spec_.scalar_type() != "double")
      w_.line("#include \"runtime/run_program.hpp\"");
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
    w_.line(cat("constexpr int kParams = ", p_ == 0 ? 1 : p_,
                ";  // storage size (>=1)"));
    w_.line(cat("constexpr int kNumParams = ", p_, ";"));
    w_.line(cat("constexpr int kEdges = ", m_.num_edges(), ";"));
    w_.line(cat("constexpr long long kBufferSize = ", plan_.buffer_size, ";"));
    {
      std::vector<std::string> rows;
      for (const auto& e : m_.edges()) rows.push_back(array_literal(e.offset));
      w_.line(cat("static const dpgen::Int kEdgeOffsets[kEdges][kDim] = {",
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
             "dpgen::Int* t)");
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

  /// Emits `long long name(P[, arg])`: the points of `space` scanned over
  /// the tile indices not in `fixed` (and the local indices with
  /// `locals`), the `fixed` tile indices read from the array `arg`.  Each
  /// point counts 1, or `body` adds its share to dp_total.
  void counting_fn(const std::string& name, const poly::System& space,
                   const std::vector<int>& fixed, bool locals,
                   const std::string& arg = "",
                   const std::function<void(Writer&)>& body = nullptr) {
    std::vector<int> order;
    for (int k = 0; k < d_; ++k)
      if (std::find(fixed.begin(), fixed.end(), k) == fixed.end())
        order.push_back(m_.ext_tile(k));
    for (int k = 0; locals && k < d_; ++k) order.push_back(m_.ext_local(k));
    Block fn(w_, cat("[[maybe_unused]] static long long ", name,
                     "(const long long* P",
                     arg.empty() ? "" : ", const dpgen::Int* " + arg, ")"));
    param_preamble("P");
    if (!arg.empty()) w_.line(cat("(void)", arg, ";"));
    for (std::size_t i = 0; i < fixed.size(); ++i) {
      const std::string& vn =
          ext_names_[static_cast<std::size_t>(m_.ext_tile(fixed[i]))];
      w_.line(cat("const long long ", vn, " = ", arg, "[", i, "]; (void)", vn,
                  ";"));
    }
    w_.line("long long dp_total = 0;");
    const auto nest = poly::LoopNest::build(space, order);
    if (body)
      emit_scan(w_, nest, ext_names_, body);
    else if (nest.levels() == 0)
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
    // Cells of one tile, consulted per dispatched tile by the monitored or
    // profiled driver.  The array gets a dp_-reserved name: parameters land
    // in scope via param_preamble and may be called "T".
    std::vector<int> all(static_cast<std::size_t>(d_));
    std::iota(all.begin(), all.end(), 0);
    counting_fn("dp_tile_cells", m_.extended(), all, true, "dp_tv");
    w_.blank();
    // Cells, then tiles, of one load-balance cell.  The cells are a scan of
    // the cell's tiles: a full tile (the full-tile test, inline) holds
    // prod w of them, a partial one is counted by dp_tile_cells.
    Int full = 1;
    for (Int wdt : spec_.widths()) full = mul_ck(full, wdt);
    counting_fn("dp_cell_count_lb", m_.tile_space(), m_.lb_dims(), false,
                "dp_lb", [&](Writer& ww) {
                  ww.line(cat("const dpgen::Int dp_t[kDim] = {",
                              tile_coords(), "};"));
                  ww.line(can_full_
                              ? cat("dp_total += (",
                                    system_test_cpp(m_.full_tile_test(),
                                                    ext_names_),
                                    ") ? ", full,
                                    "LL : dp_tile_cells(P, dp_t);")
                              : "dp_total += dp_tile_cells(P, dp_t);");
                });
    w_.blank();
    counting_fn("dp_tile_count_lb", m_.tile_space(), m_.lb_dims(), false,
                "dp_lb");
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
      counting_fn("dp_total_work", m_.extended(), {}, true);
    }
    w_.blank();
  }

  /// Without lb dimensions the nest has no levels: one cell, the space.
  void lb_cells_fn() {
    w_.line("// Load balancing (paper IV.J): the lb cells in lb1-major order");
    w_.line("// with their work and tile counts; run_program cuts them.");
    Block fn(w_,
             "static void dp_lb_cells(const long long* P, "
             "dpgen::runtime::CellSink& dp_cells)");
    param_preamble("P");
    emit_scan(w_, m_.lb_nest(), ext_names_, [&](Writer& ww) {
      std::vector<std::string> coords;
      for (int k : m_.lb_dims())
        coords.push_back(ext_names_[static_cast<std::size_t>(m_.ext_tile(k))]);
      ww.line(coords.empty()
                  ? "const dpgen::Int* const dp_lb = nullptr;"
                  : cat("const dpgen::Int dp_lb[] = {", join(coords, ", "),
                        "};"));
      ww.line("dp_cells.add_cell(dp_lb, dp_cell_count_lb(P, dp_lb), "
              "dp_tile_count_lb(P, dp_lb));");
    });
  }

  void init_fn() {
    if (spec_.code().init.empty()) return;
    w_.blank();
    w_.line("// ---- user initialization code ----");
    Block fn(w_, "static void dp_init(const long long* P)");
    param_preamble("P");
    w_.raw_block(spec_.code().init);
  }

  void problem_class() {
    w_.blank();
    w_.line("class GenProblem final : public "
            "dpgen::runtime::ProblemHooks<dp_scalar> {");
    w_.line(" public:");
    w_.indent();
    w_.raw_block(R"(explicit GenProblem(const long long* P) {
  for (int i = 0; i < kNumParams; ++i) P_[i] = P[i];
}
)");
    basic_overrides();
    initial_tiles_override();
    execute_override();
    if (opt_.track_max) tile_max_override();
    pack_override();
    unpack_override();
    w_.dedent();
    w_.line(" private:");
    w_.indent();
    w_.line("long long P_[kParams] = {};");
    w_.dedent();
    w_.line("};");
  }

  void basic_overrides() {
    w_.raw_block(R"(int dim() const override { return kDim; }
dpgen::Int buffer_size() const override { return kBufferSize; }
int num_edges() const override { return kEdges; }
dpgen::Int edge_capacity(int e) const override {
  return kEdgeCapacity[e];
}
const dpgen::Int* edge_offset(int e) const override {
  return kEdgeOffsets[e];
}
bool tile_exists(const dpgen::Int* t) const override {
  return dp_tile_exists(P_, t);
}
int dep_count(const dpgen::Int* t) const override {
  int n = 0;
  dpgen::Int q[kDim];
  for (int e = 0; e < kEdges; ++e) {
    for (int k = 0; k < kDim; ++k) q[k] = t[k] + kEdgeOffsets[e][k];
    if (dp_tile_exists(P_, q)) ++n;
  }
  return n;
}
dpgen::Int tile_cells(const dpgen::Int* t) const override {
  return dp_tile_cells(P_, t);
}
)");
  }

  void initial_tiles_override() {
    w_.line("// Initial tiles (paper IV.K): scan the candidate face systems");
    w_.line("// and keep the tiles all of whose dependencies fall outside.");
    w_.line("// Faces overlap; the driver drops the repeats.");
    Block fn(w_,
             "void initial_tiles(dpgen::runtime::TileSink& dp_out) const "
             "override");
    param_preamble("P_");
    for (const auto& nest : m_.face_nests()) {
      Block scope(w_, "");
      emit_scan(w_, nest, ext_names_, [&](Writer& ww) {
        ww.line(cat("const dpgen::Int dp_c[kDim] = {", tile_coords(), "};"));
        ww.line("if (tile_exists(dp_c) && dep_count(dp_c) == 0) "
                "dp_out.add_tile(dp_c);");
      });
    }
  }

  void execute_override() {
    w_.line("// Tile calculation (paper IV.L / Fig. 3): the loop nest over");
    w_.line("// the local iteration space with the user's center code inside.");
    Block fn(w_,
             cat("void execute_tile(const dpgen::Int* dp_t, dp_scalar* "
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
          std::string cond = "dp_tile_full(P_, dp_t)";
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

  /// Local-alignment style objective: the executed tile's maximum and its
  /// point.  The scan ascends in every dimension, so keeping the first
  /// strictly larger value picks the lexicographically smallest point of
  /// equal values, the rule the runtime merges tiles with.
  void tile_max_override() {
    Block fn(w_,
             "bool tile_max(const dpgen::Int* dp_t, const dp_scalar* "
             "dp_buf, dp_scalar& dp_best, dpgen::Int* dp_at) const override");
    param_preamble("P_");
    tile_preamble("dp_t");
    w_.line("bool dp_have = false;");
    std::vector<int> ascending;
    for (int k = 0; k < d_; ++k) ascending.push_back(m_.ext_local(k));
    const auto nest = poly::LoopNest::build(m_.extended(), ascending);
    emit_scan(w_, nest, ext_names_, [&](Writer& ww) {
      ww.line(cat("const dp_scalar dp_v = dp_buf[", loc_expr(), "];"));
      Block better(ww, "if (!dp_have || dp_v > dp_best)");
      ww.line("dp_have = true;");
      ww.line("dp_best = dp_v;");
      for (int k = 0; k < d_; ++k) {
        auto ks = static_cast<std::size_t>(k);
        ww.line(cat("dp_at[", k, "] = ",
                    ext_names_[static_cast<std::size_t>(m_.ext_local(k))],
                    " + ", spec_.widths()[ks], "LL*",
                    ext_names_[static_cast<std::size_t>(m_.ext_tile(k))],
                    ";"));
      }
    });
    w_.line("return dp_have;");
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
              "dp_tile_full(P_, dp_t);");
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
             "dpgen::Int pack(int dp_e, const dpgen::Int* dp_t, const "
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
             "void unpack(int dp_e, const dpgen::Int* dp_t, const "
             "dp_scalar* dp_data, dpgen::Int dp_count, dp_scalar* dp_buf) "
             "const override");
    emit_edge_runs([](int e, const std::string& idx, const std::string& len) {
      return cat("std::memcpy(dp_buf + ", idx, " + kUnpackShift[", e,
                 "], dp_data + dp_n, static_cast<size_t>(", len,
                 ") * sizeof(dp_scalar));");
    });
    w_.line("(void)dp_count;");
  }

  /// Emits `static const <type> <name>[] = <literal>;` and returns the
  /// `{name, count}` that hands the table to run_program.  An empty table
  /// is `{}`: C++ has no zero-length arrays.
  std::string table(const std::string& type, const std::string& name,
                    const std::string& literal, std::size_t count) {
    if (count == 0) return "{}";
    w_.line(cat("static const ", type, " ", name, "[] = ", literal, ";"));
    return cat("{", name, ", ", count, "}");
  }

  /// The ProgramInfo run_program needs, its tables, and the one-line main.
  void program_fn() {
    w_.blank();
    w_.line("// ---- program entry point ----");
    auto quoted = [](const std::vector<std::string>& names) {
      std::string out = "{";
      for (std::size_t i = 0; i < names.size(); ++i)
        out += cat(i ? ", " : "", "\"", names[i], "\"");
      out += '}';
      return out;
    };
    const std::vector<std::string> passes = opt_.passes.names();
    IntVec probes;
    for (const auto& pt : probes_)
      probes.insert(probes.end(), pt.begin(), pt.end());
    const std::string params =
        table("char* const", "kParamNames", quoted(spec_.param_names()),
              spec_.param_names().size());
    const std::string lb_dims = table(
        "int", "kLbDims", array_literal(m_.lb_dims()), m_.lb_dims().size());
    const std::string pass_names =
        table("char* const", "kPasses", quoted(passes), passes.size());
    const std::string probe_points =
        table("dpgen::Int", "kProbes", array_literal(probes), probes.size());
    auto per_dim = [&](const char* type, const char* name, const auto& v) {
      w_.line(cat("static const ", type, " ", name, "[kDim] = ",
                  array_literal(v), ";"));
    };
    per_dim("int", "kPriorityDims", m_.priority_dims());
    per_dim("int", "kDepSigns", spec_.dep_signs());
    per_dim("dpgen::Int", "kWidths", spec_.widths());
    per_dim("dpgen::Int", "kStrides", plan_.strides);
    per_dim("dpgen::Int", "kGhostLo", plan_.ghost_lo);
    w_.line("static const dpgen::runtime::ProgramInfo<dp_scalar> dp_program "
            "= {");
    w_.indent();
    w_.line(cat(".name = \"", spec_.problem_name(), "\","));
    w_.line(".dim = kDim,");
    w_.line(cat(".params = ", params, ","));
    w_.line(".priority_dims = kPriorityDims,");
    w_.line(".dep_signs = kDepSigns,");
    w_.line(cat(".lb_dims = ", lb_dims, ","));
    w_.line(cat(".passes = ", pass_names, ","));
    if (opt_.passes.loop_passes()) w_.line(".loop_passes = &dp_g_loop_passes,");
    w_.line(cat(".probes = {.points = ", probe_points, ","));
    w_.line("           .widths = kWidths,");
    w_.line("           .strides = kStrides,");
    w_.line("           .ghost_lo = kGhostLo},");
    w_.line(".scan_cells = dp_lb_cells,");
    w_.raw_block(R"(.make_hooks = [](const long long* P)
    -> dpgen::runtime::ProblemHooks<dp_scalar>* { return new GenProblem(P); },
)");
    if (!spec_.code().init.empty()) w_.line(".init = dp_init,");
    w_.line(".total_work = dp_total_work};");
    w_.dedent();
    w_.blank();
    w_.line("int main(int argc, char** argv) {");
    w_.line("  return dpgen::runtime::run_program(dp_program, argc, argv);");
    w_.line("}");
  }

  const tiling::TilingModel& m_;
  const spec::ProblemSpec& spec_;
  GenOptions opt_;
  LayoutPlan plan_;
  // Some tile can be full: the lb scan counts such a tile's cells in O(1).
  // Full/partial tile separation (canonicalize): pack/unpack specialise
  // when some tile can be full, execute_tile when the checks can also
  // hold on a whole box.
  bool can_full_ = false;
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
