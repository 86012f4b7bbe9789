#include "codegen/passes.hpp"

#include "codegen/emit.hpp"
#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::codegen {

// ---- PassPipeline ----------------------------------------------------------

PassPipeline PassPipeline::parse(const std::string& text) {
  PassPipeline p;
  if (text.empty() || text == "none") return p;
  if (text == "full" || text == "all") {
    p.canonicalize = p.unroll = p.layout = true;
    return p;
  }
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    std::string tok = text.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (tok == "canonicalize") {
      p.canonicalize = true;
    } else if (tok == "layout") {
      p.layout = true;
    } else if (tok == "unroll" || tok.rfind("unroll:", 0) == 0) {
      p.unroll = true;
      if (tok.size() > 7) {
        std::size_t used = 0;
        int factor = 0;
        try {
          factor = std::stoi(tok.substr(7), &used);
        } catch (const std::exception&) {
          used = 0;
        }
        DPGEN_CHECK(used == tok.size() - 7 && factor >= 1 && factor <= 16,
                    cat("bad unroll factor in pass '", tok,
                        "' (expected unroll:N with N in 1..16)"));
        p.unroll_factor = factor;
      }
    } else {
      DPGEN_CHECK(false, cat("unknown codegen pass '", tok,
                             "' (expected canonicalize, unroll[:N], layout, "
                             "none or full)"));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return p;
}

std::vector<std::string> PassPipeline::names() const {
  std::vector<std::string> out;
  if (canonicalize) out.push_back("canonicalize");
  if (unroll) out.push_back(cat("unroll:", unroll_factor));
  if (layout) out.push_back("layout");
  return out;
}

std::string PassPipeline::to_string() const {
  auto n = names();
  return n.empty() ? "none" : join(n, ",");
}

// ---- LayoutPlan ------------------------------------------------------------

LayoutPlan LayoutPlan::make(const tiling::TilingModel& model, bool pad) {
  const spec::ProblemSpec& spec = model.problem();
  const int d = model.dim();
  LayoutPlan plan;
  plan.extents = model.buffer_extents();
  plan.ghost_lo = model.ghost_lo();
  if (pad && d >= 2) {
    auto& inner = plan.extents[static_cast<std::size_t>(d - 1)];
    Int rounded =
        mul_ck((inner + kLayoutAlign - 1) / kLayoutAlign, kLayoutAlign);
    plan.padded = rounded != inner;
    inner = rounded;
  }
  plan.strides.assign(static_cast<std::size_t>(d), 1);
  for (int k = d - 2; k >= 0; --k) {
    auto ks = static_cast<std::size_t>(k);
    plan.strides[ks] = mul_ck(plan.strides[ks + 1], plan.extents[ks + 1]);
  }
  plan.buffer_size = mul_ck(plan.strides[0], plan.extents[0]);
  for (const auto& dp : spec.deps())
    plan.dep_offsets.push_back(vec_dot(plan.strides, dp.vec));
  for (const auto& e : model.edges()) {
    Int shift = 0;
    for (int k = 0; k < d; ++k) {
      auto ks = static_cast<std::size_t>(k);
      shift = add_ck(shift, mul_ck(plan.strides[ks],
                                   mul_ck(spec.widths()[ks], e.offset[ks])));
    }
    plan.unpack_shifts.push_back(shift);
  }
  plan.loc_const = 0;
  for (int k = 0; k < d; ++k) {
    auto ks = static_cast<std::size_t>(k);
    plan.loc_const =
        add_ck(plan.loc_const, mul_ck(plan.strides[ks], plan.ghost_lo[ks]));
  }
  return plan;
}

// ---- ivdep legality --------------------------------------------------------

bool ivdep_legal(const tiling::TilingModel& model) {
  const int d = model.dim();
  for (const auto& dp : model.problem().deps()) {
    bool has_outer = false;
    for (int k = 0; k + 1 < d; ++k)
      if (dp.vec[static_cast<std::size_t>(k)] != 0) has_outer = true;
    if (!has_outer) return false;
  }
  return true;
}

// ---- CenterLoopIR ----------------------------------------------------------

CenterLoopIR CenterLoopIR::lift(const tiling::TilingModel& model) {
  const std::vector<std::string>& orig_names =
      model.problem().space().vars().names();
  CenterLoopIR ir;
  for (const tiling::ValidityCheck& c : model.validity_checks())
    ir.rendered.push_back(cat("(", expr_cpp(c.expr, orig_names),
                              c.rel == poly::Rel::Ge ? ") >= 0" : ") == 0"));
  ir.ivdep_legal = codegen::ivdep_legal(model);
  return ir;
}

// ---- emission --------------------------------------------------------------

std::string loc_expr_cpp(const tiling::TilingModel& model,
                         const LayoutPlan& plan,
                         const std::vector<std::string>& ext_names) {
  std::string out;
  for (int k = 0; k < model.dim(); ++k) {
    auto ks = static_cast<std::size_t>(k);
    Int stride = plan.strides[ks];
    if (!out.empty()) out += " + ";
    if (stride == 1)
      out += ext_names[static_cast<std::size_t>(model.ext_local(k))];
    else
      out += cat(stride, "LL*",
                 ext_names[static_cast<std::size_t>(model.ext_local(k))]);
  }
  if (plan.loc_const != 0) out += cat(" + ", plan.loc_const, "LL");
  return out;
}

namespace {

/// Emits the per-cell body of the center loop (paper IV.L): original
/// coordinates, mapping functions, validity flags, then the user's center
/// code.  `force_true` (optional, one flag per IR check) replaces the
/// marked checks with the literal `true` — the canonicalized interior,
/// where the split thresholds already guarantee them.  `loc_override`
/// (optional) replaces the full mapping expression — the hoisted
/// `dp_row + i` form.
void emit_cell_body(Writer& ww, const tiling::TilingModel& m,
                    const LayoutPlan& plan, const CenterLoopIR& ir,
                    const std::vector<std::string>& ext_names,
                    const std::vector<bool>* force_true,
                    const std::string* loc_override) {
  const spec::ProblemSpec& spec = m.problem();
  const int d = m.dim();
  // Original loop variables: x_k = i_k + w_k * t_k.
  for (int k = 0; k < d; ++k) {
    auto ks = static_cast<std::size_t>(k);
    ww.line(cat("const long long ", spec.var_names()[ks], " = ",
                ext_names[static_cast<std::size_t>(m.ext_local(k))], " + ",
                spec.widths()[ks], "LL*",
                ext_names[static_cast<std::size_t>(m.ext_tile(k))], "; (void)",
                spec.var_names()[ks], ";"));
  }
  std::string loc =
      loc_override ? *loc_override : loc_expr_cpp(m, plan, ext_names);
  ww.line(cat("const long long loc = ", loc, "; (void)loc;"));
  for (std::size_t j = 0; j < spec.deps().size(); ++j) {
    ww.line(cat("const long long loc_", spec.deps()[j].name, " = loc + ",
                plan.dep_offsets[j], "LL; (void)loc_", spec.deps()[j].name,
                ";"));
  }
  // Validity flags (paper IV.G), shared across dependencies.
  for (std::size_t i = 0; i < ir.rendered.size(); ++i) {
    bool forced = force_true && (*force_true)[i];
    ww.line(cat("const bool dp_chk_", i, " = ",
                forced ? "true" : ir.rendered[i], ";"));
  }
  for (std::size_t j = 0; j < spec.deps().size(); ++j) {
    const std::vector<int>& checks = m.dep_checks(static_cast<int>(j));
    std::string cond;
    if (checks.empty()) {
      cond = "true";
    } else {
      std::vector<std::string> parts;
      for (int idx : checks) parts.push_back(cat("dp_chk_", idx));
      cond = join(parts, " && ");
    }
    ww.line(cat("const bool is_valid_", spec.deps()[j].name, " = ", cond,
                "; (void)is_valid_", spec.deps()[j].name, ";"));
  }
  ww.line("// ---- user center-loop code ----");
  Block user(ww, "");
  ww.raw_block(spec.code().center);
}

/// Emits one innermost loop over [`lo`, `hi`] (both inclusive bound
/// expressions) in the given direction, optionally unrolled, optionally
/// preceded by `#pragma GCC ivdep`, optionally carrying the vectorization
/// marker on the for-line.
///
/// Two unrolling strategies, picked by `pragma_unroll`:
///   * pragma (canonicalized interior loops): `#pragma GCC unroll N` on an
///     untouched loop.  Source-level replication would hand the vectorizer
///     a body it can no longer analyze as a single-iteration loop (SLP
///     across the copies fails on the guarded loads), killing the very
///     vectorization the canonicalize pass arranged; the pragma lets GCC
///     vectorize first and unroll the vector loop.
///   * manual (non-canonicalized loops, which keep per-cell varying guards
///     and stay scalar at baseline -O3): the counter advances by the
///     factor, each copy rebinds the loop variable in its own scope, and a
///     scalar remainder loop picks up from the counter so the visit order
///     is exactly the plain loop's.
void emit_inner_loop(Writer& w, const std::string& v, const std::string& lo,
                     const std::string& hi, bool ascending, int unroll,
                     bool pragma_unroll, bool ivdep, bool marker,
                     const std::function<void(Writer&)>& body) {
  auto open = [&](const std::string& header) {
    if (marker) {
      // Emitted without Block so the marker shares the for-statement's
      // line: the check.sh vectorization smoke greps this line's number
      // and matches it against -fopt-info-vec output.
      w.line(cat(header, " {  // dpgen:vec-inner"));
      w.indent();
    } else {
      w.line(header + " {");
      w.indent();
    }
  };
  auto close = [&]() {
    w.dedent();
    w.line("}");
  };
  if (unroll <= 1 || pragma_unroll) {
    if (ivdep) w.line("#pragma GCC ivdep");
    if (unroll > 1) w.line(cat("#pragma GCC unroll ", unroll));
    open(ascending ? cat("for (long long ", v, " = ", lo, "; ", v, " <= ", hi,
                         "; ++", v, ")")
                   : cat("for (long long ", v, " = ", hi, "; ", v, " >= ", lo,
                         "; --", v, ")"));
    body(w);
    close();
    return;
  }
  const std::string base = cat("dp_base_", v);
  w.line(cat("long long ", base, " = ", ascending ? lo : hi, ";"));
  if (ivdep) w.line("#pragma GCC ivdep");
  open(ascending ? cat("for (; ", base, " + ", unroll - 1, "LL <= ", hi, "; ",
                       base, " += ", unroll, "LL)")
                 : cat("for (; ", base, " - ", unroll - 1, "LL >= ", lo, "; ",
                       base, " -= ", unroll, "LL)"));
  for (int u = 0; u < unroll; ++u) {
    Block copy(w, "");
    w.line(cat("const long long ", v, " = ", base, ascending ? " + " : " - ",
               u, "LL;"));
    body(w);
  }
  close();
  {
    Block rem(w, ascending ? cat("for (long long ", v, " = ", base, "; ", v,
                                 " <= ", hi, "; ++", v, ")")
                           : cat("for (long long ", v, " = ", base, "; ", v,
                                 " >= ", lo, "; --", v, ")"));
    body(w);
  }
}

/// Emits the outer (non-innermost) levels of the nest exactly like
/// emit_scan, then hands the writer to `inner` for the innermost level
/// (with dp_lo_<v>/dp_hi_<v> already declared).
void emit_outer_levels(Writer& w, const poly::LoopNest& nest,
                       const std::vector<std::string>& names, int level,
                       const std::function<void(Writer&)>& inner) {
  const std::string& v = names[static_cast<std::size_t>(nest.var_at(level))];
  w.line(cat("const long long dp_lo_", v, " = ",
             level_lo_cpp(nest, level, names), ";"));
  w.line(cat("const long long dp_hi_", v, " = ",
             level_hi_cpp(nest, level, names), ";"));
  if (level == nest.levels() - 1) {
    inner(w);
    return;
  }
  std::string header =
      nest.dir(level) >= 0
          ? cat("for (long long ", v, " = dp_lo_", v, "; ", v, " <= dp_hi_",
                v, "; ++", v, ")")
          : cat("for (long long ", v, " = dp_hi_", v, "; ", v, " >= dp_lo_",
                v, "; --", v, ")");
  Block loop(w, header);
  emit_outer_levels(w, nest, names, level + 1, inner);
}

}  // namespace

void emit_center_plain(Writer& w, const tiling::TilingModel& model,
                       const LayoutPlan& plan,
                       const std::vector<std::string>& ext_names) {
  CenterLoopIR ir = CenterLoopIR::lift(model);
  emit_scan(w, model.local_nest(), ext_names, [&](Writer& ww) {
    emit_cell_body(ww, model, plan, ir, ext_names, nullptr, nullptr);
  });
}

namespace {

/// The canonicalized (or unroll-only) center loop over `nest`.  `full`
/// marks the full-tile nest: the whole innermost range is interior and
/// every validity check is the constant `true`.
void emit_center_nest(Writer& w, const tiling::TilingModel& model,
                      const LayoutPlan& plan, const PassPipeline& passes,
                      const std::vector<std::string>& ext_names,
                      const poly::LoopNest& nest, bool full) {
  CenterLoopIR ir = CenterLoopIR::lift(model);
  const int d = model.dim();
  const int last = nest.levels() - 1;
  const int unroll = passes.unroll ? passes.unroll_factor : 1;

  auto inner = [&](Writer& ww) {
    const std::string& v =
        ext_names[static_cast<std::size_t>(nest.var_at(last))];
    const bool asc = nest.dir(last) >= 0;
    auto plain_body = [&](Writer& wb) {
      emit_cell_body(wb, model, plan, ir, ext_names, nullptr, nullptr);
    };
    if (!passes.canonicalize) {
      // Unroll-only: the whole innermost range, plain body, manual unroll
      // (the per-cell guards keep this loop scalar at baseline -O3, so
      // source-level replication costs nothing and saves loop overhead).
      emit_inner_loop(ww, v, cat("dp_lo_", v), cat("dp_hi_", v), asc, unroll,
                      false, ir.ivdep_legal, true, plain_body);
      return;
    }

    // Hoist the loop-invariant part of the mapping function: the
    // innermost dimension has buffer stride 1, so loc == dp_row + i.
    const std::string row = cat("dp_row_", v);
    {
      std::string expr;
      for (int k = 0; k + 1 < d; ++k) {
        auto ks = static_cast<std::size_t>(k);
        if (!expr.empty()) expr += " + ";
        if (plan.strides[ks] == 1)
          expr += ext_names[static_cast<std::size_t>(model.ext_local(k))];
        else
          expr += cat(plan.strides[ks], "LL*",
                      ext_names[static_cast<std::size_t>(model.ext_local(k))]);
      }
      if (plan.loc_const != 0 || expr.empty())
        expr += cat(expr.empty() ? "" : " + ", plan.loc_const, "LL");
      ww.line(cat("const long long ", row, " = ", expr, ";"));
    }
    const std::string interior_loc = cat(row, " + ", v);
    // Checks that vary with the innermost variable split the range; in
    // the interior segment they are identically true.  Only inequalities
    // split (an equality selects isolated points, not a subrange).
    const std::vector<tiling::ValidityCheck>& checks =
        model.validity_checks();
    std::vector<bool> force(checks.size(), full);
    std::vector<std::string> lo_thr, hi_thr;
    for (std::size_t i = 0; i < checks.size() && !full; ++i) {
      const tiling::ValidityCheck& c = checks[i];
      if (c.rel != poly::Rel::Ge || c.inner_coef == 0) continue;
      force[i] = true;
      poly::Bound b;
      b.rest = c.ext;
      b.rest.set_coef(model.ext_local(d - 1), 0);
      b.coef = c.inner_coef;
      (c.inner_coef > 0 ? lo_thr : hi_thr)
          .push_back(bound_cpp(b, ext_names));
    }
    auto interior_body = [&](Writer& wb) {
      emit_cell_body(wb, model, plan, ir, ext_names, &force, &interior_loc);
    };
    if (lo_thr.empty() && hi_thr.empty()) {
      // Nothing varies with the innermost variable: the whole range is
      // interior.
      emit_inner_loop(ww, v, cat("dp_lo_", v), cat("dp_hi_", v), asc, unroll,
                      true, ir.ivdep_legal, true, interior_body);
      return;
    }
    // Split bounds: interior = [dp_sa, dp_sb], the subrange on which every
    // splittable check holds; head/tail keep the per-cell checks.  The
    // clamps make the three segments an exact partition of [lo, hi] even
    // when the interior is empty.
    std::string sa_chain = cat("dp_lo_", v);
    for (const auto& t : lo_thr) sa_chain = cat("dp_max(", sa_chain, ", ", t, ")");
    std::string sb_chain = cat("dp_hi_", v);
    for (const auto& t : hi_thr) sb_chain = cat("dp_min(", sb_chain, ", ", t, ")");
    ww.line(cat("const long long dp_sa_", v, " = dp_min(", sa_chain,
                ", dp_hi_", v, " + 1LL);"));
    ww.line(cat("const long long dp_sb_", v, " = dp_max(dp_sa_", v,
                " - 1LL, ", sb_chain, ");"));
    auto head = [&]() {
      emit_inner_loop(ww, v, cat("dp_lo_", v), cat("dp_sa_", v, " - 1LL"),
                      asc, 1, false, false, false, plain_body);
    };
    auto interior = [&]() {
      emit_inner_loop(ww, v, cat("dp_sa_", v), cat("dp_sb_", v), asc, unroll,
                      true, ir.ivdep_legal, true, interior_body);
    };
    auto tail = [&]() {
      emit_inner_loop(ww, v, cat("dp_sb_", v, " + 1LL"), cat("dp_hi_", v),
                      asc, 1, false, false, false, plain_body);
    };
    if (asc) {
      head();
      interior();
      tail();
    } else {
      tail();
      interior();
      head();
    }
  };
  emit_outer_levels(w, nest, ext_names, 0, inner);
}

}  // namespace

poly::LoopNest local_box_nest(const tiling::TilingModel& model,
                              const IntVec& lo, const IntVec& hi,
                              const std::vector<int>& dirs) {
  poly::System box(model.ext_vars());
  model.add_local_box(box, lo, hi);
  std::vector<int> order;
  for (int k = 0; k < model.dim(); ++k) order.push_back(model.ext_local(k));
  return poly::LoopNest::build(box, order, dirs);
}

void emit_center_optimized(Writer& w, const tiling::TilingModel& model,
                           const LayoutPlan& plan, const PassPipeline& passes,
                           const std::vector<std::string>& ext_names) {
  DPGEN_CHECK(passes.loop_passes(),
              "emit_center_optimized requires canonicalize or unroll");
  emit_center_nest(w, model, plan, passes, ext_names, model.local_nest(),
                   false);
}

void emit_center_full(Writer& w, const tiling::TilingModel& model,
                      const LayoutPlan& plan, const PassPipeline& passes,
                      const std::vector<std::string>& ext_names) {
  DPGEN_CHECK(passes.canonicalize, "emit_center_full requires canonicalize");
  const poly::LoopNest& nest = model.local_nest();
  IntVec hi = model.problem().widths();
  for (Int& v : hi) v -= 1;
  std::vector<int> dirs;
  for (int level = 0; level < nest.levels(); ++level)
    dirs.push_back(nest.dir(level));
  emit_center_nest(w, model, plan, passes, ext_names,
                   local_box_nest(model, IntVec(hi.size(), 0), hi, dirs),
                   true);
}

}  // namespace dpgen::codegen
