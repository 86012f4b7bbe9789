#include "tiling/model.hpp"

#include <algorithm>
#include <limits>
#include <set>

#include "support/error.hpp"
#include "support/str.hpp"

namespace dpgen::tiling {

namespace {

/// Picks a name based on `base` that is not yet in `vars`.
std::string unique_name(const poly::Vars& vars, std::string base) {
  while (vars.index_of(base) >= 0) base += "_";
  return base;
}

}  // namespace

TilingModel::TilingModel(spec::ProblemSpec problem) : spec_(std::move(problem)) {
  spec_.validate();
  p_ = spec_.nparams();
  d_ = spec_.dim();
  const IntVec& w = spec_.widths();

  // ---- extended variable table: params, tile indices, local indices ------
  for (const auto& name : spec_.param_names()) ext_vars_.add(name);
  for (const auto& name : spec_.var_names())
    ext_vars_.add(unique_name(ext_vars_, "t_" + name));
  for (const auto& name : spec_.var_names())
    ext_vars_.add(unique_name(ext_vars_, "i_" + name));
  const int n_ext = ext_vars_.size();

  // ---- extended system: substitute x_k = i_k + w_k t_k, add local bounds --
  std::vector<poly::LinExpr> image;
  for (int i = 0; i < p_; ++i)
    image.push_back(poly::LinExpr::term(n_ext, ext_param(i)));
  for (int k = 0; k < d_; ++k) {
    poly::LinExpr e = poly::LinExpr::term(n_ext, ext_local(k)) +
                      poly::LinExpr::term(n_ext, ext_tile(k),
                                          w[static_cast<std::size_t>(k)]);
    image.push_back(std::move(e));
  }
  extended_ = poly::transform(spec_.space(), ext_vars_, image);
  {
    IntVec last = w;
    for (Int& v : last) v -= 1;
    add_local_box(extended_, IntVec(w.size(), 0), last);
  }
  extended_.simplify();

  // ---- tile space: FM-eliminate the local indices, innermost first -------
  {
    std::vector<int> locals;
    for (int k = d_ - 1; k >= 0; --k) locals.push_back(ext_local(k));
    tile_space_ = extended_.eliminated_all(locals);
    // Exact pruning keeps the emitted membership test and the initial-tile
    // face bands minimal (FM projections carry redundant combinations).
    tile_space_.remove_redundant();
  }

  // ---- loop nests ----------------------------------------------------------
  {
    std::vector<int> t_order, i_order;
    for (int k = 0; k < d_; ++k) {
      t_order.push_back(ext_tile(k));
      i_order.push_back(ext_local(k));
    }
    tile_nest_ = poly::LoopNest::build(tile_space_, t_order);
    // Cells within a tile must be scanned against the dependency direction:
    // positive template vectors mean f(x) reads f(x + r), so larger
    // coordinates are computed first (the paper's Fig. 3 "from ub to lb").
    std::vector<int> dirs;
    for (int k = 0; k < d_; ++k)
      dirs.push_back(spec_.dep_signs()[static_cast<std::size_t>(k)] > 0 ? -1
                                                                        : 1);
    local_nest_ = poly::LoopNest::build(extended_, i_order, dirs);
  }

  // ---- ghost geometry, strides, mapping offsets (IV.H) ----------------------
  ghost_lo_.assign(static_cast<std::size_t>(d_), 0);
  ghost_hi_.assign(static_cast<std::size_t>(d_), 0);
  for (const auto& dp : spec_.deps()) {
    for (int k = 0; k < d_; ++k) {
      Int r = dp.vec[static_cast<std::size_t>(k)];
      auto ks = static_cast<std::size_t>(k);
      ghost_lo_[ks] = std::max(ghost_lo_[ks], r < 0 ? -r : 0);
      ghost_hi_[ks] = std::max(ghost_hi_[ks], r > 0 ? r : 0);
    }
  }
  extents_.resize(static_cast<std::size_t>(d_));
  for (int k = 0; k < d_; ++k) {
    auto ks = static_cast<std::size_t>(k);
    extents_[ks] = add_ck(w[ks], add_ck(ghost_lo_[ks], ghost_hi_[ks]));
  }
  strides_.assign(static_cast<std::size_t>(d_), 1);
  for (int k = d_ - 2; k >= 0; --k) {
    auto ks = static_cast<std::size_t>(k);
    strides_[ks] = mul_ck(strides_[ks + 1], extents_[ks + 1]);
  }
  buffer_size_ = mul_ck(strides_[0], extents_[0]);
  for (const auto& dp : spec_.deps())
    dep_offsets_.push_back(vec_dot(strides_, dp.vec));

  // ---- tile dependency offsets and edge slabs (IV.F, IV.I) ------------------
  std::map<IntVec, std::vector<int>> offset_deps;
  for (std::size_t j = 0; j < spec_.deps().size(); ++j) {
    const IntVec& r = spec_.deps()[j].vec;
    // Per-dimension candidate tile offsets: floor((i_k + r_k) / w_k) for
    // i_k in [0, w_k - 1] spans at most two consecutive integers.
    std::vector<IntVec> partial{{}};
    for (int k = 0; k < d_; ++k) {
      auto ks = static_cast<std::size_t>(k);
      Int lo = floor_div(r[ks], w[ks]);
      Int hi = floor_div(add_ck(w[ks] - 1, r[ks]), w[ks]);
      std::vector<IntVec> next;
      for (const auto& base : partial)
        for (Int v = lo; v <= hi; ++v) {
          auto e = base;
          e.push_back(v);
          next.push_back(std::move(e));
        }
      partial = std::move(next);
    }
    for (auto& delta : partial) {
      if (vec_is_zero(delta)) continue;  // intra-tile accesses need no edge
      offset_deps[delta].push_back(static_cast<int>(j));
    }
  }
  // Drop phantom offsets: an offset only becomes an edge when some tile t
  // and its neighbour t + delta can both exist (for some parameter
  // values).  Shifting the affine tile space by the constant delta only
  // moves each constraint's constant term, so feasibility of the
  // conjunction is a pure FM check.
  for (auto it = offset_deps.begin(); it != offset_deps.end();) {
    poly::System both = tile_space_;
    for (const auto& c : tile_space_.constraints()) {
      poly::Constraint shifted = c;
      Int s = 0;
      for (int k = 0; k < d_; ++k)
        s = add_ck(s, mul_ck(c.e.coef(ext_tile(k)),
                             it->first[static_cast<std::size_t>(k)]));
      shifted.e.c = add_ck(shifted.e.c, s);
      both.add(std::move(shifted));
    }
    for (int v = 0; v < ext_vars_.size(); ++v) both = both.eliminated(v);
    both.simplify();
    if (both.known_infeasible())
      it = offset_deps.erase(it);
    else
      ++it;
  }

  // Tile-level acyclicity: every surviving offset must be lexicographically
  // positive under a direction assignment compatible with the cell-level
  // scan directions, or same-row tiles would wait on each other.
  {
    std::vector<int> dirs = spec_.dep_signs();
    for (const auto& [delta, deps] : offset_deps) {
      for (int k = 0; k < d_; ++k) {
        Int v = delta[static_cast<std::size_t>(k)];
        if (v == 0) continue;
        int s = v > 0 ? 1 : -1;
        auto ks = static_cast<std::size_t>(k);
        DPGEN_CHECK(
            dirs[ks] == 0 || dirs[ks] == s,
            cat("tile dependencies form a cycle at the given tile widths "
                "(offset ", vec_to_string(delta), " conflicts in dimension '",
                spec_.var_names()[ks],
                "'); use tile width 1 in the pipelined dimension or "
                "reorder the loop variables"));
        dirs[ks] = s;
        break;
      }
    }
  }

  for (auto& [delta, deps] : offset_deps) {
    Edge e;
    e.offset = delta;
    e.deps = deps;
    e.box_lo.resize(static_cast<std::size_t>(d_));
    e.box_hi.resize(static_cast<std::size_t>(d_));
    e.capacity = 1;
    for (int k = 0; k < d_; ++k) {
      auto ks = static_cast<std::size_t>(k);
      Int lo = w[ks];  // sentinel: above any valid hi
      Int hi = -1;
      for (int j : deps) {
        Int r = spec_.deps()[static_cast<std::size_t>(j)].vec[ks];
        Int shift = mul_ck(w[ks], delta[ks]);
        Int jlo = std::max<Int>(0, sub_ck(r, shift));
        Int jhi = std::min<Int>(w[ks] - 1, sub_ck(add_ck(w[ks] - 1, r), shift));
        if (jlo > jhi) continue;  // this dep cannot cross with this offset here
        lo = std::min(lo, jlo);
        hi = std::max(hi, jhi);
      }
      DPGEN_ASSERT(lo <= hi);
      e.box_lo[ks] = lo;
      e.box_hi[ks] = hi;
      e.capacity = mul_ck(e.capacity, hi - lo + 1);
    }
    edges_.push_back(std::move(e));
  }

  // Pack/unpack iteration spaces: the producer's local space clipped to the
  // edge slab (paper IV.I: "slightly modified versions of the local
  // iteration space of the source tile").
  for (const auto& e : edges_) {
    poly::System s = extended_;
    add_local_box(s, e.box_lo, e.box_hi);
    std::vector<int> i_order;
    for (int k = 0; k < d_; ++k) i_order.push_back(ext_local(k));
    pack_nests_.push_back(poly::LoopNest::build(s, i_order));
    // Hoistable when no innermost bound has a coefficient on the
    // next-outer scan variable.
    const poly::LoopNest& nest = pack_nests_.back();
    const int last = nest.levels() - 1;
    auto mention_outer = [&](const std::vector<poly::Bound>& bounds) {
      return std::any_of(bounds.begin(), bounds.end(),
                         [&](const poly::Bound& b) {
                           return b.rest.coef(nest.var_at(last - 1)) != 0;
                         });
    };
    pack_hoisted_.push_back(last >= 1 && !mention_outer(nest.lowers(last)) &&
                            !mention_outer(nest.uppers(last)));

    Int shift = 0;
    for (int k = 0; k < d_; ++k) {
      auto ks = static_cast<std::size_t>(k);
      shift = add_ck(shift,
                     mul_ck(strides_[ks], mul_ck(w[ks], e.offset[ks])));
    }
    unpack_shifts_.push_back(shift);
  }

  // ---- validity checks (IV.G) -------------------------------------------------
  // Original table is (params, x); lifting moves x_k to the local index i_k
  // and adds the w_k * t_k contribution of x_k = i_k + w_k * t_k.
  std::vector<int> lift_map(spec_.space().vars().names().size(), 0);
  for (int i = 0; i < p_; ++i) lift_map[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < d_; ++k)
    lift_map[static_cast<std::size_t>(spec_.space_var(k))] = ext_local(k);
  dep_checks_.resize(spec_.deps().size());
  for (std::size_t j = 0; j < spec_.deps().size(); ++j) {
    const IntVec& r = spec_.deps()[j].vec;
    for (const auto& c : spec_.space().constraints()) {
      Int shift = 0;
      for (int k = 0; k < d_; ++k)
        shift = add_ck(shift,
                       mul_ck(c.e.coef(spec_.space_var(k)),
                              r[static_cast<std::size_t>(k)]));
      // A Ge constraint satisfied at x stays satisfied at x + r when the
      // shift is non-negative; an equality only when it is zero.
      if (c.rel == poly::Rel::Ge ? shift >= 0 : shift == 0) continue;
      ValidityCheck v;
      v.expr = c.e;
      v.expr.c = add_ck(v.expr.c, shift);
      v.rel = c.rel;
      auto same = [&](const ValidityCheck& o) {
        return o.rel == v.rel && o.expr == v.expr;
      };
      auto it = std::find_if(checks_.begin(), checks_.end(), same);
      if (it == checks_.end()) {
        v.ext = v.expr.remapped(lift_map, n_ext);
        for (int k = 0; k < d_; ++k) {
          Int a = v.expr.coef(spec_.space_var(k));
          v.ext.set_coef(ext_tile(k),
                         mul_ck(a, w[static_cast<std::size_t>(k)]));
        }
        v.inner_coef = v.ext.coef(ext_local(d_ - 1));
        if (v.rel == poly::Rel::Ge && v.inner_coef != 0)
          (v.inner_coef > 0 ? split_lo_ : split_hi_)
              .push_back(static_cast<int>(checks_.size()));
        it = checks_.insert(checks_.end(), std::move(v));
      }
      dep_checks_[j].push_back(static_cast<int>(it - checks_.begin()));
    }
  }

  // ---- full-tile and whole-box check tests ---------------------------------------
  full_test_ = poly::System(ext_vars_);
  for (const auto& c : extended_.constraints()) full_test_.add(box_minimum(c));
  full_test_.simplify();
  checks_test_ = poly::System(ext_vars_);
  for (const auto& v : checks_) checks_test_.add(box_minimum({v.ext, v.rel}));
  checks_test_.simplify();

  // ---- initial-tile face systems (IV.K) ------------------------------------------
  {
    bool need_full_scan = false;
    // Several edges often violate the same constraint by the same (or a
    // smaller) amount, producing nested bands; keep only the widest band
    // per constraint to avoid rescanning the same tiles.
    std::map<int, Int> widest;  // constraint index -> max violation depth
    for (std::size_t ci = 0; ci < tile_space_.constraints().size(); ++ci) {
      const auto& c = tile_space_.constraints()[ci];
      for (const auto& e : edges_) {
        Int s = 0;
        for (int k = 0; k < d_; ++k)
          s = add_ck(s, mul_ck(c.e.coef(ext_tile(k)),
                               e.offset[static_cast<std::size_t>(k)]));
        if (c.rel == poly::Rel::Eq) {
          if (s != 0) need_full_scan = true;
          continue;
        }
        if (s >= 0) continue;
        auto [it, inserted] = widest.emplace(static_cast<int>(ci), neg_ck(s));
        if (!inserted) it->second = std::max(it->second, neg_ck(s));
      }
    }
    for (const auto& [ci, depth] : widest) {
      // Band where t satisfies the constraint but t + offset violates it
      // for some edge: 0 <= c.e(t) <= depth - 1.
      const auto& c =
          tile_space_.constraints()[static_cast<std::size_t>(ci)];
      poly::System band = tile_space_;
      poly::LinExpr hi = -c.e;
      hi.c = add_ck(hi.c, sub_ck(depth, 1));
      band.add_ge(std::move(hi));
      band.simplify();
      if (band.known_infeasible()) continue;
      face_systems_.push_back(std::move(band));
    }
    if (need_full_scan) face_systems_.push_back(tile_space_);
    std::vector<int> t_order;
    for (int k = 0; k < d_; ++k) t_order.push_back(ext_tile(k));
    for (const auto& s : face_systems_)
      face_nests_.push_back(poly::LoopNest::build(s, t_order));
  }

  // ---- load balancing space (IV.J) ------------------------------------------------
  for (const auto& name : spec_.load_balance_dims()) {
    for (int k = 0; k < d_; ++k)
      if (spec_.var_names()[static_cast<std::size_t>(k)] == name)
        lb_dims_.push_back(k);
  }
  {
    std::vector<int> drop;
    for (int k = 0; k < d_; ++k)
      if (std::find(lb_dims_.begin(), lb_dims_.end(), k) == lb_dims_.end())
        drop.push_back(ext_tile(k));
    // The load-balancing space: the tile space with the non-balanced tile
    // indices eliminated.
    poly::System lb_space = tile_space_.eliminated_all(drop);
    lb_space.remove_redundant();
    std::vector<int> lb_order;
    for (int k : lb_dims_) lb_order.push_back(ext_tile(k));
    lb_nest_ = poly::LoopNest::build(lb_space, lb_order);
  }

  // ---- counters ----------------------------------------------------------------------
  {
    std::vector<int> ti_order, t_order, i_order, nonlb_order;
    for (int k = 0; k < d_; ++k) t_order.push_back(ext_tile(k));
    for (int k = 0; k < d_; ++k) i_order.push_back(ext_local(k));
    ti_order = t_order;
    for (int v : i_order) ti_order.push_back(v);
    for (int k = 0; k < d_; ++k)
      if (std::find(lb_dims_.begin(), lb_dims_.end(), k) == lb_dims_.end())
        nonlb_order.push_back(ext_tile(k));

    cells_counter_ = std::make_unique<poly::LatticeCounter>(extended_, ti_order);
    tiles_counter_ =
        std::make_unique<poly::LatticeCounter>(tile_space_, t_order);
    tile_cells_counter_ =
        std::make_unique<poly::LatticeCounter>(extended_, i_order);
    lb_tile_nest_ = poly::LoopNest::build(tile_space_, nonlb_order);
    lb_tiles_counter_ =
        std::make_unique<poly::LatticeCounter>(tile_space_, nonlb_order);
  }
}

IntVec TilingModel::ext_seed(const IntVec& params) const {
  IntVec seed;
  ext_seed_into(params, seed);
  return seed;
}

void TilingModel::ext_seed_into(const IntVec& params, IntVec& seed) const {
  DPGEN_CHECK(static_cast<int>(params.size()) == p_,
              cat("expected ", p_, " parameter values, got ", params.size()));
  seed.assign(ext_vars_.size(), 0);
  std::copy(params.begin(), params.end(), seed.begin());
}

bool TilingModel::tile_in_space(const IntVec& params, const IntVec& tile) const {
  DPGEN_ASSERT(static_cast<int>(tile.size()) == d_);
  // Called once per outgoing edge in the runtime hot path; per-thread
  // scratch keeps it allocation-free in steady state.
  thread_local IntVec seed;
  ext_seed_into(params, seed);
  for (int k = 0; k < d_; ++k)
    seed[static_cast<std::size_t>(ext_tile(k))] =
        tile[static_cast<std::size_t>(k)];
  return tile_space_.contains(seed);
}

void TilingModel::for_each_tile(
    const IntVec& params, const std::function<void(const IntVec&)>& fn) const {
  IntVec tile(static_cast<std::size_t>(d_));
  poly::for_each_point(tile_nest_, ext_seed(params), [&](const IntVec& pt) {
    for (int k = 0; k < d_; ++k)
      tile[static_cast<std::size_t>(k)] =
          pt[static_cast<std::size_t>(ext_tile(k))];
    fn(tile);
  });
}

Int TilingModel::total_tiles(const IntVec& params) const {
  return tiles_counter_->count(ext_seed(params));
}

std::vector<int> TilingModel::priority_dims() const {
  std::vector<int> dims = lb_dims_;
  for (int k = 0; k < dim(); ++k)
    if (std::find(dims.begin(), dims.end(), k) == dims.end()) dims.push_back(k);
  return dims;
}

Int TilingModel::total_cells(const IntVec& params) const {
  return cells_counter_->count(ext_seed(params));
}

std::vector<int> TilingModel::deps_of(const IntVec& params,
                                      const IntVec& tile) const {
  std::vector<int> out;
  for (int e = 0; e < num_edges(); ++e) {
    if (tile_in_space(params,
                      vec_add(tile, edges_[static_cast<std::size_t>(e)].offset)))
      out.push_back(e);
  }
  return out;
}

int TilingModel::num_deps_of(const IntVec& params, const IntVec& tile) const {
  DPGEN_ASSERT(static_cast<int>(tile.size()) == d_);
  thread_local IntVec seed;
  ext_seed_into(params, seed);
  int n = 0;
  for (const Edge& e : edges_) {
    for (int k = 0; k < d_; ++k) {
      auto ks = static_cast<std::size_t>(k);
      seed[static_cast<std::size_t>(ext_tile(k))] =
          add_ck(tile[ks], e.offset[ks]);
    }
    if (tile_space_.contains(seed)) ++n;
  }
  return n;
}

Int TilingModel::local_index(const IntVec& local) const {
  Int idx = 0;
  for (int k = 0; k < d_; ++k) {
    auto ks = static_cast<std::size_t>(k);
    idx = add_ck(idx, mul_ck(strides_[ks], add_ck(local[ks], ghost_lo_[ks])));
  }
  return idx;
}

IntVec TilingModel::global_of(const IntVec& tile, const IntVec& local) const {
  IntVec x(static_cast<std::size_t>(d_));
  for (int k = 0; k < d_; ++k) {
    auto ks = static_cast<std::size_t>(k);
    x[ks] = add_ck(local[ks],
                   mul_ck(spec_.widths()[ks], tile[ks]));
  }
  return x;
}

void TilingModel::for_each_cell(
    const IntVec& params, const IntVec& tile,
    const std::function<void(const IntVec&, const IntVec&)>& fn) const {
  IntVec seed = ext_seed(params);
  for (int k = 0; k < d_; ++k)
    seed[static_cast<std::size_t>(ext_tile(k))] =
        tile[static_cast<std::size_t>(k)];
  IntVec local(static_cast<std::size_t>(d_));
  poly::for_each_point(local_nest_, seed, [&](const IntVec& pt) {
    for (int k = 0; k < d_; ++k)
      local[static_cast<std::size_t>(k)] =
          pt[static_cast<std::size_t>(ext_local(k))];
    fn(local, global_of(tile, local));
  });
}

void TilingModel::split_row(IntVec& pt, std::vector<Int>& base,
                            CellRow& row) const {
  pt[static_cast<std::size_t>(ext_local(d_ - 1))] = 0;
  for (std::size_t c = 0; c < checks_.size(); ++c)
    base[c] = checks_[c].ext.eval(pt);
  // a*i + base >= 0 holds for i >= ceil(-base / a) when a > 0 and for
  // i <= floor(base / -a) when a < 0.  The clamps keep head, interior and
  // tail an exact partition of [lo, hi] when the interior is empty.
  Int sa = row.lo;
  for (int c : split_lo_) {
    auto cs = static_cast<std::size_t>(c);
    sa = std::max(sa, ceil_div(neg_ck(base[cs]), checks_[cs].inner_coef));
  }
  Int sb = row.hi;
  for (int c : split_hi_) {
    auto cs = static_cast<std::size_t>(c);
    sb = std::min(sb, floor_div(base[cs], neg_ck(checks_[cs].inner_coef)));
  }
  row.sa = std::min(sa, add_ck(row.hi, 1));
  row.sb = std::max(sub_ck(row.sa, 1), sb);
}

void TilingModel::add_local_box(poly::System& sys, const IntVec& lo,
                                const IntVec& hi) const {
  const int n = ext_vars_.size();
  for (int k = 0; k < d_; ++k) {
    auto ks = static_cast<std::size_t>(k);
    poly::LinExpr above = poly::LinExpr::term(n, ext_local(k));
    above.c = neg_ck(lo[ks]);
    sys.add_ge(std::move(above));  // i_k >= lo_k
    poly::LinExpr below = -poly::LinExpr::term(n, ext_local(k));
    below.c = hi[ks];
    sys.add_ge(std::move(below));  // i_k <= hi_k
  }
}

poly::Constraint TilingModel::box_minimum(const poly::Constraint& c) const {
  // a.i + rest over 0 <= i_k <= w_k - 1 is smallest at i_k = w_k - 1 where
  // a_k < 0 and at i_k = 0 elsewhere; an integer vertex, so the test is
  // exact.  An equality holds on the whole box only when no local term
  // varies over it.
  poly::Constraint out = c;
  for (int k = 0; k < d_; ++k) {
    const Int span = mul_ck(c.e.coef(ext_local(k)),
                            spec_.widths()[static_cast<std::size_t>(k)] - 1);
    out.e.set_coef(ext_local(k), 0);
    if (c.rel == poly::Rel::Eq && span != 0)
      return {poly::LinExpr(ext_vars_.size(), -1), poly::Rel::Ge};
    out.e.c = add_ck(out.e.c, std::min<Int>(0, span));
  }
  return out;
}

bool TilingModel::contains_tile(const poly::System& test, const IntVec& params,
                                const IntVec& tile) const {
  DPGEN_ASSERT(static_cast<int>(tile.size()) == d_);
  thread_local IntVec seed;
  ext_seed_into(params, seed);
  for (int k = 0; k < d_; ++k)
    seed[static_cast<std::size_t>(ext_tile(k))] =
        tile[static_cast<std::size_t>(k)];
  return test.contains(seed);
}

Int CellCountFn::count(const IntVec& tile) const {
  DPGEN_ASSERT(tile.size() == dims_.size());
  Int total = 1;
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    const Dim& d = dims_[k];
    Int lo = d.lo0;
    Int hi = d.hi0;
    for (const Affine& b : d.bounds) {
      const Int r = add_ck(mul_ck(b.a, tile[k]), b.c);
      if (b.div == 1) {
        // Pre-normalised: r is the bound value itself (lowers were negated
        // at build time), so the common unit-coefficient case pays no
        // division.
        if (b.lower)
          lo = std::max(lo, r);
        else
          hi = std::min(hi, r);
      } else if (b.lower) {
        lo = std::max(lo, ceil_div(neg_ck(r), b.div));
      } else {
        hi = std::min(hi, floor_div(r, b.div));
      }
    }
    if (hi < lo) return 0;
    total = mul_ck(total, hi - lo + 1);
  }
  return total;
}

CellCountFn TilingModel::cell_count_fn(const IntVec& params) const {
  CellCountFn fn;
  if (local_nest_.levels() != d_ || local_nest_.unbounded()) return fn;
  fn.dims_.resize(static_cast<std::size_t>(d_));
  for (auto& d : fn.dims_) {
    d.lo0 = std::numeric_limits<Int>::min();
    d.hi0 = std::numeric_limits<Int>::max();
  }
  for (int level = 0; level < d_; ++level) {
    const int v = local_nest_.var_at(level);
    const int k = v - ext_local(0);
    if (k < 0 || k >= d_) return CellCountFn{};
    CellCountFn::Dim& dim = fn.dims_[static_cast<std::size_t>(k)];
    auto specialize = [&](const poly::Bound& b, bool lower) -> bool {
      CellCountFn::Affine a;
      a.a = b.rest.coef(ext_tile(k));
      a.c = b.rest.c;
      a.div = lower ? b.coef : neg_ck(b.coef);
      a.lower = lower;
      for (int i = 0; i < b.rest.nvars(); ++i) {
        if (b.rest.coef(i) == 0) continue;
        if (i < p_) {
          // Parameter: fold its value into the constant.
          a.c = add_ck(a.c, mul_ck(b.rest.coef(i),
                                   params[static_cast<std::size_t>(i)]));
        } else if (i != ext_tile(k)) {
          // Another tile index or another local variable: the extent of
          // this dimension is coupled to it, so the product form is wrong.
          return false;
        }
      }
      if (a.a == 0) {
        // Tile-independent: fold the finished bound value into lo0/hi0.
        const Int val = lower ? ceil_div(neg_ck(a.c), a.div)
                              : floor_div(a.c, a.div);
        if (lower)
          dim.lo0 = std::max(dim.lo0, val);
        else
          dim.hi0 = std::min(dim.hi0, val);
        return true;
      }
      if (a.div == 1 && lower) {
        // Normalise so count() uses a*t + c directly (see Affine).
        a.a = neg_ck(a.a);
        a.c = neg_ck(a.c);
      }
      dim.bounds.push_back(a);
      return true;
    };
    for (const poly::Bound& b : local_nest_.lowers(level))
      if (!specialize(b, true)) return CellCountFn{};
    for (const poly::Bound& b : local_nest_.uppers(level))
      if (!specialize(b, false)) return CellCountFn{};
  }
  fn.ok_ = true;
  return fn;
}

Int TilingModel::cell_count(const IntVec& params, const IntVec& tile) const {
  // Called per dispatched tile by the monitored driver hot path, so it must
  // not allocate (same idiom as num_deps_of above).
  thread_local IntVec seed;
  ext_seed_into(params, seed);
  for (int k = 0; k < d_; ++k)
    seed[static_cast<std::size_t>(ext_tile(k))] =
        tile[static_cast<std::size_t>(k)];
  return tile_cells_counter_->count_in_place(seed);
}

Int TilingModel::cell_count_lb(const IntVec& params,
                               const IntVec& lb_values) const {
  DPGEN_ASSERT(lb_values.size() == lb_dims_.size());
  IntVec seed = ext_seed(params);
  for (std::size_t i = 0; i < lb_dims_.size(); ++i)
    seed[static_cast<std::size_t>(ext_tile(lb_dims_[i]))] = lb_values[i];
  Int full = 1;
  for (Int w : spec_.widths()) full = mul_ck(full, w);
  Int total = 0;
  IntVec tile(static_cast<std::size_t>(d_));
  poly::for_each_point(lb_tile_nest_, seed, [&](const IntVec& pt) {
    for (int k = 0; k < d_; ++k)
      tile[static_cast<std::size_t>(k)] =
          pt[static_cast<std::size_t>(ext_tile(k))];
    total = add_ck(total, tile_full(params, tile) ? full
                                                  : cell_count(params, tile));
  });
  return total;
}

Int TilingModel::tile_count_lb(const IntVec& params,
                               const IntVec& lb_values) const {
  DPGEN_ASSERT(lb_values.size() == lb_dims_.size());
  IntVec seed = ext_seed(params);
  for (std::size_t i = 0; i < lb_dims_.size(); ++i)
    seed[static_cast<std::size_t>(ext_tile(lb_dims_[i]))] = lb_values[i];
  return lb_tiles_counter_->count(seed);
}

bool TilingModel::dep_valid_at(const IntVec& orig_point, int dep) const {
  for (int c : dep_checks_[static_cast<std::size_t>(dep)]) {
    const ValidityCheck& v = checks_[static_cast<std::size_t>(c)];
    Int val = v.expr.eval(orig_point);
    if (v.rel == poly::Rel::Ge ? val < 0 : val != 0) return false;
  }
  return true;
}

void TilingModel::for_each_pack_cell(
    const IntVec& params, const IntVec& producer, int edge,
    const std::function<void(const IntVec&)>& fn) const {
  IntVec seed = ext_seed(params);
  for (int k = 0; k < d_; ++k)
    seed[static_cast<std::size_t>(ext_tile(k))] =
        producer[static_cast<std::size_t>(k)];
  IntVec local(static_cast<std::size_t>(d_));
  poly::for_each_point(
      pack_nests_[static_cast<std::size_t>(edge)], seed,
      [&](const IntVec& pt) {
        for (int k = 0; k < d_; ++k)
          local[static_cast<std::size_t>(k)] =
              pt[static_cast<std::size_t>(ext_local(k))];
        fn(local);
      });
}

Int TilingModel::for_each_initial_tile(
    const IntVec& params, const std::function<void(const IntVec&)>& fn) const {
  std::set<IntVec> candidates;
  Int scanned = 0;
  IntVec tile(static_cast<std::size_t>(d_));
  for (const auto& nest : face_nests_) {
    poly::for_each_point(nest, ext_seed(params), [&](const IntVec& pt) {
      ++scanned;
      for (int k = 0; k < d_; ++k)
        tile[static_cast<std::size_t>(k)] =
            pt[static_cast<std::size_t>(ext_tile(k))];
      candidates.insert(tile);
    });
  }
  for (const auto& t : candidates) {
    if (!tile_in_space(params, t)) continue;
    bool initial = true;
    for (const auto& e : edges_) {
      if (tile_in_space(params, vec_add(t, e.offset))) {
        initial = false;
        break;
      }
    }
    if (initial) fn(t);
  }
  return scanned;
}

void TilingModel::for_each_lb_cell(
    const IntVec& params, const std::function<void(const IntVec&)>& fn) const {
  IntVec cell(lb_dims_.size());
  poly::for_each_point(lb_nest_, ext_seed(params), [&](const IntVec& pt) {
    for (std::size_t i = 0; i < lb_dims_.size(); ++i)
      cell[i] = pt[static_cast<std::size_t>(ext_tile(lb_dims_[i]))];
    fn(cell);
  });
}

}  // namespace dpgen::tiling
