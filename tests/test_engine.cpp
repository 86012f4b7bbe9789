// Integration tests for the engine: end-to-end execution of small problems
// through tiling + runtime + minimpi, swept across tile widths, rank
// counts, thread counts, priority policies and balance methods, validated
// against closed-form answers.

#include <gtest/gtest.h>

#include <cmath>

#include "engine/engine.hpp"
#include "engine/interpret.hpp"
#include "fuzz_util.hpp"
#include "problems/problems.hpp"
#include "support/str.hpp"

namespace dpgen::engine {
namespace {

/// f(x) = f(x+1) + 1 with f(N) = 1: f(0) == N + 1.
spec::ProblemSpec countdown_spec(Int width) {
  spec::ProblemSpec s;
  s.name("countdown")
      .params({"N"})
      .vars({"x"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .dep("r1", {1})
      .load_balance({"x"})
      .tile_widths({width})
      .center_code("V[loc] = is_valid_r1 ? V[loc_r1] + 1.0 : 1.0;");
  return s;
}

CenterFn countdown_kernel() {
  return [](const Cell& c) {
    c.V[c.loc] = c.valid[0] ? c.V[c.loc_dep[0]] + 1.0 : 1.0;
  };
}

/// Lattice-path counting on the square [0,N]^2: paths(x,y) =
/// paths(x+1,y) + paths(x,y+1), paths with no valid move = 1.
/// paths(x,y) = C((N-x)+(N-y), N-x).
spec::ProblemSpec paths_spec(Int width) {
  spec::ProblemSpec s;
  s.name("paths")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("y >= 0")
      .constraint("y <= N")
      .dep("r1", {1, 0})
      .dep("r2", {0, 1})
      .load_balance({"x", "y"})
      .tile_widths({width, width})
      .center_code(R"(
double dp_v = 0.0; int dp_any = 0;
if (is_valid_r1) { dp_v += V[loc_r1]; dp_any = 1; }
if (is_valid_r2) { dp_v += V[loc_r2]; dp_any = 1; }
V[loc] = dp_any ? dp_v : 1.0;
)");
  return s;
}

CenterFn paths_kernel() {
  return [](const Cell& c) {
    double v = 0.0;
    bool any = false;
    if (c.valid[0]) {
      v += c.V[c.loc_dep[0]];
      any = true;
    }
    if (c.valid[1]) {
      v += c.V[c.loc_dep[1]];
      any = true;
    }
    c.V[c.loc] = any ? v : 1.0;
  };
}

double binom(Int n, Int k) {
  double r = 1.0;
  for (Int i = 1; i <= k; ++i)
    r = r * static_cast<double>(n - k + i) / static_cast<double>(i);
  return r;
}

TEST(EngineCountdown, SingleRankSingleThread) {
  for (Int width : {1, 3, 4, 7, 16}) {
    tiling::TilingModel model(countdown_spec(width));
    EngineOptions opt;
    opt.probes = {{0}};
    auto result = run(model, {10}, countdown_kernel(), opt);
    EXPECT_DOUBLE_EQ(result.at({0}), 11.0) << "width " << width;
  }
}

TEST(EngineCountdown, MultiRankPipelines) {
  tiling::TilingModel model(countdown_spec(3));
  for (int ranks : {2, 3, 4}) {
    EngineOptions opt;
    opt.ranks = ranks;
    opt.probes = {{0}};
    auto result = run(model, {20}, countdown_kernel(), opt);
    EXPECT_DOUBLE_EQ(result.at({0}), 21.0) << ranks << " ranks";
    // A 1-D chain across ranks must actually communicate.
    long long remote = result.total(&runtime::RunStats::remote_edges);
    EXPECT_GE(remote, ranks - 1);
  }
}

class EnginePathsSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(EnginePathsSweep, MatchesBinomial) {
  auto [width, ranks, threads] = GetParam();
  tiling::TilingModel model(paths_spec(width));
  EngineOptions opt;
  opt.ranks = ranks;
  opt.threads = threads;
  opt.probes = {{0, 0}};
  const Int N = 12;
  auto result = run(model, {N}, paths_kernel(), opt);
  EXPECT_DOUBLE_EQ(result.at({0, 0}), binom(2 * N, N));
}

INSTANTIATE_TEST_SUITE_P(
    WidthRanksThreads, EnginePathsSweep,
    ::testing::Combine(::testing::Values(1, 3, 5, 8),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(1, 3)),
    [](const auto& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST(EnginePaths, RecordAllMatchesClosedFormEverywhere) {
  tiling::TilingModel model(paths_spec(4));
  EngineOptions opt;
  opt.record_all = true;
  opt.ranks = 2;
  const Int N = 7;
  auto result = run(model, {N}, paths_kernel(), opt);
  EXPECT_EQ(result.values.size(), static_cast<std::size_t>((N + 1) * (N + 1)));
  for (Int x = 0; x <= N; ++x)
    for (Int y = 0; y <= N; ++y)
      EXPECT_DOUBLE_EQ(result.at({x, y}), binom(2 * N - x - y, N - x))
          << "(" << x << "," << y << ")";
}

TEST(EnginePaths, BothPoliciesAndBalancersAgree) {
  tiling::TilingModel model(paths_spec(3));
  const Int N = 9;
  for (auto policy : {runtime::PriorityPolicy::kColumnMajor,
                      runtime::PriorityPolicy::kLevelSet}) {
    for (auto method : {tiling::BalanceMethod::kPerDimension,
                        tiling::BalanceMethod::kHyperplane}) {
      EngineOptions opt;
      opt.ranks = 3;
      opt.threads = 2;
      opt.policy = policy;
      opt.balance = method;
      opt.probes = {{0, 0}};
      auto result = run(model, {N}, paths_kernel(), opt);
      EXPECT_DOUBLE_EQ(result.at({0, 0}), binom(2 * N, N));
    }
  }
}

TEST(EnginePaths, PoisonedBuffersStayOutOfResults) {
  // With NaN-poisoned buffers, any read of a ghost cell that was never
  // unpacked (or of an invalid dependency) would contaminate the result.
  tiling::TilingModel model(paths_spec(4));
  EngineOptions opt;
  opt.poison_buffers = true;
  opt.ranks = 2;
  opt.record_all = true;
  auto result = run(model, {8}, paths_kernel(), opt);
  for (const auto& [point, value] : result.values)
    EXPECT_FALSE(std::isnan(value)) << vec_to_string(point);
}

TEST(EnginePaths, BoundedMailboxesStillComplete) {
  tiling::TilingModel model(paths_spec(2));
  EngineOptions opt;
  opt.ranks = 4;
  opt.threads = 2;
  opt.mailbox_capacity = 1;  // smallest legal buffer budget
  opt.probes = {{0, 0}};
  auto result = run(model, {11}, paths_kernel(), opt);
  EXPECT_DOUBLE_EQ(result.at({0, 0}), binom(22, 11));
}

TEST(EngineStats, TileAndEdgeAccounting) {
  tiling::TilingModel model(paths_spec(3));
  IntVec params{10};
  EngineOptions opt;
  opt.ranks = 2;
  opt.probes = {{0, 0}};
  auto result = run(model, params, paths_kernel(), opt);
  EXPECT_EQ(result.total(&runtime::RunStats::tiles_executed),
            model.total_tiles(params));
  // Exactly one dependency-free tile on the square: the (max, max) corner.
  EXPECT_EQ(result.total(&runtime::RunStats::initial_tiles), 1);
  EXPECT_GT(result.total(&runtime::RunStats::remote_edges), 0);
  for (const auto& s : result.rank_stats) {
    EXPECT_GE(s.init_scan_seconds, 0.0);
    EXPECT_GT(s.total_seconds, 0.0);
  }
}

TEST(EngineResultApi, MissingProbeThrows) {
  tiling::TilingModel model(countdown_spec(4));
  EngineOptions opt;
  opt.probes = {{0}};
  auto result = run(model, {5}, countdown_kernel(), opt);
  EXPECT_THROW(result.at({3}), Error);
}

TEST(EngineEqualitySpaces, DiagonalChain) {
  // Iteration space restricted to the diagonal x == y; the tile grid
  // contains off-diagonal tiles only as rational artifacts, and most
  // diagonal-band tiles are clipped.  f(x,y) = f(x+1,y+1) + 1.
  spec::ProblemSpec s;
  s.name("diag")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("x == y")
      .dep("r1", {1, 1})
      .load_balance({"x"})
      .tile_widths({3, 4})  // deliberately mismatched widths
      .center_code("V[loc] = is_valid_r1 ? V[loc_r1] + 1.0 : 1.0;");
  tiling::TilingModel model(std::move(s));
  const Int N = 17;
  EXPECT_EQ(model.total_cells({N}), N + 1);
  EngineOptions opt;
  opt.ranks = 2;
  opt.probes = {{0, 0}};
  auto result = run(model, {N},
                    [](const Cell& c) {
                      c.V[c.loc] = c.valid[0] ? c.V[c.loc_dep[0]] + 1.0 : 1.0;
                    },
                    opt);
  EXPECT_DOUBLE_EQ(result.at({0, 0}), static_cast<double>(N + 1));
}

TEST(EngineEqualitySpaces, StridedLattice) {
  // x == 2y: only even x participate.  f(x,y) = f(x+2,y+1) + 1, so
  // f(0,0) counts the lattice points: floor(N/2) + 1.
  spec::ProblemSpec s;
  s.name("stride")
      .params({"N"})
      .vars({"x", "y"})
      .constraint("x >= 0")
      .constraint("x <= N")
      .constraint("x == 2*y")
      .dep("r1", {2, 1})
      .load_balance({"x"})
      .tile_widths({4, 4})
      .center_code("V[loc] = is_valid_r1 ? V[loc_r1] + 1.0 : 1.0;");
  tiling::TilingModel model(std::move(s));
  const Int N = 21;
  EXPECT_EQ(model.total_cells({N}), N / 2 + 1);
  EngineOptions opt;
  opt.probes = {{0, 0}};
  opt.poison_buffers = true;
  auto result = run(model, {N},
                    [](const Cell& c) {
                      c.V[c.loc] = c.valid[0] ? c.V[c.loc_dep[0]] + 1.0 : 1.0;
                    },
                    opt);
  EXPECT_DOUBLE_EQ(result.at({0, 0}), static_cast<double>(N / 2 + 1));
}

// ---- failure injection: a broken dependency count must stall-fail, not
// hang forever -----------------------------------------------------------

class BrokenDepCountHooks final : public runtime::ProblemHooks<double> {
 public:
  int dim() const override { return 1; }
  Int buffer_size() const override { return 2; }
  int num_edges() const override { return 1; }
  const Int* edge_offset(int) const override { return &offset_; }
  bool tile_exists(const Int* t) const override {
    return t[0] >= 0 && t[0] <= 1;
  }
  int dep_count(const Int*) const override { return 5; }  // wrong: is 1
  void initial_tiles(runtime::TileSink& out) const override {
    const Int last = 1;
    out.add_tile(&last);
  }
  void execute_tile(const Int*, double*) override {}
  Int edge_capacity(int) const override { return 0; }
  Int pack(int, const Int*, const double*, double*) const override {
    return 0;
  }
  void unpack(int, const Int*, const double*, Int, double*) const override {}

 private:
  Int offset_ = 1;
};

/// One rank owning every one of `tiles` tiles (no lb dimensions).
runtime::OwnerTable one_rank(Int tiles) {
  runtime::OwnerTable owners;
  owners.add_cell(nullptr, tiles, tiles);
  owners.cut(1);
  return owners;
}

TEST(EngineFailureInjection, StallTimeoutFires) {
  minimpi::World world(1);
  BrokenDepCountHooks hooks;
  runtime::RunOptions opt;
  opt.order = runtime::TileOrder({0}, {1}, runtime::PriorityPolicy::kColumnMajor);
  opt.stall_timeout_seconds = 0.2;
  // The abort must carry the scheduler snapshot: tile {1} executed, its
  // edge delivered to tile {0}, which then waits forever for the 4
  // dependencies that do not exist.
  try {
    runtime::run_node<double>(hooks, one_rank(2), world.comm(0), opt);
    FAIL() << "expected the stall timeout to fire";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("runtime stalled"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ready=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending=1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("buffered_edges=1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("executed=1/2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blocked_senders=0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("last tile completed: (1)"), std::string::npos) << msg;
  }
}

// ---- live telemetry -----------------------------------------------------

TEST(EngineMonitor, BalancedRunIsQuietAndStillCorrect) {
  // monitor_path "-" turns monitoring on without an event log.  A
  // balanced in-process run must produce the right answer, at least one
  // heartbeat per rank, and zero straggler flags, and the Monitor must
  // unregister from the hub when the run ends.
  tiling::TilingModel model(paths_spec(3));
  EngineOptions opt;
  opt.ranks = 2;
  opt.threads = 2;
  opt.probes = {{0, 0}};
  opt.monitor_path = "-";
  opt.monitor_interval = 0.002;
  const Int N = 40;
  auto result = run(model, {N}, paths_kernel(), opt);
  EXPECT_DOUBLE_EQ(result.at({0, 0}), binom(2 * N, N));
  EXPECT_TRUE(result.stragglers.empty());
  EXPECT_EQ(obs::MonitorHub::instance().count(), 0u);
}

TEST(EngineMonitor, StallWarningFiresAtHalfTheTimeout) {
  // The broken-dep stall from above, but monitored: at 50% of the stall
  // budget the driver must raise a stall_warning through the Monitor
  // (visible live) before the run aborts at 100%.
  obs::MonitorOptions mopt;
  mopt.nranks = 1;
  mopt.interval_s = 0.01;
  obs::Monitor monitor(std::move(mopt));
  minimpi::World world(1);
  BrokenDepCountHooks hooks;
  runtime::RunOptions opt;
  opt.order =
      runtime::TileOrder({0}, {1}, runtime::PriorityPolicy::kColumnMajor);
  opt.stall_timeout_seconds = 0.4;
  opt.monitor = &monitor;
  EXPECT_THROW(
      runtime::run_node<double>(hooks, one_rank(2), world.comm(0), opt),
      Error);
  EXPECT_GE(monitor.stall_warnings(), 1);
}


// ---- row walker conformance ---------------------------------------------
//
// The interpreter walks each tile row by row and splits every row into
// head / interior / tail (TilingModel::for_each_row).  These tests hold
// it to the per-point reference: for every cell of every tile, the Cell a
// CenterFn sees must carry exactly local_index, dep_loc_offset, global_of
// and dep_valid_at, in for_each_cell's order, with the decision bytes in
// that order too.

/// What one CenterFn call observed.
struct SeenCell {
  Int loc = 0;
  std::vector<Int> loc_dep;
  IntVec x;
  std::vector<int> valid;
};

/// Row-shape counts, so each family proves it reached the split cases.
struct RowShapes {
  long long rows = 0;
  long long empty_interior = 0;  // sa > sb
  long long with_head_or_tail = 0;
};

RowShapes expect_walker_conforms(const tiling::TilingModel& m,
                                 const IntVec& params) {
  SCOPED_TRACE(cat(m.problem().problem_name(), " widths ",
                   vec_to_string(m.problem().widths()), " params ",
                   vec_to_string(params)));
  const int d = m.dim();
  const auto ndeps = m.problem().deps().size();
  std::vector<double> buffer(static_cast<std::size_t>(m.buffer_size()));
  RowShapes shapes;
  m.for_each_tile(params, [&](const IntVec& tile) {
    if (::testing::Test::HasFailure()) return;
    SCOPED_TRACE(cat("tile ", vec_to_string(tile)));
    std::vector<SeenCell> got;
    std::vector<unsigned char> decisions;
    CenterFn record = [&](const Cell& c) {
      SeenCell s;
      s.loc = c.loc;
      s.loc_dep.assign(c.loc_dep, c.loc_dep + ndeps);
      s.x.assign(c.x, c.x + d);
      s.valid.assign(c.valid, c.valid + ndeps);
      *c.decision = static_cast<unsigned char>(got.size() * 7 + 1);
      got.push_back(std::move(s));
    };
    detail::execute_tile_interpreted(m, params, tile, record, buffer.data(),
                                     &decisions);

    std::vector<SeenCell> want;
    IntVec orig = params;
    orig.resize(params.size() + static_cast<std::size_t>(d));
    m.for_each_cell(params, tile, [&](const IntVec& local,
                                      const IntVec& global) {
      SeenCell s;
      s.loc = m.local_index(local);
      s.x = m.global_of(tile, local);
      EXPECT_EQ(s.x, global);
      std::copy(global.begin(), global.end(), orig.begin() + params.size());
      for (std::size_t j = 0; j < ndeps; ++j) {
        s.loc_dep.push_back(s.loc + m.dep_loc_offset(static_cast<int>(j)));
        s.valid.push_back(m.dep_valid_at(orig, static_cast<int>(j)) ? 1 : 0);
      }
      want.push_back(std::move(s));
    });

    ASSERT_EQ(got.size(), want.size());
    ASSERT_EQ(decisions.size(), got.size());
    for (std::size_t n = 0; n < got.size(); ++n) {
      SCOPED_TRACE(cat("cell #", n, " at ", vec_to_string(want[n].x)));
      ASSERT_EQ(got[n].x, want[n].x);  // also pins the visit order
      ASSERT_EQ(got[n].loc, want[n].loc);
      ASSERT_EQ(got[n].loc_dep, want[n].loc_dep);
      ASSERT_EQ(got[n].valid, want[n].valid);
      ASSERT_EQ(decisions[n], static_cast<unsigned char>(n * 7 + 1));
    }

    m.for_each_row(params, tile, [&](const tiling::CellRow& row) {
      ++shapes.rows;
      EXPECT_LE(row.lo, row.sa);
      EXPECT_LE(row.sa, row.hi + 1);
      EXPECT_LE(row.sa - 1, row.sb);
      EXPECT_LE(row.sb, row.hi);
      if (row.sa > row.sb) ++shapes.empty_interior;
      if (row.sa > row.lo || row.sb < row.hi) ++shapes.with_head_or_tail;
    });
  });
  return shapes;
}

TEST(InterpretConformance, RunEntryMatchesCellEntry) {
  // A CellRun must hand the kernel exactly the Cells, and collect exactly
  // the decision bytes, that one cell-entry call per cell would.
  const int d = 3;
  const IntVec params{5, 9};
  const IntVec x0{4, 2, 7};
  const Int loc0 = 20;
  std::vector<double> V(64);
  for (int ndeps = 1; ndeps <= 6; ++ndeps)
    for (Int step : {1, -1})
      for (Int count : {1, 5})
        for (bool log : {false, true}) {
          SCOPED_TRACE(cat("deps ", ndeps, " step ", step, " count ", count,
                           log ? " with" : " without", " decisions"));
          const auto nd = static_cast<std::size_t>(ndeps);
          std::vector<Int> offsets;
          std::vector<unsigned char> valid;
          for (int j = 0; j < ndeps; ++j) {
            offsets.push_back(3 * j - 7);
            valid.push_back(j % 2 == 0 ? 1 : 0);
          }
          std::vector<SeenCell> seen;
          CenterFn record = [&](const Cell& c) {
            EXPECT_EQ(c.V, V.data());
            EXPECT_EQ(c.params, params.data());
            EXPECT_EQ(*c.decision, 0);  // zeroed before every cell
            SeenCell s;
            s.loc = c.loc;
            s.loc_dep.assign(c.loc_dep, c.loc_dep + nd);
            s.x.assign(c.x, c.x + d);
            s.valid.assign(c.valid, c.valid + nd);
            *c.decision = static_cast<unsigned char>(c.loc * 5 + 1);
            seen.push_back(std::move(s));
          };

          // Reference: the cell entry once per cell.
          std::vector<Int> ref_dep(nd);
          IntVec ref_x = x0;
          unsigned char slot = 0;
          Cell cell;
          cell.V = V.data();
          cell.loc_dep = ref_dep.data();
          cell.valid = valid.data();
          cell.x = ref_x.data();
          cell.params = params.data();
          cell.decision = &slot;
          std::vector<unsigned char> want_decisions;
          for (Int n = 0; n < count; ++n) {
            cell.loc = loc0 + n * step;
            for (std::size_t j = 0; j < nd; ++j)
              ref_dep[j] = cell.loc + offsets[j];
            ref_x[d - 1] = x0[d - 1] + n * step;
            slot = 0;
            record(cell);
            want_decisions.push_back(slot);
          }
          const std::vector<SeenCell> want = std::move(seen);
          seen.clear();

          IntVec run_x = x0;
          std::vector<Int> run_dep(nd);
          std::vector<unsigned char> decisions;
          CellRun run;
          run.V = V.data();
          run.loc = loc0;
          run.count = count;
          run.step = step;
          run.dep_offsets = offsets.data();
          run.ndeps = nd;
          run.valid = valid.data();
          run.x = run_x.data();
          run.dim = d;
          run.params = params.data();
          run.loc_dep = run_dep.data();
          run.decisions = log ? &decisions : nullptr;
          record.run(run);

          ASSERT_EQ(seen.size(), want.size());
          for (std::size_t n = 0; n < want.size(); ++n) {
            SCOPED_TRACE(cat("cell #", n));
            EXPECT_EQ(seen[n].loc, want[n].loc);
            EXPECT_EQ(seen[n].loc_dep, want[n].loc_dep);
            EXPECT_EQ(seen[n].x, want[n].x);
            EXPECT_EQ(seen[n].valid, want[n].valid);
          }
          if (log)
            EXPECT_EQ(decisions, want_decisions);
          else
            EXPECT_TRUE(decisions.empty());
        }
}

TEST(InterpretConformance, Lcs) {
  const std::vector<std::string> two{"ACGTTGCAACG", "TGCATGCAAGTCA"};
  const std::vector<std::string> three{"ACGTTGC", "TGCATG", "GATTACA"};
  for (Int w : {1, 3, 4, 5}) {
    tiling::TilingModel m2(problems::lcs(two, w).spec);
    RowShapes s = expect_walker_conforms(m2, problems::sequence_params(two));
    EXPECT_GT(s.with_head_or_tail, 0);
    tiling::TilingModel m3(problems::lcs(three, w).spec);
    expect_walker_conforms(m3, problems::sequence_params(three));
  }
}

TEST(InterpretConformance, EditDistanceAndMsa) {
  for (Int w : {2, 3, 7}) {
    tiling::TilingModel ed(
        problems::edit_distance("kitten", "sitting", w).spec);
    expect_walker_conforms(ed,
                           problems::sequence_params({"kitten", "sitting"}));
    const std::vector<std::string> seqs{"ACGTA", "AGTTAC", "CGTAACG"};
    tiling::TilingModel msa(problems::msa(seqs, w).spec);
    expect_walker_conforms(msa, problems::sequence_params(seqs));
  }
}

TEST(InterpretConformance, LocalAndAffineAlignment) {
  const std::string a = "TTGACACGTT", b = "GGCACACAGGA";
  for (Int w : {2, 3, 4}) {
    tiling::TilingModel sw(
        problems::smith_waterman(a, b, 2.0, -1.0, -1.0, w).spec);
    expect_walker_conforms(sw, problems::sequence_params({a, b}));
    tiling::TilingModel aff(
        problems::align_affine(a, b, 1.0, 3.0, 1.0, w).spec);
    expect_walker_conforms(aff, problems::sequence_params({a, b}));
  }
}

TEST(InterpretConformance, TrellisFamiliesSplitRows) {
  // Lateral deps (1,-1) and (1,1) give the innermost dimension checks in
  // both directions; widths 1 and 2 leave rows whose interior is empty.
  RowShapes total;
  for (Int w : {1, 2, 3, 5}) {
    tiling::TilingModel seam(problems::seam_carving(w).spec);
    RowShapes s = expect_walker_conforms(seam, {6, 10});
    tiling::TilingModel trellis(problems::trellis(w).spec);
    RowShapes t = expect_walker_conforms(trellis, {5, 11});
    total.empty_interior += s.empty_interior + t.empty_interior;
    total.with_head_or_tail += s.with_head_or_tail + t.with_head_or_tail;
  }
  EXPECT_GT(total.empty_interior, 0);
  EXPECT_GT(total.with_head_or_tail, 0);
  for (Int wt : {2, 3})
    for (Int ws : {3, 5}) {
      tiling::TilingModel m(problems::downhill(wt, ws).spec);
      expect_walker_conforms(m, {9, 13});
    }
}

TEST(InterpretConformance, BanditAndOneDimensional) {
  for (Int w : {2, 3}) {
    tiling::TilingModel bandit(problems::bandit2(w).spec);
    RowShapes s = expect_walker_conforms(bandit, {7});
    EXPECT_GT(s.rows, 0);
  }
  // 1-D: no outer level, the whole tile is one row.
  for (Int w : {1, 3, 8}) {
    tiling::TilingModel coins(problems::coin_change({1, 3, 4}, w).spec);
    RowShapes s = expect_walker_conforms(coins, {17});
    EXPECT_EQ(s.rows, coins.total_tiles({17}));
  }
}

TEST(InterpretConformance, FuzzSpecsWithEqualities) {
  // Random specs plus an equality: x1 == x_d gives equality checks that
  // vary along the row (per-cell even in the interior), x1 == x2 in 3-D
  // gives row-invariant ones.
  int varying_eq = 0, invariant_eq = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    fuzz::Rng rng(seed);
    int ndeps = 0;
    spec::ProblemSpec base = fuzz::random_spec(rng, &ndeps);
    const int d = base.dim();
    if (d < 2) continue;
    std::vector<std::string> eqs{cat("x1 == x", d)};
    if (d == 3) eqs.push_back("x1 == x2");
    for (const std::string& eq : eqs) {
      spec::ProblemSpec s = base;
      s.constraint(eq);
      SCOPED_TRACE(s.to_text());
      tiling::TilingModel m(std::move(s));
      for (const auto& c : m.validity_checks()) {
        if (c.rel != poly::Rel::Eq) continue;
        ++(c.inner_coef != 0 ? varying_eq : invariant_eq);
      }
      expect_walker_conforms(m, {7});
      expect_walker_conforms(m, {11});
    }
  }
  EXPECT_GT(varying_eq, 0);
  EXPECT_GT(invariant_eq, 0);
}

}  // namespace
}  // namespace dpgen::engine
