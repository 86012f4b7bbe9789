// The four workloads (README.md): engine-lcs, gen-bandit2, gen-seam and
// sim-whatif.  Each times its set-up, checks every solve against a serial
// answer and, in a traced run, times each layer's public entry point and
// reads the program's own dpgen.report.v1 for the runtime phase shares.

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "codegen/generator.hpp"
#include "engine/engine.hpp"
#include "harness.hpp"
#include "problems/problems.hpp"
#include "sim/cluster_sim.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/str.hpp"
#include "tiling/balance.hpp"
#include "tiling/model.hpp"

namespace perfbench {

using namespace dpgen;

namespace {

// Solves per run are at least this many, so the tail percentile (p75 on
// the grid) always has ten samples beyond it.
constexpr int kMinSolves = 40;
// Solves a traced run makes, at least, with the program's tracing on.
constexpr int kTracedSolves = 5;
// A set-up faster than this is repeated before every solve; a slower one
// (a host compile) is made this many times per run.  setup_s is the median.
constexpr double kCheapSetupSeconds = 0.1;
constexpr int kSetupReps = 3;
// Wall seconds after which a host compile is killed and the workload
// aborted.
constexpr double kCompileTimeoutSeconds = 120.0;
// A traced run's layer spans must cover all but this share of its wall
// time (the rest is the harness's own glue: result checks, memory probes).
constexpr double kGlueTolerance = 0.05;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runtime phase shares summed over the traced solves' reports.
struct Shares {
  std::map<std::string, double> phase;  // thread-seconds per bucket
  double thread_s = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  std::uint64_t dropped = 0;
  int reports = 0;

  void add(const std::string& path) {
    json::ValuePtr doc = json::parse(read_file(path));
    DPGEN_CHECK(doc->at("schema").as_string() == "dpgen.report.v1",
                cat(path, " is not a dpgen.report.v1 document"));
    dropped += static_cast<std::uint64_t>(doc->at("spans_dropped").as_number());
    for (const json::ValuePtr& r :
         doc->at("load_balance").at("ranks").as_array()) {
      thread_s += r->at("thread_seconds").as_number();
      for (const auto& [name, v] : r->at("phases_seconds").fields)
        phase[name] += v->as_number();
    }
    messages += doc->at("comm_matrix").at("total_messages").as_number();
    bytes += doc->at("comm_matrix").at("total_bytes").as_number();
    ++reports;
  }

  double seconds(const std::string& p) const {
    auto it = phase.find(p);
    return it == phase.end() ? 0.0 : it->second;
  }
};

/// One workload: a set-up from spec text, a serial answer, and a solve.
/// run() is the shared measurement protocol.
class Workload {
 public:
  Workload(const Args& a, Layers& layers) : a_(a), layers_(layers) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Outcome run();

 protected:
  /// Spec text to something ready to run (timed as setup_s).
  virtual void setup() = 0;
  /// The serial baseline's answer (timed as problems.serial_s).
  virtual double serial() = 0;
  /// One solve; `report` non-empty = the program's tracing is on and its
  /// dpgen.report.v1 goes there.
  virtual Solve solve(const std::string& report) = 0;
  /// Per-layer counters of the last traced solve.
  virtual void counters(Outcome&) {}
  /// Times the balancer and the initial-tile scan.
  virtual void tiling_layers(Outcome& out);
  /// The model being run at params_ on ranks_ x threads_; null for
  /// sim-whatif, which executes nothing (no serial answer, no report).
  virtual const tiling::TilingModel* model() const = 0;

  std::string path_in(const std::string& file) const {
    return cat(a_.out_dir, "/", file);
  }
  void set(const std::string& name, double v) { out_->layer[name] = v; }
  /// The expected answer, corrupted for the first solve of a self-test.
  std::string want() {
    const bool corrupt = corrupt_;
    corrupt_ = false;
    return exact(corrupt ? expected_ + 1.0 : expected_);
  }
  std::unique_ptr<tiling::TilingModel> build_model(const std::string& text);

  const Args& a_;
  Layers& layers_;
  Outcome* out_ = nullptr;
  IntVec params_;
  int ranks_ = 1;
  int threads_ = 1;
  double expected_ = 0.0;
  bool corrupt_ = false;
  double cells_ = 0.0;  ///< locations, from the balancer's work count
};

std::unique_ptr<tiling::TilingModel> Workload::build_model(
    const std::string& text) {
  spec::ProblemSpec spec;
  {
    Layers::Scope s(layers_, "spec.parse");
    spec = spec::parse_spec(text);
  }
  Layers::Scope s(layers_, "tiling.model");
  return std::make_unique<tiling::TilingModel>(std::move(spec));
}

void Workload::tiling_layers(Outcome& out) {
  double imbalance = 1.0;
  {
    Layers::Scope s(layers_, "tiling.balance");
    tiling::LoadBalancer lb(*model(), params_, ranks_);
    imbalance = lb.imbalance();
    cells_ = static_cast<double>(lb.total_work());
  }
  long long initial = 0;
  {
    Layers::Scope s(layers_, "tiling.initscan");
    model()->for_each_initial_tile(params_, [&](const IntVec&) { ++initial; });
  }
  set("tiling.imbalance", imbalance);
  out.note("initial_tiles", cat(initial));
}

Outcome Workload::run() {
  Outcome out;
  out_ = &out;
  corrupt_ = a_.corrupt_expected;
  std::optional<Layers::Scope> root;
  if (a_.trace) root.emplace(layers_, "perfbench.traced_run");

  auto timed_setup = [&] {
    const double t0 = now_s();
    setup();
    out.setup_s.push_back(now_s() - t0);
  };
  timed_setup();
  // A cheap set-up is repeated before every solve, so its samples spread
  // over the run like the solves do; an expensive one (a host compile) is
  // repeated up front.  A traced run sets up once.
  const bool cheap = out.setup_s.front() < kCheapSetupSeconds;
  for (int i = 1; !a_.trace && !cheap && i < kSetupReps; ++i) timed_setup();
  if (model()) {
    Layers::Scope s(layers_, "problems.serial");
    expected_ = serial();
    out.note("params", vec_to_string(params_));
    out.note("expected", exact(expected_));
  }
  if (!a_.trace) {
    closed_loop(out, a_.seconds, kMinSolves, [&] {
      if (cheap) timed_setup();
      return solve("");
    });
    return out;
  }

  // Traced run: every layer entry point under a span, untraced solves for
  // the overhead baseline, then solves with the program's tracing on.
  for (const char* layer : {"spec.parse", "tiling.model", "codegen.generate",
                            "codegen.compile", "problems.serial"})
    set(cat(layer, "_s"), layers_.total(layer));
  tiling_layers(out);
  set("tiling.balance_s", layers_.total("tiling.balance"));
  set("tiling.initscan_s", layers_.total("tiling.initscan"));

  closed_loop(out, a_.seconds / 2, kMinSolves / 4, [&] { return solve(""); });
  const std::vector<double> untraced = out.solve_s;
  std::vector<double> traced;
  Shares shares;
  const double t_traced = now_s();
  for (int i = 0; i < kTracedSolves || now_s() - t_traced < a_.seconds / 2;
       ++i) {
    const std::string report = path_in(cat("report", i % 2, ".json"));
    Solve s = solve(report);
    out.record(s);
    traced.push_back(s.seconds);
    if (s.ok && model()) {  // sim-whatif writes no report
      Layers::Scope span(layers_, "obs.read_report");
      shares.add(report);
    }
  }
  set("obs.trace_overhead", median(traced) / median(untraced) - 1.0);

  const double n = std::max(shares.reports, 1);
  for (const char* p :
       {"compute", "unpack", "pack", "other", "idle", "poll", "send"})
    set(cat("runtime.", p, "_frac"),
        shares.thread_s > 0 ? shares.seconds(p) / shares.thread_s : 0.0);
  set("minimpi.blocked_send_s", shares.seconds("blocked_send") / n);
  set("minimpi.messages", shares.messages / n);
  set("minimpi.bytes", shares.bytes / n);
  out.note("spans_dropped", cat(shares.dropped));
  if (shares.dropped > 0) {
    out.checks_ok = false;
    std::fprintf(stderr, "perfbench: traced run dropped %llu spans\n",
                 static_cast<unsigned long long>(shares.dropped));
  }
  counters(out);

  if (const tiling::TilingModel* m = model()) {
    const double cells = cells_;
    set("runtime.compute_ns_per_cell", shares.seconds("compute") / n / cells * 1e9);
    // The simulator's prediction for the measured R x T run, priced at the
    // serial loop's seconds per cell.
    sim::ClusterConfig cfg;
    cfg.nodes = ranks_;
    cfg.cores_per_node = threads_;
    cfg.sec_per_cell = layers_.total("problems.serial") / cells;
    sim::SimResult r;
    {
      Layers::Scope s(layers_, "sim.simulate");
      r = sim::simulate(*m, params_, cfg);
    }
    const double secs = layers_.last("sim.simulate");
    set("sim.simulate_s", secs);
    set("sim.tiles_per_s", static_cast<double>(r.tiles) / secs);
    set("sim.pred_ratio", r.makespan / median(untraced));
    out.note("sim.inputs",
             cat("nodes=", ranks_, " cores_per_node=", threads_,
                 " sec_per_cell=", exact(cfg.sec_per_cell),
                 " (problems.serial_s / ", static_cast<long long>(cells),
                 " cells; other ClusterConfig fields default)"));
    out.note("sim.makespan_s", exact(r.makespan));
  }

  root.reset();
  const double glue = layers_.glue_share("perfbench.traced_run");
  out.note("trace.glue_share",
           cat(exact(glue), " (tolerance ", kGlueTolerance, ")"));
  if (glue > kGlueTolerance) {
    out.checks_ok = false;
    std::fprintf(stderr,
                 "perfbench: layer spans cover only %.1f%% of the traced "
                 "wall time\n",
                 100.0 * (1.0 - glue));
  }
  return out;
}

// ---- engine-lcs ------------------------------------------------------------------

class EngineLcs final : public Workload {
 public:
  static constexpr std::size_t kLength = 3000;
  static constexpr Int kWidth = 64;

  EngineLcs(const Args& a, Layers& layers)
      : Workload(a, layers),
        seqs_{problems::random_dna(kLength, a.seed),
              problems::random_dna(kLength, a.seed ^ 0x5bd1e995u)},
        problem_(problems::lcs(seqs_, kWidth)),
        text_(problem_.spec.to_text()) {
    params_ = problems::sequence_params(seqs_);
    ranks_ = 2;
    threads_ = 2;
  }

 protected:
  void setup() override { model_ = build_model(text_); }
  double serial() override { return problem_.reference(params_); }
  const tiling::TilingModel* model() const override { return model_.get(); }

  Solve solve(const std::string& report) override {
    engine::EngineOptions opt;
    opt.ranks = ranks_;
    opt.threads = threads_;
    opt.probes = {problem_.objective};
    opt.report_json_path = report;
    opt.stall_timeout_seconds = a_.solve_timeout_s;
    const std::string expected = want();
    Solve s;
    reset_peak_rss();
    const double base = rss_mb();
    const double t0 = now_s();
    try {
      {
        Layers::Scope span(layers_, "engine.run");
        last_ = engine::run(*model_, params_, problem_.kernel, opt);
      }
      s.seconds = now_s() - t0;
      s.peak_rss_mb = peak_since_reset_mb() - base;
      const std::string got = exact(last_.at(problem_.objective));
      s.ok = got == expected && s.seconds <= a_.solve_timeout_s;
      if (!s.ok)
        s.why = cat("RESULT ", got, " expected ", expected, " in ", s.seconds,
                    " s");
    } catch (const std::exception& e) {
      s.seconds = now_s() - t0;
      s.why = e.what();
    }
    return s;
  }

  void counters(Outcome&) override {
    set("runtime.tiles", last_.total(&runtime::RunStats::tiles_executed));
    set("runtime.remote_edges", last_.total(&runtime::RunStats::remote_edges));
    const double hits = last_.total(&runtime::RunStats::pool_hits);
    const double allocs = last_.total(&runtime::RunStats::edge_allocs);
    set("runtime.pool_hit_frac",
        hits + allocs > 0 ? hits / (hits + allocs) : 0.0);
    long long peak = 0;
    for (const runtime::RunStats& st : last_.rank_stats)
      peak = std::max(peak, st.table.peak_buffered_edges);
    set("runtime.peak_edges", static_cast<double>(peak));
  }

 private:
  std::vector<std::string> seqs_;
  problems::Problem problem_;
  std::string text_;
  std::unique_ptr<tiling::TilingModel> model_;
  engine::EngineResult last_;
};

// ---- gen-bandit2, gen-seam -------------------------------------------------------

/// Flags every generated program is compiled with (the hybrid
/// OpenMP + message-passing configuration, optimised as for release).
const std::vector<std::string> kGenFlags = {
    "-std=c++20", "-O3", "-fopenmp", "-DDPGEN_RUNTIME_USE_OPENMP"};

/// A generated program: set-up is parse + model + generate + host compile,
/// a solve runs the binary from exec to exit.  The program takes its
/// parameters at run time, so a traced run can use smaller ones that fit
/// the tracer's per-thread span ring.
class Generated final : public Workload {
 public:
  using Serial = std::function<double(const IntVec& params)>;

  Generated(const Args& a, Layers& layers, std::string name,
            problems::Problem problem, const IntVec& params,
            const IntVec& traced_params, int ranks, int threads, Serial serial)
      : Workload(a, layers),
        name_(std::move(name)),
        problem_(std::move(problem)),
        text_(problem_.spec.to_text()),
        serial_(std::move(serial)) {
    params_ = a.trace ? traced_params : params;
    ranks_ = ranks;
    threads_ = threads;
  }

 protected:
  void setup() override {
    model_ = build_model(text_);
    const std::string src = path_in(name_ + ".gen.cpp");
    binary_ = path_in(name_ + ".gen");
    {
      Layers::Scope s(layers_, "codegen.generate");
      codegen::GenOptions opt;
      opt.passes = codegen::PassPipeline::parse("full");
      const std::string code = codegen::generate_program(*model_, opt);
      source_bytes_ = static_cast<double>(code.size());
      std::ofstream(src) << code;
    }
    Layers::Scope s(layers_, "codegen.compile");
    std::vector<std::string> argv = {PERFBENCH_CXX};
    argv.insert(argv.end(), kGenFlags.begin(), kGenFlags.end());
    argv.push_back(cat("-I", PERFBENCH_SRC_DIR));
    argv.push_back(src);
    for (const std::string& lib : split_ws(PERFBENCH_LIBS)) argv.push_back(lib);
    argv.insert(argv.end(), {"-lpthread", "-o", binary_});
    ProcResult r = run_process(argv, path_in(name_ + ".compile.log"),
                                kCompileTimeoutSeconds);
    DPGEN_CHECK(r.exit_code == 0,
                cat("compiling the generated ", name_, " program failed:\n",
                    r.output));
  }

  double serial() override { return serial_(params_); }
  const tiling::TilingModel* model() const override { return model_.get(); }

  Solve solve(const std::string& report) override {
    std::vector<std::string> argv = {binary_};
    for (Int v : params_) argv.push_back(cat(v));
    argv.insert(argv.end(), {cat("--ranks=", ranks_),
                             cat("--threads=", threads_), "--passes=full"});
    if (!report.empty())
      argv.insert(argv.end(), {"--report=" + report,
                               "--metrics=" + path_in("metrics.json")});
    std::string line = "RESULT (";
    for (std::size_t k = 0; k < problem_.objective.size(); ++k)
      line += cat(k ? ", " : "", problem_.objective[k]);
    line += cat(") = ", want(), "\n");

    ProcResult r;
    {
      Layers::Scope span(layers_, "program.run");
      r = run_process(argv, path_in(name_ + ".run.log"), a_.solve_timeout_s);
    }
    last_output_ = r.output;
    Solve s;
    s.seconds = r.wall_s;
    s.peak_rss_mb = r.max_rss_mb;
    if (r.timed_out)
      s.why = cat("killed at the ", a_.solve_timeout_s, " s timeout");
    else if (r.exit_code != 0)
      s.why = cat("exit code ", r.exit_code, ":\n", r.output);
    else if (r.output.find("RESULT (") == std::string::npos)
      s.why = "no RESULT line";
    else if (r.output.find(line) == std::string::npos)
      s.why = cat("expected ", line, "got:\n", r.output);
    else
      s.ok = true;
    return s;
  }

  void counters(Outcome&) override {
    set("codegen.source_bytes", source_bytes_);
    // STATS tiles=.. total_work=.. remote_edges=.. bytes=.. peak_edges=..
    auto stat = [&](const std::string& key) {
      const std::size_t at = last_output_.find(" " + key + "=");
      return at == std::string::npos
                 ? 0.0
                 : std::strtod(last_output_.c_str() + at + key.size() + 2,
                               nullptr);
    };
    set("runtime.tiles", stat("tiles"));
    set("runtime.remote_edges", stat("remote_edges"));
    set("runtime.peak_edges", stat("peak_edges"));
    json::ValuePtr m = json::parse(read_file(path_in("metrics.json")));
    const json::Value& c = m->at("counters");
    auto counter = [&](const char* k) {
      return c.has(k) ? c.at(k).as_number() : 0.0;
    };
    const double hits = counter("runtime.pool_hit");
    const double allocs = counter("runtime.edge_alloc");
    set("runtime.pool_hit_frac",
        hits + allocs > 0 ? hits / (hits + allocs) : 0.0);
  }

 private:
  static std::vector<std::string> split_ws(const std::string& s) {
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string w; in >> w;) out.push_back(w);
    return out;
  }

  std::string name_;
  problems::Problem problem_;
  std::string text_;
  Serial serial_;
  std::unique_ptr<tiling::TilingModel> model_;
  std::string binary_;
  double source_bytes_ = 0.0;
  std::string last_output_;
};

constexpr Int kBanditN = 200;
// At 2 x 1 the N=200 traced run overflows the span ring (about 12k tiles
// per thread); N=160 keeps it complete.
constexpr Int kBanditTracedN = 160;
constexpr Int kBanditWidth = 8;
constexpr Int kSeamSize = 1500;  // T = S
constexpr Int kSeamStrip = 64;

std::unique_ptr<Workload> gen_bandit2(const Args& a, Layers& layers) {
  // The bandit has no input data: the seed leaves it unchanged.  Two ranks
  // of one thread each keep two vCPUs free: on a shared 4-vCPU VM the
  // per-run median at 2 x 2 moved 3x more between runs than at 2 x 1
  // (interleaved runs, same host load).
  return std::make_unique<Generated>(
      a, layers, "bandit2", problems::bandit2(kBanditWidth), IntVec{kBanditN},
      IntVec{kBanditTracedN}, 2, 1,
      [](const IntVec& params) { return bandit2_serial(params[0]); });
}

std::unique_ptr<Workload> gen_seam(const Args& a, Layers& layers) {
  problems::Problem p = problems::seam_carving(kSeamStrip, a.seed);
  auto reference = p.reference;
  const IntVec params = {kSeamSize, kSeamSize};
  return std::make_unique<Generated>(a, layers, "seam", std::move(p), params,
                                     params, 1, 4, reference);
}

// ---- sim-whatif --------------------------------------------------------------------

/// The examples/cluster_whatif.cpp sweep: bandit2 over nodes x cores, then
/// the tile-width sweep at 8 x 8.  Nothing executes; the simulator and the
/// balancer it calls carry the work.
class SimWhatif final : public Workload {
 public:
  static constexpr Int kN = 48;

  SimWhatif(const Args& a, Layers& layers) : Workload(a, layers) {
    params_ = {kN};
    for (Int w : kWidths) texts_.push_back(problems::bandit2(w).spec.to_text());
  }

 protected:
  static constexpr Int kWidths[] = {2, 4, 6, 8, 12};
  static constexpr int kNodes[] = {1, 2, 4, 8, 16};
  static constexpr int kCores[] = {8, 24};
  static constexpr std::size_t kWidth8 = 3;  // index of width 8

  void setup() override {
    models_.clear();
    for (const std::string& t : texts_) models_.push_back(build_model(t));
  }
  double serial() override { return 0.0; }
  const tiling::TilingModel* model() const override { return nullptr; }

  /// Every simulated point of one sweep, in sweep order.
  std::vector<std::pair<const tiling::TilingModel*, sim::ClusterConfig>>
  points() const {
    std::vector<std::pair<const tiling::TilingModel*, sim::ClusterConfig>> out;
    for (int nodes : kNodes)
      for (int cores : kCores) {
        sim::ClusterConfig cfg;
        cfg.nodes = nodes;
        cfg.cores_per_node = cores;
        out.emplace_back(models_[kWidth8].get(), cfg);
      }
    for (const auto& m : models_) {
      sim::ClusterConfig cfg;
      cfg.nodes = 8;
      cfg.cores_per_node = 8;
      cfg.tile_overhead_sec = 2e-5;
      cfg.link_latency_sec = 2e-4;
      out.emplace_back(m.get(), cfg);
    }
    return out;
  }

  Solve solve(const std::string& report) override {
    Solve s;
    std::vector<double> makespans;
    reset_peak_rss();
    const double base = rss_mb();
    const double t0 = now_s();
    try {
      Layers::Scope sweep(layers_, "sim.sweep");
      for (auto [m, cfg] : points()) {
        cfg.record_timeline = !report.empty();
        sim::SimResult r;
        const double t_sim = now_s();
        {
          Layers::Scope span(layers_, "sim.simulate");
          r = sim::simulate(*m, params_, cfg);
        }
        if (report.empty()) {
          simulate_s_ += now_s() - t_sim;
          tiles_ += r.tiles;
        }
        const double bound =
            r.total_work_sec / (cfg.nodes * cfg.cores_per_node);
        if (r.makespan < bound && s.why.empty())
          s.why = cat("makespan ", exact(r.makespan), " below the work bound ",
                      exact(bound), " at ", cfg.nodes, "x", cfg.cores_per_node);
        makespans.push_back(r.makespan);
      }
    } catch (const std::exception& e) {
      s.why = e.what();
    }
    s.seconds = now_s() - t0;
    s.peak_rss_mb = peak_since_reset_mb() - base;
    if (report.empty()) ++sweeps_;
    if (reference_.empty()) {
      reference_ = makespans;
      // Self-test: a reference that no later sweep can reproduce.
      if (corrupt_ && !reference_.empty()) reference_[0] += 1.0;
      corrupt_ = false;
    } else if (s.why.empty() && makespans != reference_) {
      s.why = "makespans differ between repetitions of the sweep";
    }
    if (s.why.empty() && s.seconds > a_.solve_timeout_s)
      s.why = cat("sweep took ", s.seconds, " s");
    s.ok = s.why.empty();
    return s;
  }

  void tiling_layers(Outcome& out) override {
    // Every balancer the sweep's simulate() calls build.
    double imbalance = 1.0;
    for (const auto& [m, cfg] : points()) {
      Layers::Scope s(layers_, "tiling.balance");
      tiling::LoadBalancer lb(*m, params_, cfg.nodes);
      if (m == models_[kWidth8].get() && cfg.nodes == 8)
        imbalance = lb.imbalance();
    }
    set("tiling.imbalance", imbalance);
    long long initial = 0;
    {
      Layers::Scope s(layers_, "tiling.initscan");
      models_[kWidth8]->for_each_initial_tile(
          params_, [&](const IntVec&) { ++initial; });
    }
    out.note("initial_tiles", cat(initial));
  }

  void counters(Outcome& out) override {
    // Untraced sweeps only: a traced sweep also records its timeline.
    set("sim.simulate_s", simulate_s_ / static_cast<double>(sweeps_));
    set("sim.tiles_per_s", static_cast<double>(tiles_) / simulate_s_);
    out.note("sweep", cat(points().size(), " simulate() calls, ",
                          tiles_ / sweeps_, " tiles"));
  }

 private:
  std::vector<std::string> texts_;
  std::vector<std::unique_ptr<tiling::TilingModel>> models_;
  std::vector<double> reference_;
  double simulate_s_ = 0.0;
  long long tiles_ = 0;
  long long sweeps_ = 0;
};

}  // namespace

Outcome run_workload(const Args& a, Layers& layers) {
  std::unique_ptr<Workload> w;
  if (a.workload == "engine-lcs")
    w = std::make_unique<EngineLcs>(a, layers);
  else if (a.workload == "gen-bandit2")
    w = gen_bandit2(a, layers);
  else if (a.workload == "gen-seam")
    w = gen_seam(a, layers);
  else if (a.workload == "sim-whatif")
    w = std::make_unique<SimWhatif>(a, layers);
  else
    throw Error(cat("unknown workload '", a.workload, "'"));
  return w->run();
}

std::string generated_flags() {
  std::string s;
  for (const std::string& f : kGenFlags) s += cat(s.empty() ? "" : " ", f);
  return s;
}

}  // namespace perfbench
