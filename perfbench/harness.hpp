#pragma once
// Shared pieces of the end-to-end benchmark harness (README.md): the
// command line, the closed solve loop with its failure accounting, the
// benchmark-side layer spans, child-process control and memory probes.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "support/vec.hpp"

namespace perfbench {

using dpgen::Int;
using dpgen::IntVec;

struct Args {
  std::string workload;
  unsigned seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string out_dir = ".";
  /// Self-test knob: the first solve checks against a deliberately wrong
  /// expected value, so it must be counted as failed.
  bool corrupt_expected = false;
  /// Wall seconds after which a solve counts as failed (a generated
  /// program is killed at this point).
  double solve_timeout_s = 60.0;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v);

/// The highest percentile on a fixed grid (50/75/90/95/99) that leaves at
/// least ten samples above it.  A grid keeps the reported percentile the
/// same from run to run when the sample count moves a little.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> v);

/// %.17g — the exact text a generated program prints after "RESULT (...) = ".
std::string exact(double v);

// ---- benchmark-side layer spans ---------------------------------------------

/// Spans recorded by the harness around each call into a dpgen layer.  They
/// are always recorded (a handful per solve); the traced run also writes
/// them out in the Chrome trace-event format obs::write_chrome_trace uses.
class Layers {
 public:
  class Scope {
   public:
    Scope(Layers& layers, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Layers& layers_;
    std::size_t index_;
  };

  /// Sum of the durations of every span named `name`, in seconds.
  double total(const std::string& name) const;
  /// Duration of the last span named `name`, in seconds (0 when none).
  double last(const std::string& name) const;

  /// Self time of span i: its duration minus what its children cover.
  double self_seconds(std::size_t i) const;

  /// Self time of `root` (the harness's own glue between layer calls) as a
  /// share of its duration; 0 when no span has that name.
  double glue_share(const std::string& root) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  struct Rec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };
  std::vector<Rec> recs_;
  std::vector<int> open_;
};

// ---- one run's results --------------------------------------------------------

/// What one solve reports back to the closed loop.
struct Solve {
  bool ok = false;
  double seconds = 0.0;
  double peak_rss_mb = 0.0;
  std::string why;  ///< failure reason (empty on success)
};

struct Outcome {
  std::vector<double> solve_s;
  std::vector<double> setup_s;
  std::vector<double> rss_mb;
  long long attempted = 0;
  long long failed = 0;
  /// False when a check outside the solve count failed (a dropped span,
  /// layer times that do not add up to the traced wall time).
  bool checks_ok = true;
  /// Per-layer metric values by name (units live in main.cpp's table).
  std::map<std::string, double> layer;
  /// Inputs and notes printed beside the metrics ("key = value").
  std::vector<std::pair<std::string, std::string>> notes;

  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Counts one solve; failures are reported on stderr as they happen.
  void record(const Solve& s);
};

/// Runs solves back to back until `seconds` have passed and at least
/// `min_solves` were made.  The first solve warms caches and is checked
/// and counted but not timed.
void closed_loop(Outcome& out, double seconds, int min_solves,
                 const std::function<Solve()>& solve);

// ---- processes and memory -------------------------------------------------------

struct ProcResult {
  int exit_code = -1;      ///< -1 when killed by a signal
  bool timed_out = false;  ///< killed at the deadline
  double wall_s = 0.0;     ///< exec to exit
  double max_rss_mb = 0.0; ///< the child's own peak (wait4 rusage)
  std::string output;      ///< stdout and stderr, interleaved
};

/// Runs argv[0] with `argv`, output to `log_path`; a child still running
/// after `timeout_s` is killed with SIGKILL and reaped.
ProcResult run_process(const std::vector<std::string>& argv,
                       const std::string& log_path, double timeout_s);

/// Current resident set, MB.
double rss_mb();
/// Returns freed heap to the OS and restarts the kernel's peak-RSS mark,
/// so peak_since_reset_mb() covers only what runs after this call.  Throws
/// when the kernel refuses the reset, so no stale peak is ever reported.
void reset_peak_rss();
double peak_since_reset_mb();

// ---- oracles (oracles.cpp) --------------------------------------------------------

/// Tight serial bandit2 solver: level by level over s1+f1+s2+f2 = m, two
/// (N+2)^3 slabs instead of the (N+1)^4 array Problem::reference allocates.
/// Evaluates exactly the generated center code's expressions, so its
/// result is bit-identical.
double bandit2_serial(Int n);

// ---- workloads (workloads.cpp) ---------------------------------------------------------

/// Runs one workload; throws dpgen::Error / std::exception on a set-up
/// failure (a compile error aborts the workload).
Outcome run_workload(const Args& args, Layers& layers);

/// The compiler flags generated programs are built with.
std::string generated_flags();

}  // namespace perfbench
