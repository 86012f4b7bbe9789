#pragma once
// Continuous-benchmarking registry: the cross-commit half of the obs
// subsystem.  Spans and metrics (trace.hpp / metrics.hpp) say where one
// run spent its time; this registry makes runs comparable across commits:
//
//   * every bench translation unit registers named trial functions
//     ("family/config" -> one measured sample) into the process-wide
//     BenchRegistry, so one runner (tools/dpgen-bench) can run any subset
//     with repeated trials; it registers the paper's "# <ID>" figure
//     tables the same way, and `dpgen-bench --table` prints them;
//   * robust_stats() turns repeated trials into median + MAD + min with
//     MAD-scaled outlier rejection — DP kernels on shared machines are
//     noisy enough that single-shot timings mislead (Tadonki,
//     arXiv:2001.07103), so the median of several trials is the tracked
//     statistic and the MAD feeds the regression gate's thresholds;
//   * bench_json() emits the schema-stable dpgen.bench.v1 document
//     (tools/bench_schema.json), keyed by git SHA + machine fingerprint so
//     an archive under bench-archive/ forms an honest per-machine series;
//   * gate() compares a run against a baseline with noise-aware per-bench
//     thresholds (MAD-scaled with a floor) and classifies each bench as
//     ok / regression / improvement.
//
// Records carry named metrics (edges/s, pool-hit %, bytes on wire — often
// read from the MetricsRegistry) so a gated regression is attributable,
// not just detectable.

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace dpgen::obs {

/// One measured trial of a registered bench: wall seconds plus named
/// metrics explaining the number (throughput, counters, hit rates).
struct BenchSample {
  double seconds = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
};

/// A registered bench: "family/config" name plus a callable that runs one
/// trial and reports it.  The callable must be re-runnable (the runner
/// adds warm-up and repeated trials around it).
struct BenchEntry {
  std::string name;
  std::function<BenchSample()> run;
};

/// Process-wide bench registry.  Bench translation units register their
/// entries and tables from static initializers; the dpgen-bench runner
/// links them all.
class BenchRegistry {
 public:
  static BenchRegistry& instance();

  /// Registers an entry; duplicate names are rejected (first one wins)
  /// and reported by the false return.
  bool add(const std::string& name, std::function<BenchSample()> fn);

  const std::vector<BenchEntry>& entries() const { return entries_; }
  const BenchEntry* find(const std::string& name) const;

  /// Names matching `filter` — a comma-separated list of substrings, ""
  /// matches everything — in sorted order.
  std::vector<std::string> select(const std::string& filter) const;

  /// Registers a table printer under its "# <ID>" header ID; duplicate
  /// IDs are rejected like duplicate bench names.
  bool add_table(const std::string& id, std::function<void()> fn);

  /// Table printers keyed (and so ordered) by ID.
  const std::map<std::string, std::function<void()>>& tables() const {
    return tables_;
  }

 private:
  std::vector<BenchEntry> entries_;
  std::map<std::string, std::size_t> by_name_;
  std::map<std::string, std::function<void()>> tables_;
};

/// Robust statistics over repeated trials.  Samples more than
/// `kOutlierMads` scaled MADs above the median are rejected (a page-cache
/// miss, a scheduler preemption) and the statistics recomputed over the
/// kept set; min/max always cover every sample.
struct TrialStats {
  int trials = 0;  ///< samples taken
  int kept = 0;    ///< after outlier rejection
  double median_s = 0.0;
  double mad_s = 0.0;  ///< median absolute deviation of the kept samples
  double min_s = 0.0;
  double max_s = 0.0;
  std::vector<double> samples_s;  ///< raw samples, in run order
};

TrialStats robust_stats(std::vector<double> samples);

/// One bench's result in a dpgen.bench.v1 document.
struct BenchRecord {
  std::string name;
  TrialStats stats;
  /// Metrics of the trial whose seconds is closest to the median.
  std::vector<std::pair<std::string, double>> metrics;
};

/// Environment identity stamped into every document: a run is only
/// comparable to runs of the same machine fingerprint.
struct RunMeta {
  std::string git_sha;      ///< "unknown" outside a git tree
  std::string machine;      ///< human-readable CPU summary
  std::string fingerprint;  ///< stable hash key of `machine`
  long long timestamp = 0;  ///< seconds since the epoch
  int trials = 0;           ///< trials requested per bench
};

/// Reads the git SHA (DPGEN_GIT_SHA env override, then `git rev-parse`),
/// the /proc/cpuinfo summary and the wall clock.
RunMeta collect_run_meta(int trials);

/// Runs one entry: one warm-up plus `trials` measured trials.
/// `slowdown` scales every measured sample (the gate's self-test injects
/// a synthetic regression through it; 1.0 in normal use).
BenchRecord run_bench(const BenchEntry& entry, int trials, int warmup = 1,
                      double slowdown = 1.0);

/// A parsed or in-memory dpgen.bench.v1 document.
struct BenchDoc {
  RunMeta meta;
  std::vector<BenchRecord> records;
};

/// Renders the schema-stable dpgen.bench.v1 JSON document.
std::string bench_json(const BenchDoc& doc);

/// Writes bench_json(doc) to `path` (throws dpgen::Error on I/O failure).
void write_bench_json(const std::string& path, const BenchDoc& doc);

/// Parses a dpgen.bench.v1 document (throws on shape/schema-tag errors).
BenchDoc parse_bench_doc(const json::Value& doc);

// ---- regression gate ------------------------------------------------------

struct GateOptions {
  /// Relative threshold floor: deltas below it never fire, whatever the
  /// noise estimate says (protects against a spuriously tiny MAD).
  double min_rel_delta = 0.10;
  /// Noise scaling: threshold = max(floor, mad_factor * MAD / median),
  /// with the MAD taken as the larger of the baseline's and the run's.
  double mad_factor = 5.0;
  /// Absolute floor: |run - baseline| below this many seconds never
  /// fires.  Microsecond-scale benches jitter 20-30% between processes
  /// (cache state, frequency scaling) while their within-run MAD stays
  /// tiny; an absolute floor keeps them from tripping the gate on noise
  /// no relative threshold can model.
  double min_abs_delta_s = 1e-4;
};

enum class GateVerdict {
  kOk,           ///< within threshold
  kRegression,   ///< run median above baseline median by > threshold
  kImprovement,  ///< run median below baseline median by > threshold
  kNoBaseline,   ///< bench ran but the baseline has no record of it
  kNotRun,       ///< baseline record with no counterpart in the run
};

struct GateFinding {
  std::string name;
  GateVerdict verdict = GateVerdict::kOk;
  double baseline_s = 0.0;
  double run_s = 0.0;
  double ratio = 0.0;      ///< run / baseline (0 when either is missing)
  double threshold = 0.0;  ///< relative threshold applied
};

struct GateResult {
  bool fingerprint_match = true;
  int regressions = 0;
  int improvements = 0;
  std::vector<GateFinding> findings;  ///< sorted by name
};

/// Compares `run` against `baseline` with per-bench noise-aware
/// thresholds.  Benches present on only one side are classified, never
/// counted as regressions.
GateResult gate(const BenchDoc& baseline, const BenchDoc& run,
                const GateOptions& options = {});

/// Human-readable verdict table (one line per finding plus a summary).
std::string gate_text(const GateResult& result);

/// Machine-readable rendering ("dpgen.benchgate.v1").
std::string gate_json(const GateResult& result);

}  // namespace dpgen::obs
