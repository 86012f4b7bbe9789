// FMPERF — paper section IV.D: Fourier-Motzkin elimination with duplicate
// and redundant-constraint pruning stays tractable; without pruning the
// constraint count can grow ~(n/2)^2 per eliminated variable.

#include "bench_util.hpp"

#include "poly/fm.hpp"
#include "poly/parse.hpp"
#include "support/str.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;
using poly::System;
using poly::Vars;

System simplex_system(int d) {
  Vars v;
  v.add("N");
  for (int i = 0; i < d; ++i) v.add(cat("x", i));
  System s(v);
  std::string sum;
  for (int i = 0; i < d; ++i) {
    s.add(poly::parse_constraint(cat("x", i, " >= 0"), v));
    sum += cat(i ? " + x" : "x", i);
  }
  s.add(poly::parse_constraint(sum + " <= N", v));
  // Extra pairwise couplings to make elimination non-trivial.
  for (int i = 0; i + 1 < d; ++i)
    s.add(poly::parse_constraint(cat("x", i, " + 2*x", i + 1, " <= 2*N"), v));
  return s;
}

void fm_table() {
  header("FMPERF", "constraints produced vs kept per FM elimination step");
  std::printf("%-6s %-8s %-10s %-10s %-10s\n", "d", "step", "before",
              "produced", "kept");
  for (int d : {4, 6, 8}) {
    System s = simplex_system(d);
    for (int step = 0; step < d; ++step) {
      int before = s.size();
      s = s.eliminated(1 + (d - 1 - step));  // innermost first
      auto st = poly::fm_last_stats();
      std::printf("%-6d %-8d %-10d %-10lld %-10lld\n", d, step, before,
                  st.produced, st.kept);
    }
  }
  std::printf("# pruning keeps the working set near-linear; naive FM would "
              "square the inequality count each step\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("fm/eliminate_simplex8", [] {
    System s = simplex_system(8);
    const auto t0 = std::chrono::steady_clock::now();
    System cur = s;
    for (int k = 8; k >= 1; --k) cur = cur.eliminated(k);
    obs::BenchSample sample;
    sample.seconds = seconds_since(t0);
    sample.metrics = {{"final_constraints", static_cast<double>(cur.size())}};
    return sample;
  });
  register_bench("fm/tiling_model_simplex4", [] {
    const auto t0 = std::chrono::steady_clock::now();
    tiling::TilingModel model(simplex_spec(4, 4));
    obs::BenchSample sample;
    sample.seconds = seconds_since(t0);
    sample.metrics = {{"edges", static_cast<double>(model.num_edges())}};
    return sample;
  });
  register_table("FMPERF", fm_table);
  return true;
}();

}  // namespace
