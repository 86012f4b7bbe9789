// TILEW — paper section VI.C: tile-width sensitivity.
//
// Claims reproduced: the tile size materially affects performance; large
// tiles cause pipeline starvation across nodes (delays compound along the
// load-balance chain), so the best width shrinks as the node count grows —
// for the 3-arm bandit a large width (15) was best at <= 4 nodes while
// smaller tiles win at 8 nodes.

#include "bench_util.hpp"

namespace {

using namespace dpgen;
using namespace dpgen::benchutil;

void tilew_table() {
  header("TILEW", "3-arm-bandit makespan vs tile width and node count");
  const Int n = 45;
  std::printf("%-7s", "width");
  for (int nodes : {1, 4, 8}) std::printf(" %-14s", ("nodes=" + std::to_string(nodes)).c_str());
  std::printf("\n");

  // Machine model where the paper's trade-off lives: cheap cells, a real
  // per-tile cost (allocation/unpack/scheduling) and a real per-message
  // latency.  Small tiles pay overhead and message latency; large tiles
  // starve the inter-node pipeline (section VI.C).
  std::vector<Int> widths{2, 3, 4, 6, 8, 10, 15};
  std::vector<std::vector<double>> makespans(widths.size());
  for (std::size_t wi = 0; wi < widths.size(); ++wi) {
    tiling::TilingModel model(problems::bandit3(widths[wi]).spec);
    for (int nodes : {1, 4, 8}) {
      sim::ClusterConfig cfg;
      cfg.nodes = nodes;
      cfg.cores_per_node = 6;
      cfg.sec_per_cell = 2e-7;
      cfg.tile_overhead_sec = 2e-5;
      cfg.link_latency_sec = 2e-4;
      cfg.link_bandwidth_scalars = 1e8;
      auto r = sim::simulate(model, {n}, cfg);
      makespans[wi].push_back(r.makespan);
    }
  }
  std::vector<std::size_t> best(3, 0);
  for (std::size_t wi = 0; wi < widths.size(); ++wi) {
    std::printf("%-7lld", static_cast<long long>(widths[wi]));
    for (std::size_t c = 0; c < 3; ++c) {
      std::printf(" %-14.4f", makespans[wi][c]);
      if (makespans[wi][c] < makespans[best[c]][c]) best[c] = wi;
    }
    std::printf("\n");
  }
  std::printf("best:  ");
  for (std::size_t c = 0; c < 3; ++c)
    std::printf(" width=%-8lld", static_cast<long long>(widths[best[c]]));
  std::printf("\n");
  std::printf(
      "# paper: width 15 gave better throughput at <= 4 nodes; at 8 nodes "
      "large tiles starve the pipeline and smaller tiles win\n\n");
}

[[maybe_unused]] const bool registered = [] {
  register_bench("tilew/sim_bandit3_w4_nodes4", [] {
    tiling::TilingModel model(problems::bandit3(4).spec);
    sim::ClusterConfig cfg;
    cfg.nodes = 4;
    cfg.cores_per_node = 6;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = sim::simulate(model, {30}, cfg);
    obs::BenchSample s;
    s.seconds = seconds_since(t0);
    s.metrics = {{"tiles", static_cast<double>(r.tiles)},
                 {"remote_messages",
                  static_cast<double>(r.remote_messages)}};
    return s;
  });
  register_table("TILEW", tilew_table);
  return true;
}();

}  // namespace
