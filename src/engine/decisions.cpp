#include "engine/decisions.hpp"

#include <algorithm>

#include "engine/interpret.hpp"
#include "support/str.hpp"

namespace dpgen::engine {

void DecisionLog::record(const IntVec& tile,
                         const std::vector<unsigned char>& cells) {
  std::vector<Run> runs;
  for (unsigned char d : cells) {
    if (!runs.empty() && runs.back().decision == d)
      ++runs.back().count;
    else
      runs.push_back({d, 1});
  }
  std::lock_guard<std::mutex> lock(mu_);
  runs_.insert_or_assign(tile, std::move(runs));
}

unsigned char DecisionLog::decision_at(const tiling::TilingModel& model,
                                       const IntVec& params,
                                       const IntVec& point) const {
  IntVec tile = detail::tile_of(model, point);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(tile);
  DPGEN_CHECK(it != runs_.end(),
              cat("no decisions recorded for the tile containing ",
                  vec_to_string(point)));
  // Index of the point within the tile's scan order: the cells of the
  // rows before its row, then its position along the row.
  const auto last = point.size() - 1;
  Int index = -1, before = 0;
  model.for_each_row(params, tile, [&](const tiling::CellRow& row) {
    const Int i = point[last] - row.x_inner;
    if (index < 0 && i >= row.lo && i <= row.hi &&
        std::equal(row.x, row.x + last, point.begin()))
      index = before + (row.ascending ? i - row.lo : row.hi - i);
    before += row.hi - row.lo + 1;
  });
  DPGEN_CHECK(index >= 0, cat("point ", vec_to_string(point),
                              " is not a cell of its tile"));
  for (const Run& r : it->second) {
    if (index < r.count) return r.decision;
    index -= r.count;
  }
  raise("decision log shorter than the tile (engine bug)");
}

long long DecisionLog::total_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  long long n = 0;
  for (const auto& [tile, runs] : runs_)
    for (const Run& r : runs) n += r.count;
  return n;
}

long long DecisionLog::total_runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  long long n = 0;
  for (const auto& [tile, runs] : runs_)
    n += static_cast<long long>(runs.size());
  return n;
}

double DecisionLog::compression_ratio() const {
  long long runs = total_runs();
  return runs == 0 ? 0.0
                   : static_cast<double>(total_cells()) /
                         static_cast<double>(runs);
}

}  // namespace dpgen::engine
