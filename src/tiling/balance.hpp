#pragma once
// Load balancing across nodes (paper section IV.J, plus the Figure 8
// hyperplane method from section VII.B).
//
// The per-dimension method cuts the load-balance cells (tiles grouped by
// their lb_1..lb_j indices) in lb_1-major order into contiguous runs of
// equal work, using exact per-cell work counts (the role the paper's
// Ehrhart polynomials play).  The hyperplane method orders cells by the
// level sets of the all-ones hyperplane over the balanced dimensions before
// cutting, which shortens the pipeline critical path on wedge-shaped
// spaces.  The cut and the owner lookup are runtime::OwnerTable's, the
// same ones a generated program runs.

#include "runtime/run_state.hpp"
#include "tiling/model.hpp"

namespace dpgen::tiling {

enum class BalanceMethod {
  kPerDimension,  // paper IV.J: cut along lb1, refine with lb2, ...
  kHyperplane,    // paper VII.B / Fig. 8: cut along sum(t_lb) level sets
};

/// Assigns every tile to a rank so that per-rank work (location counts) is
/// as even as the cell granularity allows: the model's cells, in the
/// method's order, in an OwnerTable cut over `nranks`.
class LoadBalancer : public runtime::OwnerTable {
 public:
  /// Requires lb dimensions in the model when nranks > 1.
  LoadBalancer(const TilingModel& model, const IntVec& params, int nranks,
               BalanceMethod method = BalanceMethod::kPerDimension);
};

}  // namespace dpgen::tiling
