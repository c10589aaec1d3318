// Arithmetic of the layer attribution: medians, interval unions, the
// fused-cohort windows and the reconciliation of layer self times against
// the run's wall time. Pure functions, tested by selftest.cpp.
#pragma once

#include <vector>

#include "wrappers.h"

namespace perfbench {

// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double median(std::vector<double> v);

// Seconds covered by at least one interval (overlaps counted once). Calls of
// one hook that run concurrently on the pool therefore count as wall time,
// not as summed busy time.
double union_seconds(std::vector<Interval> v);

// Fused-cohort windows: for each iteration, from the first gradient-point
// call to the first local_step call that follows it. Gradient-point calls
// with no later local_step leave their window open and are dropped.
std::vector<Interval> cohort_windows(std::vector<Interval> gradient_points,
                                     std::vector<Interval> local_steps);

// Reconciliation of one traced run. `layers[i]` holds the intervals one layer
// is attributed; `serial_s` is extra attributed time known to be disjoint
// from every interval (evaluation, from the engine's own obs spans).
//   self_s[i]  = union_seconds(layers[i])
//   covered_s  = union of all layers' intervals + serial_s
//   overlap_s  = sum(self_s) + serial_s - covered_s   (double-counted time)
//   residual_s = run_s - covered_s   (the engine's own time: rosters,
//                                     participation, dispatch, event loop)
// so sum(self_s) + serial_s - overlap_s + residual_s == run_s exactly.
struct Reconciliation {
  std::vector<double> self_s;
  double covered_s = 0;
  double overlap_s = 0;
  double residual_s = 0;
};
Reconciliation reconcile(double run_s,
                         const std::vector<std::vector<Interval>>& layers,
                         double serial_s);

}  // namespace perfbench
