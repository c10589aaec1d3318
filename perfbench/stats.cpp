#include "stats.h"

#include <algorithm>

namespace perfbench {
namespace {

void sort_by_start(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.t0 < b.t0;
  });
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double union_seconds(std::vector<Interval> v) {
  sort_by_start(v);
  std::int64_t total = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  bool open = false;
  for (const Interval& iv : v) {
    if (open && iv.t0 <= hi) {
      hi = std::max(hi, iv.t1);
      continue;
    }
    if (open) total += hi - lo;
    lo = iv.t0;
    hi = iv.t1;
    open = true;
  }
  if (open) total += hi - lo;
  return static_cast<double>(total) * 1e-9;
}

std::vector<Interval> cohort_windows(std::vector<Interval> gradient_points,
                                     std::vector<Interval> local_steps) {
  sort_by_start(gradient_points);
  sort_by_start(local_steps);
  std::vector<Interval> windows;
  std::size_t s = 0;
  std::size_t g = 0;
  while (g < gradient_points.size()) {
    const std::int64_t open = gradient_points[g].t0;
    // First local_step after the window opened closes it.
    while (s < local_steps.size() && local_steps[s].t0 < open) ++s;
    if (s == local_steps.size()) break;
    const std::int64_t close = local_steps[s].t0;
    windows.push_back({open, close});
    // Skip the remaining gradient-point calls of this window.
    while (g < gradient_points.size() && gradient_points[g].t0 < close) ++g;
  }
  return windows;
}

Reconciliation reconcile(double run_s,
                         const std::vector<std::vector<Interval>>& layers,
                         double serial_s) {
  Reconciliation r;
  std::vector<Interval> all;
  double sum = serial_s;
  for (const std::vector<Interval>& layer : layers) {
    r.self_s.push_back(union_seconds(layer));
    sum += r.self_s.back();
    all.insert(all.end(), layer.begin(), layer.end());
  }
  r.covered_s = union_seconds(std::move(all)) + serial_s;
  r.overlap_s = sum - r.covered_s;
  r.residual_s = run_s - r.covered_s;
  return r;
}

}  // namespace perfbench
