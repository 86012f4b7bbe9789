// Serial baselines that Problem::reference cannot supply at benchmark size.

#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

double bandit2_serial(Int n) {
  if (n <= 0) return 0.0;
  // States with s1+f1+s2+f2 = m depend only on level m+1; f2 is implied by
  // the level, so a level is a dense (s1, f1, s2) slab.  Level n is all
  // zeros (every dependency leaves the space).
  const std::size_t e = static_cast<std::size_t>(n) + 2;
  std::vector<double> next(e * e * e, 0.0), cur(e * e * e, 0.0);
  auto at = [e](Int s1, Int f1, Int s2) {
    return (static_cast<std::size_t>(s1) * e + static_cast<std::size_t>(f1)) *
               e +
           static_cast<std::size_t>(s2);
  };
  for (Int m = n - 1; m >= 0; --m) {
    for (Int s1 = 0; s1 <= m; ++s1)
      for (Int f1 = 0; f1 <= m - s1; ++f1) {
        const double p1 = (double)(s1 + 1) / (double)(s1 + f1 + 2);
        for (Int s2 = 0; s2 <= m - s1 - f1; ++s2) {
          const Int f2 = m - s1 - f1 - s2;
          const double p2 = (double)(s2 + 1) / (double)(s2 + f2 + 2);
          const double v1 = p1 * (1.0 + next[at(s1 + 1, f1, s2)]) +
                            (1.0 - p1) * next[at(s1, f1 + 1, s2)];
          const double v2 = p2 * (1.0 + next[at(s1, f1, s2 + 1)]) +
                            (1.0 - p2) * next[at(s1, f1, s2)];
          cur[at(s1, f1, s2)] = v1 > v2 ? v1 : v2;
        }
      }
    std::swap(cur, next);
  }
  return next[at(0, 0, 0)];
}

}  // namespace perfbench
