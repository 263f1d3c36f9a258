// The arithmetic both reports use: the multi-process rounds (main.cpp) and
// the traced run (traced.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

namespace clusterbench {

struct Metric {
  double value = 0;
  std::string unit;
};

// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace clusterbench
