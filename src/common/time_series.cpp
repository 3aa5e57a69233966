#include "common/time_series.hpp"

#include <utility>

namespace repro::common {

std::vector<double> difference(const std::vector<double>& y, int d) {
  std::vector<double> cur = y;
  for (int k = 0; k < d; ++k) {
    if (cur.size() < 2) return {};
    std::vector<double> next(cur.size() - 1);
    for (std::size_t i = 1; i < cur.size(); ++i) next[i - 1] = cur[i] - cur[i - 1];
    cur = std::move(next);
  }
  return cur;
}

std::vector<double> undifference_once(const std::vector<double>& dy, double y_last) {
  std::vector<double> out(dy.size());
  double acc = y_last;
  for (std::size_t i = 0; i < dy.size(); ++i) {
    acc += dy[i];
    out[i] = acc;
  }
  return out;
}

double mean_of(const std::vector<double>& y) {
  if (y.empty()) return 0.0;
  double s = 0.0;
  for (double v : y) s += v;
  return s / static_cast<double>(y.size());
}

double variance_of(const std::vector<double>& y) {
  if (y.size() < 2) return 0.0;
  double m = mean_of(y);
  double s = 0.0;
  for (double v : y) s += (v - m) * (v - m);
  return s / static_cast<double>(y.size() - 1);
}

}  // namespace repro::common
