#pragma once
// Time-series transforms shared by the forecasting stack (ARIMA) and the
// experiment harness.
#include <vector>

namespace repro::common {

/// d-fold differencing: y'[t] = y[t] - y[t-1], applied d times.
std::vector<double> difference(const std::vector<double>& y, int d);

/// Invert one level of differencing given the last original value.
std::vector<double> undifference_once(const std::vector<double>& dy, double y_last);

double mean_of(const std::vector<double>& y);
double variance_of(const std::vector<double>& y);

}  // namespace repro::common
