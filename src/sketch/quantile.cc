#include "sketch/quantile.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace habit::sketch {

P2Quantile::P2Quantile(double q) : q_(std::clamp(q, 1e-6, 1.0 - 1e-6)) {
  warmup_.reserve(5);
}

void P2Quantile::Add(double value) {
  ++count_;
  if (warmup_.size() < 5) {
    warmup_.push_back(value);
    if (warmup_.size() == 5) {
      std::sort(warmup_.begin(), warmup_.end());
      for (int i = 0; i < 5; ++i) {
        heights_[i] = warmup_[i];
        positions_[i] = i + 1;
      }
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
      increments_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
    }
    return;
  }

  // Locate the cell containing the new observation and update extremes.
  int k;
  if (value < heights_[0]) {
    heights_[0] = value;
    k = 0;
  } else if (value >= heights_[4]) {
    heights_[4] = value;
    k = 3;
  } else {
    k = 0;
    for (int i = 1; i < 4; ++i) {
      if (value < heights_[i]) break;
      k = i;
    }
  }
  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust interior markers with the parabolic formula (linear fallback).
  for (int i = 1; i < 4; ++i) {
    const double d = desired_[i] - positions_[i];
    const double dp = positions_[i + 1] - positions_[i];
    const double dm = positions_[i - 1] - positions_[i];
    if ((d >= 1.0 && dp > 1.0) || (d <= -1.0 && dm < -1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Classic P^2 parabolic prediction; linear fallback when the result
      // would violate monotonicity of the marker heights.
      const double candidate =
          heights_[i] +
                  sign * ((positions_[i] - positions_[i - 1] + sign) *
                              (heights_[i + 1] - heights_[i]) /
                              (positions_[i + 1] - positions_[i]) +
                          (positions_[i + 1] - positions_[i] - sign) *
                              (heights_[i] - heights_[i - 1]) /
                              (positions_[i] - positions_[i - 1])) /
                      (positions_[i + 1] - positions_[i - 1]);
      if (heights_[i - 1] < candidate && candidate < heights_[i + 1]) {
        heights_[i] = candidate;
      } else {
        // Linear update toward the neighbor in the direction of motion.
        const int nb = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[nb] - heights_[i]) /
                       (positions_[nb] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::Estimate() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (warmup_.size() < 5 || count_ <= 5) {
    std::vector<double> v = warmup_;
    std::sort(v.begin(), v.end());
    const double pos = q_ * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  }
  return heights_[2];
}

double MedianInPlace(std::span<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  std::nth_element(v.begin(), v.begin() + mid - 1, v.begin() + mid);
  return (v[mid - 1] + upper) / 2.0;
}

double ExactMedian::Median() const {
  std::vector<double> v = values_;
  return MedianInPlace(v);
}

}  // namespace habit::sketch
