#include "reference.hpp"

#include <chrono>

namespace pet::perfbench {

namespace {

constexpr int kDim = 64;
constexpr int kMatVecs = 16;

}  // namespace

ReferenceKernel::ReferenceKernel()
    : weights_(kDim * kDim), x_(kDim, 1.0), y_(kDim, 0.0) {
  for (int i = 0; i < kDim * kDim; ++i) {
    weights_[i] = static_cast<double>((i * 37) % 2001) * 1e-6 - 1e-3;
  }
}

double ReferenceKernel::unit_us() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kMatVecs; ++r) {
    for (int i = 0; i < kDim; ++i) {
      double acc = 0.0;
      for (int j = 0; j < kDim; ++j) acc += weights_[i * kDim + j] * x_[j];
      y_[i] = acc;
    }
    // Feed a little of the output back so consecutive mat-vecs depend on
    // each other, while x stays bounded.
    x_[r % kDim] = 1.0 + 1e-3 * y_[(r * 7) % kDim];
  }
  sink_ += y_[0];
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace pet::perfbench
