#pragma once
// A fixed yardstick of machine speed, timed next to the measured chunks.
//
// On a shared host the same window of simulated work can take half again as
// long from one minute to the next: other tenants contend for the cores,
// and no clock filters that out. One unit of this kernel is timed right
// after every measured chunk, so it runs under the contention the chunk
// ran under, and host time expressed in units of it cancels most of the
// swing. The unit is a few small fp64 mat-vecs whose operands stay in L1:
// over repetitions of identical windows their time tracked the window's
// time with a correlation of 0.79 to 0.99 (0.89 or more in 14 of 15
// sub-scenarios), while a pointer chase through a 2 MB table, binary-heap
// pushes and pops, and a vectorizable matrix product tracked it less
// (perfbench/README.md, "Why reference units").
//
// The kernel is part of the benchmark's definition: changing its work
// re-bases every metric expressed in it, so it never changes with the
// program.

#include <vector>

namespace pet::perfbench {

class ReferenceKernel {
 public:
  ReferenceKernel();

  /// Runs one unit of work (20 to 45 us on a shared 4-core x86 VM) and
  /// returns its host time in microseconds.
  double unit_us();

 private:
  std::vector<double> weights_;
  std::vector<double> x_;
  std::vector<double> y_;
  /// Folds every result in, so no part of a unit can be optimized away.
  double sink_ = 0.0;
};

}  // namespace pet::perfbench
