#include "rl/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pet::rl {
namespace {

/// Standalone 2-parameter "model" for optimizer tests.
struct TwoParams {
  double p[2] = {5.0, -3.0};
  double g[2] = {0.0, 0.0};

  [[nodiscard]] ParamRefs refs() { return ParamRefs{{{p, g}}}; }
};

TEST(Adam, MinimizesQuadratic) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  for (int i = 0; i < 500; ++i) {
    model.g[0] = 2.0 * model.p[0];          // d/dp0 of p0^2
    model.g[1] = 2.0 * (model.p[1] - 1.0);  // d/dp1 of (p1-1)^2
    opt.step();
  }
  EXPECT_NEAR(model.p[0], 0.0, 1e-2);
  EXPECT_NEAR(model.p[1], 1.0, 1e-2);
}

TEST(Adam, FirstStepMovesByLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  TwoParams model;
  model.p[0] = 0.0;
  Adam opt(model.refs(), AdamConfig{.lr = 0.01, .max_grad_norm = 0.0});
  model.g[0] = 3.7;
  model.g[1] = -0.2;
  opt.step();
  EXPECT_NEAR(model.p[0], -0.01, 1e-6);
  EXPECT_NEAR(model.p[1], -3.0 + 0.01, 1e-6);
}

TEST(Adam, GradClipBoundsUpdateDirection) {
  TwoParams model;
  const double p0 = model.p[0];
  Adam clipped(model.refs(),
               AdamConfig{.lr = 0.1, .max_grad_norm = 1e-6});
  model.g[0] = 1e6;
  model.g[1] = 1e6;
  clipped.step();
  // Clipping rescales the gradient, but Adam normalizes by its RMS, so the
  // step size stays ~lr; direction must still be descent.
  EXPECT_LT(model.p[0], p0);
  EXPECT_GT(model.p[0], p0 - 0.2);
}

TEST(Adam, StepCounterAdvances) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{});
  EXPECT_EQ(opt.steps(), 0);
  opt.step();
  opt.step();
  EXPECT_EQ(opt.steps(), 2);
}

TEST(Adam, SetLrTakesEffect) {
  TwoParams a, b;
  Adam oa(a.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  Adam ob(b.refs(), AdamConfig{.lr = 0.1, .max_grad_norm = 0.0});
  ob.set_lr(0.0);
  EXPECT_EQ(ob.lr(), 0.0);
  a.g[0] = b.g[0] = 1.0;
  oa.step();
  ob.step();
  EXPECT_NE(a.p[0], 5.0);
  EXPECT_EQ(b.p[0], 5.0);
}

TEST(Adam, ZeroGradProducesNoMovement) {
  TwoParams model;
  Adam opt(model.refs(), AdamConfig{.lr = 0.5});
  opt.step();
  EXPECT_EQ(model.p[0], 5.0);
  EXPECT_EQ(model.p[1], -3.0);
}

}  // namespace
}  // namespace pet::rl
