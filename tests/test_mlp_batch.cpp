// The batched MLP kernels promise bitwise identity with the sequential
// per-sample path: forward_batch is a pure reordering of the same dot
// products, backward_batch accumulates per-parameter gradients in the same
// ascending-sample order. These tests pin that contract with EXPECT_EQ on
// doubles — any reassociation of the floating-point sums is a failure.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rl/mlp.hpp"
#include "sim/rng.hpp"

namespace pet::rl {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  sim::Rng& rng) {
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.uniform() * 2.0 - 1.0;
  return m;
}

TEST(MlpBatch, ForwardBatchBitwiseMatchesLoopedForward) {
  sim::Rng rng(11);
  const std::int32_t in = 7;
  const std::int32_t out = 5;
  Mlp mlp({in, 16, 16, out}, Activation::kTanh, rng);

  for (const std::int32_t batch : {1, 2, 3, 4, 5, 9}) {
    const std::vector<double> x =
        random_matrix(static_cast<std::size_t>(batch),
                      static_cast<std::size_t>(in), rng);
    const std::vector<double> y = mlp.forward_batch(x, batch);
    ASSERT_EQ(y.size(), static_cast<std::size_t>(batch * out));
    for (std::int32_t b = 0; b < batch; ++b) {
      const std::span<const double> row(
          x.data() + static_cast<std::size_t>(b * in),
          static_cast<std::size_t>(in));
      const std::vector<double> single = mlp.forward(row);
      for (std::int32_t j = 0; j < out; ++j) {
        // EXPECT_EQ, not NEAR: the contract is bitwise identity.
        EXPECT_EQ(y[static_cast<std::size_t>(b * out + j)],
                  single[static_cast<std::size_t>(j)])
            << "batch=" << batch << " sample=" << b << " out=" << j;
      }
    }
  }
}

TEST(MlpBatch, ForwardBatchCacheMatchesSingleSampleCache) {
  sim::Rng rng(12);
  Mlp mlp({4, 8, 3}, Activation::kRelu, rng);
  const std::int32_t batch = 6;
  const std::vector<double> x = random_matrix(6, 4, rng);

  Mlp::BatchCache bcache;
  const std::vector<double> y = mlp.forward_batch(x, batch, &bcache);
  ASSERT_EQ(bcache.batch, batch);

  // The batch cache holds the hidden layers' post-activation planes; the
  // output layer's plane is the return value.
  for (std::int32_t b = 0; b < batch; ++b) {
    Mlp::Cache cache;
    const std::span<const double> row(x.data() + static_cast<std::size_t>(b) * 4,
                                      4);
    (void)mlp.forward(row, &cache);
    ASSERT_EQ(bcache.post.size() + 1, cache.post.size());
    for (std::size_t l = 0; l < cache.post.size(); ++l) {
      const std::vector<double>& plane =
          l < bcache.post.size() ? bcache.post[l] : y;
      const std::size_t width = cache.post[l].size();
      for (std::size_t j = 0; j < width; ++j) {
        EXPECT_EQ(plane[static_cast<std::size_t>(b) * width + j],
                  cache.post[l][j]);
      }
    }
  }
}

TEST(MlpBatch, BackwardBatchBitwiseMatchesLoopedBackward) {
  const std::int32_t in = 6;
  const std::int32_t out = 4;
  const std::int32_t batch = 5;

  // Two identically initialized networks: one trained by the looped path,
  // one by the batched path.
  sim::Rng rng_a(21);
  sim::Rng rng_b(21);
  Mlp looped({in, 12, out}, Activation::kTanh, rng_a);
  Mlp batched({in, 12, out}, Activation::kTanh, rng_b);

  sim::Rng data_rng(22);
  const std::vector<double> x =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(in), data_rng);
  std::vector<double> dy =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(out), data_rng);
  // Zeros the looped path skips and the batched kernel adds.
  dy[1] = 0.0;
  dy[static_cast<std::size_t>(out) + 2] = -0.0;

  looped.zero_grad();
  for (std::int32_t b = 0; b < batch; ++b) {
    Mlp::Cache cache;
    const std::span<const double> row(
        x.data() + static_cast<std::size_t>(b * in),
        static_cast<std::size_t>(in));
    (void)looped.forward(row, &cache);
    const std::span<const double> grad(
        dy.data() + static_cast<std::size_t>(b * out),
        static_cast<std::size_t>(out));
    (void)looped.backward(row, cache, grad);
  }

  batched.zero_grad();
  Mlp::BatchCache bcache;
  (void)batched.forward_batch(x, batch, &bcache);
  batched.backward_batch(x, bcache, dy, batch);

  ParamRefs ra;
  ParamRefs rb;
  looped.collect(ra);
  batched.collect(rb);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra.grad(i), rb.grad(i)) << "grad element " << i;
  }
}

TEST(MlpBatch, NoCacheForwardMatchesCachedAndLeavesTrainingUntouched) {
  // Without a cache, forward/forward_batch take the inference fast path:
  // activations applied in place, no per-layer capture. That path must be
  // bitwise identical to the cached forward, and interleaving it with
  // training must not perturb the gradients of a subsequent backward pass.
  sim::Rng rng_a(41);
  sim::Rng rng_b(41);
  Mlp clean({5, 10, 4}, Activation::kTanh, rng_a);
  Mlp mixed({5, 10, 4}, Activation::kTanh, rng_b);

  sim::Rng data_rng(42);
  const std::int32_t batch = 4;
  const std::vector<double> x = random_matrix(4, 5, data_rng);
  const std::vector<double> dy = random_matrix(4, 4, data_rng);
  const std::vector<double> probe = random_matrix(3, 5, data_rng);

  // The no-cache output equals the cached output bit for bit.
  Mlp::BatchCache cache;
  const std::vector<double> y_cached = clean.forward_batch(x, batch, &cache);
  const std::vector<double> y_nocache = mixed.forward_batch(x, batch);
  ASSERT_EQ(y_cached.size(), y_nocache.size());
  for (std::size_t i = 0; i < y_cached.size(); ++i) {
    EXPECT_EQ(y_cached[i], y_nocache[i]) << "output element " << i;
  }

  // Reference gradients: one clean cached-forward + backward.
  clean.zero_grad();
  (void)clean.forward_batch(x, batch, &cache);
  clean.backward_batch(x, cache, dy, batch);

  // Same training step with inference traffic interleaved everywhere the
  // serving path could run it.
  mixed.zero_grad();
  (void)mixed.forward_batch(probe, 3);
  Mlp::BatchCache mixed_cache;
  (void)mixed.forward_batch(x, batch, &mixed_cache);
  (void)mixed.forward(std::span<const double>(probe.data(), 5));
  mixed.backward_batch(x, mixed_cache, dy, batch);

  ParamRefs ra;
  ParamRefs rb;
  clean.collect(ra);
  mixed.collect(rb);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra.param(i), rb.param(i)) << "param element " << i;
    EXPECT_EQ(ra.grad(i), rb.grad(i)) << "grad element " << i;
  }
}

TEST(MlpBatch, LinearBatchKernelsMatchSingleSample) {
  sim::Rng rng(31);
  sim::Rng rng_b(31);
  const std::int32_t in = 9;
  const std::int32_t out = 7;  // not a multiple of the row tile
  Linear a(in, out, rng);
  Linear b_lin(in, out, rng_b);

  sim::Rng data_rng(32);
  const std::int32_t batch = 3;
  const std::vector<double> x =
      random_matrix(static_cast<std::size_t>(batch),
                    static_cast<std::size_t>(in), data_rng);
  std::vector<double> y_batch(static_cast<std::size_t>(batch * out));
  a.forward_batch(x, y_batch, batch);
  for (std::int32_t b = 0; b < batch; ++b) {
    std::vector<double> y(static_cast<std::size_t>(out));
    a.forward(std::span<const double>(
                  x.data() + static_cast<std::size_t>(b * in),
                  static_cast<std::size_t>(in)),
              y);
    for (std::int32_t j = 0; j < out; ++j) {
      EXPECT_EQ(y_batch[static_cast<std::size_t>(b * out + j)],
                y[static_cast<std::size_t>(j)]);
    }
  }

  // Backward: per-sample backward() on `a` against one backward_batch() on
  // its twin, gradients and dL/dx, with zeros (skipped by the per-sample
  // loop, added by the batched kernel) in the upstream gradient.
  std::vector<double> dy = random_matrix(static_cast<std::size_t>(batch),
                                         static_cast<std::size_t>(out),
                                         data_rng);
  dy[2] = 0.0;
  dy[static_cast<std::size_t>(out) + 4] = -0.0;
  std::vector<double> dx_looped(static_cast<std::size_t>(batch * in));
  for (std::int32_t b = 0; b < batch; ++b) {
    a.backward(std::span<const double>(x).subspan(
                   static_cast<std::size_t>(b * in),
                   static_cast<std::size_t>(in)),
               std::span<const double>(dy).subspan(
                   static_cast<std::size_t>(b * out),
                   static_cast<std::size_t>(out)),
               std::span<double>(dx_looped)
                   .subspan(static_cast<std::size_t>(b * in),
                            static_cast<std::size_t>(in)));
  }
  std::vector<double> dx_batched(dx_looped.size());
  b_lin.backward_batch(x, dy, dx_batched, batch);
  for (std::size_t i = 0; i < dx_looped.size(); ++i) {
    EXPECT_EQ(dx_batched[i], dx_looped[i]) << "dx element " << i;
  }
  ParamRefs ra;
  ParamRefs rb;
  a.collect(ra);
  b_lin.collect(rb);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra.grad(i), rb.grad(i)) << "grad element " << i;
  }
}

}  // namespace
}  // namespace pet::rl
