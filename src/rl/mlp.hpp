#pragma once
// Small dense networks with explicit backpropagation. The policy/value
// networks in this problem are tiny (tens of inputs, two hidden layers), so
// a hand-rolled MLP with numerically verified gradients replaces the
// paper's PyTorch dependency.

#include <cstdint>
#include <span>
#include <vector>

#include "sim/checkpoint.hpp"
#include "sim/rng.hpp"

namespace pet::rl {

/// One contiguous run of parameters and the gradients that pair with them
/// element for element: one Linear's weights, or its biases.
struct ParamSpan {
  std::span<double> params;
  std::span<double> grads;
};

/// The flat parameter view optimizers operate on: the spans of one or more
/// modules in collection order, which is also the flattening order of
/// weight snapshots, Adam moments and checkpoints. Spans stay valid for the
/// module lifetime (parameter vectors never resize or reallocate).
struct ParamRefs {
  std::vector<ParamSpan> spans;

  /// Number of scalars across all spans.
  [[nodiscard]] std::size_t size() const;
  /// Scalar `i` in flattening order. Walks the spans; for tests and tools,
  /// not for per-element loops.
  [[nodiscard]] double& param(std::size_t i) const;
  [[nodiscard]] double& grad(std::size_t i) const;
};

/// Fully connected layer y = W x + b with gradient accumulation.
class Linear {
 public:
  Linear(std::int32_t in, std::int32_t out, sim::Rng& rng);

  [[nodiscard]] std::int32_t in_size() const { return in_; }
  [[nodiscard]] std::int32_t out_size() const { return out_; }

  /// Read-only parameter views (row-major out x in), for inference-only
  /// snapshots (rl::InferenceModel) and test oracles.
  [[nodiscard]] std::span<const double> weights() const { return w_; }
  [[nodiscard]] std::span<const double> biases() const { return b_; }

  void forward(std::span<const double> x, std::span<double> y) const;

  /// Accumulate dL/dW, dL/db from upstream gradient `dy`; if `dx` is
  /// non-empty, also produce dL/dx (size in_size()).
  void backward(std::span<const double> x, std::span<const double> dy,
                std::span<double> dx);

  /// Batched forward over row-major matrices: `x` is (batch x in), `y` is
  /// (batch x out). Uses a register-blocked GEMM inner loop but keeps each
  /// (sample, output) accumulation in ascending-input order, so the result
  /// is bitwise identical to `batch` sequential forward() calls.
  void forward_batch(std::span<const double> x, std::span<double> y,
                     std::int32_t batch) const;

  /// Batched backward: `x` (batch x in), `dy` (batch x out); if `dx` is
  /// non-empty (batch x in), also produces per-sample input gradients.
  /// Runs kern::backward_f64: gradients accumulate samples in ascending
  /// order per parameter, bitwise-matching `batch` sequential backward()
  /// calls under that kernel's zero contract (finite x and weights).
  void backward_batch(std::span<const double> x, std::span<const double> dy,
                      std::span<double> dx, std::int32_t batch);

  void zero_grad();
  void collect(ParamRefs& refs);

  /// Checkpoint the layer shape + parameters (gradients are transient and
  /// zeroed before every update, so they are not saved).
  void save_state(sim::ByteSink& out) const;
  /// Restores parameters; false (layer untouched) on a shape mismatch or
  /// truncated payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  std::int32_t in_;
  std::int32_t out_;
  std::vector<double> w_;   // out x in, row-major
  std::vector<double> b_;   // out
  std::vector<double> gw_;  // same shape as w_
  std::vector<double> gb_;
};

enum class Activation { kTanh, kRelu };

/// Multi-layer perceptron: Linear layers with `act` on hidden layers and a
/// linear output layer.
class Mlp {
 public:
  /// sizes = {input, hidden..., output}; at least {input, output}.
  Mlp(std::vector<std::int32_t> sizes, Activation act, sim::Rng& rng);

  [[nodiscard]] std::int32_t input_size() const { return sizes_.front(); }
  [[nodiscard]] std::int32_t output_size() const { return sizes_.back(); }

  /// Architecture introspection for inference-only weight snapshots.
  [[nodiscard]] const std::vector<std::int32_t>& sizes() const {
    return sizes_;
  }
  [[nodiscard]] Activation activation() const { return act_; }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const Linear& layer(std::size_t l) const { return layers_[l]; }

  /// Per-layer activations captured in forward, consumed by backward.
  struct Cache {
    std::vector<std::vector<double>> pre;   // linear outputs
    std::vector<std::vector<double>> post;  // after activation
  };

  [[nodiscard]] std::vector<double> forward(std::span<const double> x,
                                            Cache* cache = nullptr) const;

  /// Backprop dL/dy (size output_size()); returns dL/dx. `x` and `cache`
  /// must come from the corresponding forward call.
  std::vector<double> backward(std::span<const double> x, const Cache& cache,
                               std::span<const double> dy);

  /// Batched activations captured by forward_batch, consumed by
  /// backward_batch: post[l] is hidden layer l's row-major
  /// (batch x sizes_[l+1]) post-activation plane, for l < num_layers() - 1.
  /// backward_batch needs no pre-activations: tanh' = 1 - post^2, and a
  /// ReLU unit passes gradient iff post > 0, which holds iff pre > 0.
  struct BatchCache {
    std::int32_t batch = 0;
    std::vector<std::vector<double>> post;
  };

  /// Batched forward: `x` is row-major (batch x input_size()); returns
  /// row-major (batch x output_size()). Bitwise identical to `batch`
  /// forward() calls — the batched path is a pure reordering of the same
  /// per-sample dot products.
  [[nodiscard]] std::vector<double> forward_batch(
      std::span<const double> x, std::int32_t batch,
      BatchCache* cache = nullptr) const;

  /// Batched backprop of `dy` (batch x output_size()); accumulates
  /// parameter gradients for the whole batch, bitwise identical to
  /// sequential backward() calls over the same samples in order. The
  /// input layer's dL/dx is not computed.
  void backward_batch(std::span<const double> x, const BatchCache& cache,
                      std::span<const double> dy, std::int32_t batch);

  void zero_grad();
  void collect(ParamRefs& refs);

  [[nodiscard]] std::size_t num_params() const;

  /// Checkpoint architecture fingerprint + all layer parameters.
  void save_state(sim::ByteSink& out) const;
  /// Restores all layers; false on an architecture mismatch (sizes or
  /// activation differ) or truncated payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  std::vector<std::int32_t> sizes_;
  Activation act_;
  std::vector<Linear> layers_;
};

/// Snapshot / restore all parameters reachable through `refs` (model
/// serialization and target-network sync).
[[nodiscard]] std::vector<double> snapshot_params(const ParamRefs& refs);
void restore_params(const ParamRefs& refs, std::span<const double> values);

}  // namespace pet::rl
