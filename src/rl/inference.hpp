#pragma once
// Inference-only snapshots of trained fp64 policies, and the batched
// "policy server" built on them.
//
// Precision contract (see DESIGN.md "Fast Inference Path"):
//  - kFp64: bitwise identical to the training network's forward — the same
//    kernels, the same std::tanh. Over the same shared policy, a fp64-served
//    run is indistinguishable from the direct path; serving turns a shared
//    policy on, so it differs from a direct run with per-agent policies.
//  - kFp32: weights/inputs narrowed once, one fma chain per output, and a
//    rational tanh approximation (|err| <= 2e-6). Error-bounded against the
//    fp64 reference (tests/test_oracle_inference.cpp), not bitwise.
//  - kInt8: per-output-row weight scales (max|row|/127), per-sample dynamic
//    activation scales, exact int32 accumulation, fp32 bias/combine.
//
// All three precisions are bitwise deterministic across backends (scalar vs
// AVX2) — see rl/kernels.hpp.

#include <cstdint>
#include <span>
#include <vector>

#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "sim/checkpoint.hpp"
#include "sim/thread_annotations.hpp"

namespace pet::rl {

enum class InferPrecision : std::uint8_t { kFp64 = 0, kFp32 = 1, kInt8 = 2 };

[[nodiscard]] const char* infer_precision_name(InferPrecision precision);

/// How a PetController serves deployment/greedy decisions: the legacy
/// per-agent fp64 path, or a batched policy server at a given precision
/// (kFp64 serving is bitwise identical to kDirect over the same shared
/// policy).
enum class InferMode : std::uint8_t {
  kDirect = 0,
  kFp64 = 1,
  kFp32 = 2,
  kInt8 = 3,
};

[[nodiscard]] const char* infer_mode_name(InferMode mode);
[[nodiscard]] InferPrecision infer_mode_precision(InferMode mode);

/// An immutable, inference-only snapshot of an Mlp at a chosen precision.
/// forward_batch() writes into caller storage and is allocation-free once
/// warm at a fixed batch size; re-quantizing the same architecture reuses
/// all storage (no steady-state allocation when weights change).
class InferenceModel {
 public:
  InferenceModel() = default;

  /// Snapshot `net` at `precision`. Returns false — leaving any previous
  /// snapshot untouched — when a weight or bias is non-finite (a poisoned
  /// network must never be installed for serving).
  [[nodiscard]] bool quantize(const Mlp& net, InferPrecision precision);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] InferPrecision precision() const { return precision_; }
  [[nodiscard]] std::int32_t input_size() const {
    return sizes_.empty() ? 0 : sizes_.front();
  }
  [[nodiscard]] std::int32_t output_size() const {
    return sizes_.empty() ? 0 : sizes_.back();
  }
  [[nodiscard]] const std::vector<std::int32_t>& sizes() const {
    return sizes_;
  }
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }

  /// Grow the internal scratch for `batch` so subsequent forward_batch
  /// calls up to that size never allocate.
  void reserve(std::int32_t batch);

  /// Batched forward: `x` is row-major (batch x input_size()), `y` is
  /// (batch x output_size()). fp32/int8 results are widened to double so
  /// callers are precision-agnostic.
  void forward_batch(std::span<const double> x, std::int32_t batch,
                     std::span<double> y);

  // --- test oracles ----------------------------------------------------------
  /// The effective fp64 weights the snapshot computes with (exact for
  /// kFp64; the narrowed values for kFp32; scale[row] * q for kInt8).
  [[nodiscard]] std::vector<double> dequantized_weights(std::size_t l) const;
  [[nodiscard]] std::vector<double> dequantized_biases(std::size_t l) const;
  /// Per-output-row weight scale (kInt8; 0.0 for an all-zero row).
  [[nodiscard]] double weight_row_scale(std::size_t l, std::int32_t row) const;

  // --- checkpointing (pet.ckpt/1 section payloads) ---------------------------
  /// Exact bit-level round-trip: a restored snapshot reproduces bitwise
  /// identical inference at the same precision.
  void save_state(sim::ByteSink& out) const;
  /// Restores a save_state payload; false (model untouched) on an unknown
  /// format version or corrupted/inconsistent payload.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

 private:
  struct Layer {
    std::int32_t in = 0;
    std::int32_t out = 0;
    std::vector<double> wd, bd;    // kFp64
    std::vector<float> wf;         // kFp32
    std::vector<float> bf;         // kFp32 + kInt8
    std::vector<std::int8_t> wq;   // kInt8, row-major
    std::vector<float> scale;      // kInt8, per output row
  };

  void forward_f64(std::span<const double> x, std::int32_t batch,
                   std::span<double> y);
  void forward_f32(std::span<const double> x, std::int32_t batch,
                   std::span<double> y);
  void forward_s8(std::span<const double> x, std::int32_t batch,
                  std::span<double> y);

  bool ready_ = false;
  InferPrecision precision_ = InferPrecision::kFp64;
  Activation act_ = Activation::kTanh;
  std::vector<std::int32_t> sizes_;
  std::vector<Layer> layers_;
  std::int32_t max_width_ = 0;

  // Scratch (sized by reserve()/first forward; reused across calls).
  std::vector<double> buf_d_[2];
  std::vector<float> buf_f_[2];
  std::vector<std::int8_t> xq_;
  std::vector<std::int32_t> acc_;
  std::vector<float> sx_;
};

/// One shared-policy controller serving batched greedy decisions for N
/// switches per tick through per-head InferenceModels. install() snapshots
/// the agent's actor heads; refresh() re-quantizes only when the agent's
/// weights_version() moved, so steady-state ticks are quantization-free.
class PolicyServer {
 public:
  PolicyServer() = default;

  [[nodiscard]] bool install(const PpoAgent& agent, InferPrecision precision);
  [[nodiscard]] bool refresh(const PpoAgent& agent);

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] InferPrecision precision() const { return precision_; }
  [[nodiscard]] std::uint64_t installed_version() const { return version_; }
  [[nodiscard]] std::size_t num_heads() const { return heads_.size(); }

  void reserve(std::int32_t batch);

  /// Greedy (argmax per head) actions for row-major (batch x input) states;
  /// `actions` is row-major (batch x num_heads()). Allocation-free once
  /// warm at a fixed batch size.
  void serve_greedy(std::span<const double> states, std::int32_t batch,
                    std::span<std::int32_t> actions);

 private:
  // The server is owned and driven by one serving thread (the controller
  // tick); install/refresh and serve_greedy never race by construction.
  bool ready_ PET_THREAD_CONFINED(serving_thread) = false;
  InferPrecision precision_ PET_THREAD_CONFINED(serving_thread) =
      InferPrecision::kFp64;
  std::uint64_t version_ PET_THREAD_CONFINED(serving_thread) = 0;
  std::vector<InferenceModel> heads_ PET_THREAD_CONFINED(serving_thread);
  std::vector<std::int32_t> head_sizes_ PET_THREAD_CONFINED(serving_thread);
  std::vector<double> logits_ PET_THREAD_CONFINED(serving_thread);
};

}  // namespace pet::rl
