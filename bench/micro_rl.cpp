// Microbenchmarks: RL stack primitives (google-benchmark). These bound the
// per-tick compute a switch-resident agent would need.
//
// The policy-server benches serve one batched tick of greedy decisions for
// 80 agents at each inference precision. Headline counters
// (decisions_per_sec, p99_decision_ns) are exported into
// BENCH_micro_rl.json and gated against bench/baselines/ by
// `ctest -L benchgate`; the fp64-scalar variant is the reference the
// fp32/int8 speedups are measured against.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "micro_common.hpp"

#include "rl/adam.hpp"
#include "rl/ddqn.hpp"
#include "rl/gae.hpp"
#include "rl/inference.hpp"
#include "rl/kernels.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"

namespace {

using namespace pet;

rl::PpoConfig pet_shape() {
  rl::PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 1;
  return cfg;
}

void BM_MlpForward(benchmark::State& state) {
  sim::Rng rng(1);
  rl::Mlp mlp({24, 64, 64, 10}, rl::Activation::kTanh, rng);
  const std::vector<double> x(24, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.forward(x));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForward);

void BM_MlpForwardBackward(benchmark::State& state) {
  sim::Rng rng(2);
  rl::Mlp mlp({24, 64, 64, 10}, rl::Activation::kTanh, rng);
  const std::vector<double> x(24, 0.3);
  const std::vector<double> dy(10, 0.1);
  for (auto _ : state) {
    rl::Mlp::Cache cache;
    benchmark::DoNotOptimize(mlp.forward(x, &cache));
    benchmark::DoNotOptimize(mlp.backward(x, cache, dy));
    mlp.zero_grad();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpForwardBackward);

void BM_PpoAct(benchmark::State& state) {
  rl::PpoAgent agent(pet_shape());
  sim::Rng rng(3);
  const std::vector<double> s(24, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PpoAct);

void BM_PpoUpdate(benchmark::State& state) {
  rl::PpoAgent agent(pet_shape());
  sim::Rng rng(4);
  rl::RolloutBuffer buf;
  for (int i = 0; i < 32; ++i) {
    std::vector<double> s(24);
    for (double& v : s) v = rng.uniform();
    auto res = agent.act(s, rng);
    buf.push(rl::Transition{s, res.actions, res.log_prob, res.value,
                            rng.uniform()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.update(buf, 0.0));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_PpoUpdate);

/// One batched backward pass (parameter gradients of every layer, dL/dx of
/// the hidden layers) at batch 32 on a cached forward: PET's actor head
/// (tanh 24-64-64-10, dense upstream gradient) and ACC's widest head (ReLU
/// 18-64-64-20, one-hot upstream gradient as in DdqnAgent::train_step).
void BM_MlpBackwardBatch(benchmark::State& state, rl::Activation act,
                         std::vector<std::int32_t> sizes, bool one_hot) {
  constexpr std::int32_t kBatch = 32;
  sim::Rng rng(9);
  rl::Mlp mlp(sizes, act, rng);
  const auto in = static_cast<std::size_t>(sizes.front());
  const auto out = static_cast<std::size_t>(sizes.back());
  std::vector<double> x(kBatch * in);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> dy(kBatch * out, 0.0);
  for (std::size_t s = 0; s < kBatch; ++s) {
    if (one_hot) {
      dy[s * out + rng.uniform_int(out)] = rng.uniform(-0.1, 0.1);
    } else {
      for (std::size_t o = 0; o < out; ++o) {
        dy[s * out + o] = rng.uniform(-0.1, 0.1);
      }
    }
  }
  rl::Mlp::BatchCache cache;
  benchmark::DoNotOptimize(mlp.forward_batch(x, kBatch, &cache));
  for (auto _ : state) {
    mlp.backward_batch(x, cache, dy, kBatch);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK_CAPTURE(BM_MlpBackwardBatch, pet, rl::Activation::kTanh,
                  std::vector<std::int32_t>{24, 64, 64, 10}, false);
BENCHMARK_CAPTURE(BM_MlpBackwardBatch, acc, rl::Activation::kRelu,
                  std::vector<std::int32_t>{18, 64, 64, 20}, true);

/// One Adam step over PET's 25,705 parameters (three actor heads
/// 24-64-64-{10,10,20} and the 24-64-64-1 critic) with PET's gradient clip.
void BM_AdamStep(benchmark::State& state) {
  sim::Rng rng(10);
  std::vector<rl::Mlp> nets;
  for (const std::int32_t n : {10, 10, 20, 1}) {
    nets.emplace_back(std::vector<std::int32_t>{24, 64, 64, n},
                      rl::Activation::kTanh, rng);
  }
  rl::ParamRefs refs;
  for (auto& net : nets) net.collect(refs);
  for (const rl::ParamSpan& span : refs.spans) {
    for (double& g : span.grads) g = rng.uniform(-0.05, 0.05);
  }
  rl::Adam opt(refs, rl::AdamConfig{.lr = 4e-4, .max_grad_norm = 0.5});
  for (auto _ : state) {
    opt.step();
    benchmark::ClobberMemory();
  }
  state.counters["params"] = static_cast<double>(refs.size());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(refs.size()));
}
BENCHMARK(BM_AdamStep);

void BM_DdqnAct(benchmark::State& state) {
  auto replay = std::make_shared<rl::ReplayBuffer>(1000);
  rl::DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 5;
  rl::DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(6);
  const std::vector<double> s(18, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act(s, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DdqnAct);

/// One DDQN gradient step at ACC's shape: batch 32 (the DdqnConfig default
/// ACC keeps), 6 basic features x 3 history steps of input, heads {10,10,20}.
void BM_DdqnTrainStep(benchmark::State& state) {
  constexpr std::int32_t kInput = 18;
  auto replay = std::make_shared<rl::ReplayBuffer>(1000);
  rl::DdqnConfig cfg;
  cfg.input_size = kInput;
  cfg.head_sizes = {10, 10, 20};
  cfg.seed = 7;
  rl::DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(8);
  for (int i = 0; i < 4 * cfg.batch_size; ++i) {
    rl::DqnTransition t;
    for (std::int32_t f = 0; f < kInput; ++f) {
      t.state.push_back(rng.uniform());
      t.next_state.push_back(rng.uniform());
    }
    for (const std::int32_t n : cfg.head_sizes) {
      t.actions.push_back(static_cast<std::int32_t>(
          rng.uniform_int(static_cast<std::uint64_t>(n))));
    }
    t.reward = rng.uniform();
    agent.observe(std::move(t));
  }
  for (auto _ : state) {
    agent.train_step();
  }
  state.SetItemsProcessed(state.iterations() * cfg.batch_size);
}
BENCHMARK(BM_DdqnTrainStep);

void BM_Gae(benchmark::State& state) {
  std::vector<double> rewards(256, 0.5);
  std::vector<double> values(256, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rl::compute_gae(rewards, values, 0.3, 0.99, 0.95));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_Gae);

/// One policy-server tick for a fleet of 80 switches: batched greedy
/// decisions across all three actor heads at the given precision/backend.
void serve_greedy_bench(benchmark::State& state,
                        rl::InferPrecision precision,
                        rl::kern::Backend backend) {
  constexpr std::int32_t kAgents = 80;
  constexpr std::int32_t kInput = 24;
  rl::kern::set_backend(backend);
  rl::PpoAgent agent(pet_shape());
  rl::PolicyServer server;
  if (!server.install(agent, precision)) {
    rl::kern::reset_backend();
    state.SkipWithError("policy-server install failed");
    return;
  }
  std::vector<double> states(static_cast<std::size_t>(kAgents) * kInput);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = std::sin(0.13 * static_cast<double>(i + 1));
  }
  std::vector<std::int32_t> actions(static_cast<std::size_t>(kAgents) *
                                    server.num_heads());
  server.reserve(kAgents);
  server.serve_greedy(states, kAgents, actions);  // warm the scratch

  std::vector<double> tick_ns;
  tick_ns.reserve(1 << 14);
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    server.serve_greedy(states, kAgents, actions);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(actions.data());
    tick_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kAgents));
  }
  rl::kern::reset_backend();
  const auto decisions = state.iterations() * kAgents;
  state.SetItemsProcessed(decisions);
  state.counters["decisions_per_sec"] = benchmark::Counter(
      static_cast<double>(decisions), benchmark::Counter::kIsRate);
  if (!tick_ns.empty()) {
    std::sort(tick_ns.begin(), tick_ns.end());
    state.counters["p99_decision_ns"] =
        tick_ns[std::min(tick_ns.size() - 1, tick_ns.size() * 99 / 100)];
  }
}

[[nodiscard]] rl::kern::Backend best_backend() {
  return rl::kern::avx2_supported() ? rl::kern::Backend::kAvx2
                                    : rl::kern::Backend::kScalar;
}

void BM_ServeGreedyFp64Scalar(benchmark::State& state) {
  serve_greedy_bench(state, rl::InferPrecision::kFp64,
                     rl::kern::Backend::kScalar);
}
BENCHMARK(BM_ServeGreedyFp64Scalar);

void BM_ServeGreedyFp64Simd(benchmark::State& state) {
  serve_greedy_bench(state, rl::InferPrecision::kFp64, best_backend());
}
BENCHMARK(BM_ServeGreedyFp64Simd);

void BM_ServeGreedyFp32Simd(benchmark::State& state) {
  serve_greedy_bench(state, rl::InferPrecision::kFp32, best_backend());
}
BENCHMARK(BM_ServeGreedyFp32Simd);

void BM_ServeGreedyInt8Simd(benchmark::State& state) {
  serve_greedy_bench(state, rl::InferPrecision::kInt8, best_backend());
}
BENCHMARK(BM_ServeGreedyInt8Simd);

}  // namespace

PET_MICRO_BENCH_MAIN("micro_rl")
