#pragma once
// PetController: deploys one PetAgent per switch and drives the tuning
// loop. Decentralized training with decentralized execution: agents never
// exchange state, experience, or gradients (Section 4.1.2).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/guardrails.hpp"
#include "core/pet_agent.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "rl/inference.hpp"
#include "sim/checkpoint.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::core {

struct PetControllerConfig {
  PetAgentConfig agent{};
  /// Offline pre-training mode: all agents act/train through one shared
  /// policy (parameter sharing), mirroring the paper's single pre-trained
  /// initial model that is later installed on every switch.
  bool shared_policy = false;
  /// With a shared policy, evaluate all agents' observations in one batched
  /// forward pass per tick instead of one network evaluation per agent.
  /// Per-agent RNG streams and exploration rates are threaded through the
  /// batch, so each agent draws the same actions it would sequentially.
  bool batched_inference = true;
  /// Deployment-mode decision serving. kDirect keeps the legacy per-agent
  /// fp64 path; any other mode routes greedy decisions for all deployed
  /// agents through one batched rl::PolicyServer at the chosen precision
  /// (requires shared_policy — the server snapshots one policy). kFp64
  /// serving is bitwise identical to kDirect over the same shared policy;
  /// kFp32/kInt8 trade bounded action divergence for throughput (see
  /// DESIGN.md "Fast Inference Path").
  rl::InferMode infer = rl::InferMode::kDirect;
  /// First tick fires one tuning interval after start().
  sim::Time start_delay = sim::Time::zero();
};

class PetController {
 public:
  PetController(sim::Scheduler& sched,
                std::span<net::SwitchDevice* const> switches,
                const PetControllerConfig& cfg, std::uint64_t seed);

  /// Begin (or resume) periodic tuning ticks.
  void start();
  void stop();

  void set_training(bool training);

  [[nodiscard]] std::size_t num_agents() const { return agents_.size(); }
  [[nodiscard]] PetAgent& agent(std::size_t i) { return *agents_[i]; }

  /// Install one weight vector into every agent's policy (pre-trained
  /// initial model deployment, Section 4.4.1). Returns false when the
  /// vector does not match the policy's parameter count (stale cache);
  /// agents keep their current models in that case.
  [[nodiscard]] bool install_weights(std::span<const double> weights);

  /// Mean per-step reward across agents (training progress signal).
  [[nodiscard]] double mean_reward() const;
  [[nodiscard]] std::int64_t total_steps() const;

  // --- fleet health ---------------------------------------------------------
  /// Install one health listener on every agent (telemetry fan-in).
  void set_health_listener(PetAgent::HealthListener listener);
  [[nodiscard]] std::size_t num_in_state(AgentHealth state) const;
  [[nodiscard]] std::int64_t total_rollbacks() const;

  // --- checkpointing --------------------------------------------------------
  /// Fleet state: under parameter sharing the shared policy is saved once,
  /// then every agent without its private policy; otherwise each agent
  /// carries its own policy in its payload.
  void save_state(sim::ByteSink& out) const;
  /// Restores a save_state payload; false on agent-count or architecture
  /// mismatch.
  [[nodiscard]] bool load_state(sim::ByteSource& in);

  /// The batched decision server (non-kDirect infer modes). Exposed for
  /// tests/telemetry; installed lazily on the first served tick.
  [[nodiscard]] const rl::PolicyServer& policy_server() const {
    return server_;
  }

 private:
  void tick_all();
  /// Shared-policy fast path: observe every agent, then act for all of them
  /// with one batched policy forward.
  void tick_all_batched();
  /// Serve one tick of greedy deployment decisions for `served` (indices
  /// into agents_/preps) through the policy server; falls back to the
  /// sequential path when the policy cannot be (re)quantized.
  void serve_group(std::span<const std::optional<PetAgent::TickPrep>> preps,
                   std::span<const std::size_t> served);

  sim::Scheduler& sched_;
  PetControllerConfig cfg_;
  std::vector<std::unique_ptr<PetAgent>> agents_;
  sim::EventId next_tick_;
  bool running_ = false;

  // Policy-server state + scratch (reused every tick; allocation-free once
  // warm at a stable served-group size).
  rl::PolicyServer server_;
  std::vector<double> serve_states_;
  std::vector<double> serve_explore_;
  std::vector<std::int32_t> serve_actions_;
};

}  // namespace pet::core
