#include "scenario.hpp"

namespace pet::perfbench {

namespace {

/// The default switch with a shared buffer large enough for PFC to keep it
/// lossless. PFC pauses an ingress port once it holds more than XOFF, and
/// the port can still receive its headroom: the packet that crossed XOFF
/// plus what arrives while the pause waits behind one MTU, travels the link
/// and the upstream finishes its current packet, i.e. about
/// 2 x delay x rate + 3 MTU (103 KB at 400G and 1 us). The buffer must hold
/// every port at XOFF + headroom at once. The largest switches here need
/// 2.7 MB (a leaf: 10 ports at 10G/40G) and 2.9 MB (a k=8 core: 8 ports at
/// 400G), against the default 2 MB, so a default switch can run out of
/// buffer before PFC engages. XOFF and XON stay at their defaults: the
/// agents' state is normalized by XOFF, and the models were trained at it.
net::SwitchConfig lossless_switch() {
  net::SwitchConfig cfg;
  cfg.buffer_bytes = 4 * 1024 * 1024;
  return cfg;
}

net::LeafSpineConfig leaf_spine(std::int32_t leaves) {
  net::LeafSpineConfig cfg;  // 8 hosts per leaf at 10G, 2 spines at 40G
  cfg.num_leaves = leaves;
  cfg.switch_cfg = lossless_switch();
  return cfg;
}

net::FatTreeSpec fat_tree_k8() {
  net::FatTreeSpec spec;  // 4 hosts per edge at 25G: 128 hosts, 80 switches
  spec.k = 8;
  spec.switch_cfg = lossless_switch();
  return spec;
}

constexpr std::string_view kPetModel =
    "PET_WebSearch_h32_r10_seed1_d600ms_b3_rw0.3-0.7-6";
constexpr std::string_view kAccModel =
    "ACC_WebSearch_h16_r10_seed20250704_d200ms_b3_rw0.3-0.7-6";

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "ls32-secn1",
       .topo = leaf_spine(4),
       .scheme = exp::Scheme::kSecn1,
       .warmup = sim::milliseconds(10),
       .window = sim::milliseconds(50),
       .scenarios = 11,
       .timed_scenarios = 3,
       .scenario_host_s = 1.45},
      {.name = "ls32-pet",
       .topo = leaf_spine(4),
       .scheme = exp::Scheme::kPet,
       .model_key = kPetModel,
       .warmup = sim::milliseconds(18),
       .window = sim::milliseconds(18),
       .scenarios = 13,
       .timed_scenarios = 3,
       .scenario_host_s = 1.55},
      {.name = "ft8-pet-int8",
       .topo = fat_tree_k8(),
       .scheme = exp::Scheme::kPet,
       .infer = rl::InferMode::kInt8,
       .model_key = kPetModel,
       .warmup = sim::milliseconds(1),
       .window = sim::microseconds(2500),
       .scenarios = 15,
       .timed_scenarios = 3,
       .scenario_host_s = 1.2},
      {.name = "ls16-acc",
       .topo = leaf_spine(2),
       .scheme = exp::Scheme::kAcc,
       .model_key = kAccModel,
       .warmup = sim::milliseconds(8),
       .window = sim::milliseconds(13),
       .scenarios = 15,
       .timed_scenarios = 3,
       .scenario_host_s = 1.45},
  };
  return all;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec tiny(const WorkloadSpec& spec) {
  WorkloadSpec out = spec;
  out.warmup = sim::milliseconds(1);
  out.window = sim::milliseconds(1);
  out.scenarios = 2;
  out.timed_scenarios = 2;
  return out;
}

exp::ExperimentBuilder make_builder(const WorkloadSpec& spec,
                                    std::uint64_t seed, bool profiling) {
  exp::ExperimentBuilder b;
  b.topology(spec.topo)
      .workload(workload::WorkloadKind::kWebSearch)
      .flow_size_cap(8e6)
      .load(0.6)
      .incast(8, 32 * 1024, sim::milliseconds(1))
      .scheme(spec.scheme)
      .infer(spec.infer)
      .phases(spec.warmup, spec.window)
      .tuning_interval(kChunk)
      .seed(seed)
      .profiling(profiling)
      .tuned_dcqcn();
  // An installed offline model starts online training gently at the
  // paper's learning rates, as pet_sim_cli does with a cached model.
  if (!spec.model_key.empty()) b.expects_pretrained(true).pretrain_lr_boost(1.0);
  return b;
}

}  // namespace pet::perfbench
