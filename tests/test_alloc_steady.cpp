// Zero-allocation contract for the DES hot path (ctest -L benchgate).
//
// This binary replaces the global operator new/delete with counting
// versions, warms each hot structure past its growth phase, then asserts
// that the steady state — scheduler schedule/run cycles with transmit-sized
// captures, FIFO ring push/pop, cancel churn, a leaf-spine DCQCN
// long-flow window, and an agent switch's NCM monitoring slots — performs
// literally zero heap allocations.
//
// Kept out of the `fast` label on purpose: the sanitizer presets interpose
// their own allocator and must not race a user-defined operator new.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/ncm.hpp"
#include "net/fabric.hpp"
#include "net/queue.hpp"
#include "rl/inference.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "transport/dcqcn.hpp"

namespace {
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;
}  // namespace

// Minimal counting replacement set. Alignment overloads delegate to the
// plain forms (nothing in the tree over-aligns past max_align_t).
void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace pet {
namespace {

/// Transmit-sized capture: what EgressPort::finish_transmit actually carries.
struct TxPayload {
  std::uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
};
static_assert(sim::SmallCallback::fits_inline<TxPayload>());

class AllocWindow {
 public:
  AllocWindow() : news_(g_news), deletes_(g_deletes) {}
  [[nodiscard]] std::uint64_t news() const { return g_news - news_; }
  [[nodiscard]] std::uint64_t deletes() const { return g_deletes - deletes_; }

 private:
  std::uint64_t news_;
  std::uint64_t deletes_;
};

TEST(AllocSteady, CountingHookIsLive) {
  AllocWindow w;
  auto* p = new int(7);
  delete p;
  EXPECT_GE(w.news(), 1u);
  EXPECT_GE(w.deletes(), 1u);
}

TEST(AllocSteady, SchedulerScheduleRunCyclesAllocateNothing) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  TxPayload payload;
  std::int64_t t = 0;
  const auto cycle = [&](int batches) {
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < 512; ++i) {
        sched.schedule_at(sim::nanoseconds(++t),
                          [&sink, payload] { sink += payload.words[0]; });
      }
      sched.run_all();
    }
  };
  cycle(4);  // warm: pool chunks + heap capacity
  AllocWindow w;
  cycle(64);
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "scheduler steady state allocated";
  EXPECT_EQ(deletes, 0u);
  EXPECT_EQ(sink, static_cast<std::uint64_t>((4 + 64) * 512));  // all ran
}

TEST(AllocSteady, SchedulerCancelChurnAllocatesNothing) {
  sim::Scheduler sched;
  sched.schedule_at(sim::milliseconds(1'000), [] {});  // keep heap non-empty
  const auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const sim::EventId id =
          sched.schedule_at(sim::milliseconds(500), [] {});
      sched.cancel(id);
    }
  };
  churn(1'000);  // warm past compaction cycles
  AllocWindow w;
  churn(100'000);
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "cancel churn allocated";
  EXPECT_EQ(deletes, 0u);
}

TEST(AllocSteady, FifoQueueSteadyStateAllocatesNothing) {
  net::FifoQueue queue;
  net::Packet pkt;
  pkt.size_bytes = 1000;
  for (int i = 0; i < 40; ++i) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
  }
  AllocWindow w;
  // Push/pop around the ring at standing occupancy: wraps many times but
  // never grows.
  for (int i = 0; i < 100'000; ++i) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
    (void)queue.pop(sim::Time::zero());
  }
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "ring buffer steady state allocated";
  EXPECT_EQ(deletes, 0u);
  EXPECT_EQ(queue.packets(), 40);
}

TEST(AllocSteady, LeafSpineDcqcnSteadyWindowAllocatesNothing) {
  // A saturating long flow on a small leaf-spine fabric: after the window
  // warms up (routing tables, per-flow state, rate limiter events), the
  // packet-by-packet DES steady state must be allocation-free.
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::LeafSpineConfig topo_cfg;
  topo_cfg.num_spines = 2;
  topo_cfg.num_leaves = 2;
  topo_cfg.hosts_per_leaf = 2;
  (void)net::build_fabric(net, net::TopologySpec(topo_cfg));
  transport::FctRecorder rec;
  transport::RdmaTransport transport(net, {}, &rec);
  transport::FlowSpec spec;
  spec.src = 0;
  spec.dst = 2;  // cross-leaf: traverses a spine
  spec.size_bytes = 50'000'000;  // long flow, outlives both windows
  transport.start_flow(spec);
  sched.run_until(sim::milliseconds(2));  // warm-up window
  ASSERT_GT(sched.executed(), 1'000u);
  AllocWindow w;
  const std::uint64_t before = sched.executed();
  sched.run_until(sim::milliseconds(4));  // measured steady window
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  ASSERT_GT(sched.executed(), before + 1'000u);
  EXPECT_EQ(news, 0u) << "DCQCN datapath steady state allocated";
  EXPECT_EQ(deletes, 0u);
}

TEST(AllocSteady, NcmSteadySlotsAllocateNothing) {
  // An NCM on a switch sees the same slot of traffic over and over: once
  // its sender rows, flow table and cleanup scratch have grown to the
  // slot's size, on_forward() (run by receive()) and sample() must not
  // allocate. Host ids reach past 128 so sender rows span three words; the
  // tight limits make both threshold cleanups fire every slot.
  for (const bool tight : {false, true}) {
    sim::Scheduler sched;
    net::Network net(sched, 1);
    auto& sw = net.add_switch({});
    net::PortConfig nic;
    nic.rate = sim::gbps(100);
    nic.propagation_delay = sim::nanoseconds(100);
    constexpr std::int32_t kPorts = 8;
    for (std::int32_t i = 0; i < kPorts; ++i) {
      auto& h = net.add_host(nic);
      net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
    }
    net.recompute_routes();
    constexpr net::HostId kMaxHost = 150;
    for (net::HostId d = 0; d <= kMaxHost; ++d) sw.set_routes(d, {d % kPorts});
    core::NcmConfig cfg;
    if (tight) {
      cfg.max_tracked_flows = 64;
      cfg.max_tracked_dsts = 16;
    }
    core::Ncm ncm(sched, sw, cfg);

    std::vector<net::Packet> slot_traffic;
    sim::Rng rng(9);
    for (int i = 0; i < 400; ++i) {
      net::Packet pkt;
      pkt.type = net::PacketType::kData;
      pkt.flow_id = 1 + rng.uniform_int(300);
      pkt.src = static_cast<net::HostId>(rng.uniform_int(kMaxHost + 1));
      pkt.dst = static_cast<net::HostId>(rng.uniform_int(kMaxHost + 1));
      pkt.size_bytes = pkt.payload_bytes = 200;
      slot_traffic.push_back(pkt);
    }
    std::int64_t flows_seen = 0;
    const auto run_slots = [&](int n) {
      for (int slot = 0; slot < n; ++slot) {
        for (const net::Packet& pkt : slot_traffic) {
          sw.receive(pkt, pkt.src % kPorts);
        }
        sched.run_until(sched.now() + sim::microseconds(100));
        flows_seen += ncm.sample().flows_seen;
      }
    };
    run_slots(6);  // warm: rows, flow table, scratch, port rings
    AllocWindow w;
    flows_seen = 0;
    run_slots(50);
    const std::uint64_t news = w.news();
    const std::uint64_t deletes = w.deletes();
    EXPECT_EQ(news, 0u) << "NCM steady slots allocated (tight=" << tight << ")";
    EXPECT_EQ(deletes, 0u);
    EXPECT_GT(flows_seen, 50 * 60);  // the monitor really saw the traffic
  }
}

TEST(AllocSteady, InferenceForwardWarmAllocatesNothingAtEveryPrecision) {
  // The inference snapshot contract: forward_batch is allocation-free once
  // warm at a fixed batch size, for all three precisions.
  sim::Rng rng(5);
  const rl::Mlp net({24, 16, 20}, rl::Activation::kTanh, rng);
  constexpr std::int32_t kBatch = 16;
  std::vector<double> x(static_cast<std::size_t>(kBatch) * 24);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.01 * static_cast<double>(i % 97) - 0.4;
  }
  std::vector<double> y(static_cast<std::size_t>(kBatch) * 20);
  for (const rl::InferPrecision precision :
       {rl::InferPrecision::kFp64, rl::InferPrecision::kFp32,
        rl::InferPrecision::kInt8}) {
    rl::InferenceModel model;
    ASSERT_TRUE(model.quantize(net, precision));
    model.reserve(kBatch);
    model.forward_batch(x, kBatch, y);  // warm scratch
    AllocWindow w;
    for (int i = 0; i < 512; ++i) model.forward_batch(x, kBatch, y);
    EXPECT_EQ(w.news(), 0u) << "forward_batch allocated at precision "
                            << rl::infer_precision_name(precision);
    EXPECT_EQ(w.deletes(), 0u);
  }
}

TEST(AllocSteady, PolicyServerWarmServingTicksAllocateNothing) {
  // A warm serving tick — refresh (both the version-match no-op and a full
  // re-quantization after a weight change) plus a batched serve_greedy —
  // must be allocation-free at every precision: snapshot storage is reused
  // whenever the architecture is unchanged.
  rl::PpoConfig cfg;
  cfg.input_size = 24;
  cfg.head_sizes = {10, 10, 20};
  cfg.hidden = {16};
  cfg.seed = 5;
  rl::PpoAgent agent(cfg);
  const std::vector<double> weights = agent.weights();
  constexpr std::int32_t kBatch = 16;
  std::vector<double> states(static_cast<std::size_t>(kBatch) * 24);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = 0.01 * static_cast<double>(i % 89) - 0.4;
  }
  for (const rl::InferPrecision precision :
       {rl::InferPrecision::kFp64, rl::InferPrecision::kFp32,
        rl::InferPrecision::kInt8}) {
    rl::PolicyServer server;
    ASSERT_TRUE(server.install(agent, precision));
    std::vector<std::int32_t> actions(static_cast<std::size_t>(kBatch) *
                                      server.num_heads());
    server.reserve(kBatch);
    server.serve_greedy(states, kBatch, actions);  // warm scratch
    ASSERT_TRUE(agent.set_weights(weights));       // warm the requantize path
    ASSERT_TRUE(server.refresh(agent));
    AllocWindow w;
    for (int i = 0; i < 128; ++i) {
      if (!server.refresh(agent)) FAIL() << "no-op refresh failed";
      server.serve_greedy(states, kBatch, actions);
    }
    if (!agent.set_weights(weights)) FAIL() << "set_weights failed";
    if (!server.refresh(agent)) FAIL() << "re-quantizing refresh failed";
    server.serve_greedy(states, kBatch, actions);
    EXPECT_EQ(w.news(), 0u) << "serving tick allocated at precision "
                            << rl::infer_precision_name(precision);
    EXPECT_EQ(w.deletes(), 0u);
  }
}

}  // namespace
}  // namespace pet
