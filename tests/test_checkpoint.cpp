// pet.ckpt/1 container + component save/load round-trips: the byte codec,
// CRC/truncation rejection, the atomic file writer, and the contract that
// a restored component continues bitwise-identically to the original.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "rl/adam.hpp"
#include "rl/ddqn.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/replay.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fs_atomic.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace pet {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- byte codec --------------------------------------------------------------

TEST(ByteCodec, RoundTripsEveryType) {
  sim::ByteSink sink;
  sink.u8(0xAB);
  sink.u32(0xDEADBEEFu);
  sink.u64(0x0123456789ABCDEFull);
  sink.i32(-42);
  sink.i64(-1'000'000'000'000LL);
  sink.f64(-0.337);
  sink.str("hello checkpoint");
  sink.f64_vec({1.5, -2.5, 0.0});
  sink.i32_vec({3, -7, 11});

  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  EXPECT_EQ(src.u8(), 0xAB);
  EXPECT_EQ(src.u32(), 0xDEADBEEFu);
  EXPECT_EQ(src.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(src.i32(), -42);
  EXPECT_EQ(src.i64(), -1'000'000'000'000LL);
  EXPECT_EQ(src.f64(), -0.337);
  EXPECT_EQ(src.str(), "hello checkpoint");
  EXPECT_EQ(src.f64_vec(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(src.i32_vec(), (std::vector<std::int32_t>{3, -7, 11}));
  EXPECT_TRUE(src.ok());
  EXPECT_TRUE(src.at_end());
}

TEST(ByteCodec, TruncatedReadSticksFailed) {
  sim::ByteSink sink;
  sink.u32(7);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  static_cast<void>(src.u64());  // larger than available
  EXPECT_FALSE(src.ok());
  // Sticky: later reads keep failing instead of reading garbage.
  static_cast<void>(src.u8());
  EXPECT_FALSE(src.ok());
}

TEST(ByteCodec, OversizedVectorLengthRejectedWithoutAllocating) {
  sim::ByteSink sink;
  sink.u64(1ull << 60);  // declared f64 count far beyond the payload
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  const std::vector<double> v = src.f64_vec();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(src.ok());
}

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value for "123456789".
  const char* text = "123456789";
  EXPECT_EQ(sim::crc32(reinterpret_cast<const std::uint8_t*>(text), 9),
            0xCBF43926u);
}

// --- container ---------------------------------------------------------------

TEST(Checkpoint, SerializeDeserializeRoundTrip) {
  sim::Checkpoint ckpt;
  ckpt.set_section("alpha", {1, 2, 3});
  ckpt.set_section("beta", {});
  ckpt.set_section("alpha", {9, 8});  // replace keeps insertion order

  const std::vector<std::uint8_t> bytes = ckpt.serialize();
  std::string error;
  const auto back =
      sim::Checkpoint::deserialize(bytes.data(), bytes.size(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->sections().size(), 2u);
  EXPECT_EQ(back->sections()[0].first, "alpha");
  ASSERT_NE(back->section("alpha"), nullptr);
  EXPECT_EQ(*back->section("alpha"), (std::vector<std::uint8_t>{9, 8}));
  ASSERT_NE(back->section("beta"), nullptr);
  EXPECT_TRUE(back->section("beta")->empty());
  EXPECT_EQ(back->section("gamma"), nullptr);
}

TEST(Checkpoint, RejectsBadMagicCorruptionAndTruncation) {
  sim::Checkpoint ckpt;
  ckpt.set_section("payload", {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<std::uint8_t> bytes = ckpt.serialize();
  std::string error;

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(sim::Checkpoint::deserialize(bad_magic.data(),
                                            bad_magic.size(), &error));

  // Flip one payload byte: the section CRC must catch it.
  std::vector<std::uint8_t> corrupted = bytes;
  corrupted[corrupted.size() - 2] ^= 0x01;
  EXPECT_FALSE(sim::Checkpoint::deserialize(corrupted.data(),
                                            corrupted.size(), &error));
  EXPECT_NE(error.find("payload"), std::string::npos) << error;

  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{4}, std::size_t{0}}) {
    EXPECT_FALSE(sim::Checkpoint::deserialize(bytes.data(), cut, &error))
        << "accepted a checkpoint truncated to " << cut << " bytes";
  }

  // Trailing garbage is rejected too: a checkpoint is exactly its payload.
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(
      sim::Checkpoint::deserialize(padded.data(), padded.size(), &error));
}

TEST(Checkpoint, FileRoundTripAndAtomicReplace) {
  const std::string path = temp_path("pet_test_checkpoint.ckpt");
  std::remove(path.c_str());

  sim::Checkpoint first;
  first.set_section("v", {1});
  ASSERT_TRUE(first.write_file(path));

  sim::Checkpoint second;
  second.set_section("v", {2});
  ASSERT_TRUE(second.write_file(path));  // atomic replace, no torn state
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  std::string error;
  const auto back = sim::Checkpoint::read_file(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back->section("v"), (std::vector<std::uint8_t>{2}));
  std::remove(path.c_str());

  EXPECT_FALSE(sim::Checkpoint::read_file(path, &error));
}

TEST(AtomicWrite, WritesContentAndCleansUp) {
  const std::string path = temp_path("pet_test_atomic.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(sim::atomic_write_file(path, "first"));
  ASSERT_TRUE(sim::atomic_write_file(path, "second"));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "second");
  std::remove(path.c_str());

  // Unwritable target directory: failure, not a crash.
  EXPECT_FALSE(sim::atomic_write_file("/nonexistent-dir/x/y.txt", "nope"));
}

// --- component round-trips ---------------------------------------------------

TEST(ComponentCheckpoint, RngResumesIdenticalStream) {
  sim::Rng rng(123);
  for (int i = 0; i < 17; ++i) static_cast<void>(rng.uniform());

  sim::ByteSink sink;
  sim::save_rng(sink, rng);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  sim::Rng restored(1);
  ASSERT_TRUE(sim::load_rng(src, restored));
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform(), restored.uniform());
  }
}

TEST(ComponentCheckpoint, RunningStatsRoundTrip) {
  sim::RunningStats stats;
  for (const double x : {1.0, -3.5, 2.25, 10.0}) stats.add(x);
  sim::ByteSink sink;
  stats.save_state(sink);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  sim::RunningStats back;
  ASSERT_TRUE(back.load_state(src));
  EXPECT_EQ(back.count(), stats.count());
  EXPECT_EQ(back.mean(), stats.mean());
  EXPECT_EQ(back.stddev(), stats.stddev());
  EXPECT_EQ(back.min(), stats.min());
  EXPECT_EQ(back.max(), stats.max());
}

TEST(ComponentCheckpoint, MlpRejectsShapeMismatch) {
  sim::Rng rng(5);
  rl::Mlp mlp({4, 8, 3}, rl::Activation::kTanh, rng);
  sim::ByteSink sink;
  mlp.save_state(sink);

  sim::Rng rng2(6);
  rl::Mlp other({4, 16, 3}, rl::Activation::kTanh, rng2);
  rl::ParamRefs refs;
  other.collect(refs);
  const std::vector<double> before = rl::snapshot_params(refs);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  EXPECT_FALSE(other.load_state(src));
  EXPECT_EQ(rl::snapshot_params(refs), before);  // untouched on rejection
}

TEST(ComponentCheckpoint, PpoAgentResumesIdenticalUpdates) {
  rl::PpoConfig cfg;
  cfg.input_size = 6;
  cfg.head_sizes = {3, 3, 2};
  cfg.hidden = {16, 16};
  cfg.minibatch_size = 8;
  cfg.seed = 77;
  rl::PpoAgent agent(cfg);

  // Give the agent some optimizer history so moments are non-trivial.
  const auto make_rollout = [&](std::uint64_t seed) {
    rl::RolloutBuffer buf;
    sim::Rng r(seed);
    for (int i = 0; i < 24; ++i) {
      rl::Transition t;
      for (int k = 0; k < cfg.input_size; ++k) t.state.push_back(r.uniform());
      const auto res = agent.act(t.state, r);
      t.actions = res.actions;
      t.log_prob = res.log_prob;
      t.value = res.value;
      t.reward = r.uniform(-1.0, 1.0);
      buf.push(t);
    }
    return buf;
  };
  {
    const rl::RolloutBuffer warmup = make_rollout(1);
    static_cast<void>(agent.update(warmup, 0.0));
  }

  sim::ByteSink sink;
  agent.save_state(sink);
  rl::PpoAgent restored(cfg);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  ASSERT_TRUE(restored.load_state(src));
  EXPECT_TRUE(src.at_end());
  EXPECT_EQ(restored.weights(), agent.weights());

  // The decisive check: both run the SAME next update (shuffle RNG and
  // Adam moments included) and land on bitwise-equal weights.
  const rl::RolloutBuffer next = make_rollout(2);
  static_cast<void>(agent.update(next, 0.25));
  static_cast<void>(restored.update(next, 0.25));
  EXPECT_EQ(restored.weights(), agent.weights());
}

TEST(ComponentCheckpoint, PpoAgentRejectsArchitectureMismatch) {
  rl::PpoConfig cfg;
  cfg.input_size = 6;
  cfg.head_sizes = {3, 3, 2};
  cfg.hidden = {16, 16};
  cfg.seed = 77;
  rl::PpoAgent agent(cfg);
  sim::ByteSink sink;
  agent.save_state(sink);

  rl::PpoConfig narrow = cfg;
  narrow.hidden = {8, 8};
  rl::PpoAgent other(narrow);
  const std::vector<double> before = other.weights();
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  EXPECT_FALSE(other.load_state(src));
  EXPECT_EQ(other.weights(), before);
}

TEST(ComponentCheckpoint, DdqnAgentRoundTripPreservesTargetNet) {
  rl::DdqnConfig cfg;
  cfg.input_size = 5;
  cfg.head_sizes = {4, 4};
  cfg.hidden = {12};
  cfg.batch_size = 4;
  cfg.seed = 31;
  auto replay = std::make_shared<rl::ReplayBuffer>(64);
  rl::DdqnAgent agent(cfg, replay, 0);

  sim::Rng r(9);
  for (int i = 0; i < 16; ++i) {
    rl::DqnTransition t;
    for (int k = 0; k < cfg.input_size; ++k) t.state.push_back(r.uniform());
    t.actions = agent.act(t.state, r);
    t.reward = r.uniform(-1.0, 1.0);
    for (int k = 0; k < cfg.input_size; ++k)
      t.next_state.push_back(r.uniform());
    agent.observe(std::move(t));
  }
  for (int i = 0; i < 6; ++i) agent.train_step();  // online != target now

  sim::ByteSink sink;
  agent.save_state(sink);
  auto replay2 = std::make_shared<rl::ReplayBuffer>(64);
  rl::DdqnAgent restored(cfg, replay2, 0);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  ASSERT_TRUE(restored.load_state(src));
  EXPECT_TRUE(src.at_end());
  EXPECT_EQ(restored.weights(), agent.weights());
  EXPECT_EQ(restored.train_steps(), agent.train_steps());
  EXPECT_EQ(restored.epsilon(), agent.epsilon());

  // Same replay content + same sampler position -> identical next step.
  *replay2 = *replay;
  agent.train_step();
  restored.train_step();
  EXPECT_EQ(restored.weights(), agent.weights());
}

TEST(ComponentCheckpoint, ReplayBufferRoundTrip) {
  rl::ReplayBuffer replay(8);
  for (int i = 0; i < 11; ++i) {  // wraps: next_slot mid-buffer
    rl::DqnTransition t;
    t.state = {static_cast<double>(i), 0.5};
    t.actions = {i % 3};
    t.reward = i * 0.25;
    t.next_state = {static_cast<double>(i + 1), 0.5};
    replay.push(std::move(t), i % 2);
  }

  sim::ByteSink sink;
  replay.save_state(sink);
  rl::ReplayBuffer back(8);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  ASSERT_TRUE(back.load_state(src));
  ASSERT_EQ(back.size(), replay.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(back.at(i).state, replay.at(i).state);
    EXPECT_EQ(back.at(i).actions, replay.at(i).actions);
    EXPECT_EQ(back.at(i).reward, replay.at(i).reward);
    EXPECT_EQ(back.at(i).next_state, replay.at(i).next_state);
  }
  EXPECT_EQ(back.bytes_pushed(), replay.bytes_pushed());

  // Capacity is construction-time: a differently sized buffer refuses.
  rl::ReplayBuffer wrong(16);
  sim::ByteSource src2(sink.bytes().data(), sink.bytes().size());
  EXPECT_FALSE(wrong.load_state(src2));
}

TEST(ComponentCheckpoint, AdamRoundTripContinuesIdentically) {
  std::vector<double> pa{0.1, -0.2}, ga{0.0, 0.0};
  std::vector<double> pb = pa, gb = ga;
  const rl::ParamRefs refs_a{{{pa, ga}}};
  const rl::ParamRefs refs_b{{{pb, gb}}};
  rl::AdamConfig cfg;
  rl::Adam a(refs_a, cfg);
  rl::Adam b(refs_b, cfg);

  ga = {0.3, -0.7};
  a.step();

  sim::ByteSink sink;
  a.save_state(sink);
  sim::ByteSource src(sink.bytes().data(), sink.bytes().size());
  ASSERT_TRUE(b.load_state(src));
  EXPECT_EQ(b.steps(), a.steps());

  pb = pa;  // parameters live outside the optimizer
  ga = gb = {-0.11, 0.05};
  a.step();
  b.step();
  EXPECT_EQ(pa, pb);
}

}  // namespace
}  // namespace pet
