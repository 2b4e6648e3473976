#pragma once
// Discrete-event scheduler: the heart of the simulator.
//
// Single-threaded by design (determinism is a hard requirement for the RL
// experiments); ties in event time are broken by insertion order so two runs
// with the same seed replay the exact same event sequence.
//
// Hot-path layout (see DESIGN.md "Hot path & bench gate"):
//   * events live in a chunked slot pool with per-slot generation counters;
//     an EventId is (generation, slot), so cancel() is one array index and a
//     tombstone-bit flip — no hashing, no per-event bookkeeping sets. Chunks
//     never move, so callbacks run in place straight out of their slot;
//   * the ready queue is a flat 4-ary min-heap over (time, sequence) keys.
//     The key order is total, so pop order — and therefore every golden
//     artifact — is bitwise independent of heap arity and layout;
//   * callbacks are sim::SmallCallback: capture storage is inline in the
//     pool record, so a warmed-up schedule/run steady state performs zero
//     heap allocations (pinned by tests/test_alloc_steady.cpp);
//   * tombstoned entries are compacted away once they outnumber the live
//     half of the heap, so schedule-then-cancel patterns (retransmit and
//     watchdog timers) run in bounded memory;
//   * delay lanes: keys scheduled the same fixed delay ahead (propagation,
//     MTU serialization, timer periods) come out of a FIFO ring in
//     (time, seq) order, so a few lanes take nearly every event off the
//     heap; the run loop merges the smallest lane head with the heap root.
//     See DESIGN.md §2g for why pop order is unchanged.

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pet::sim {

class Profiler;

/// Handle to a scheduled event; allows cancellation. Encodes the pool slot
/// plus its generation at schedule time, so stale handles (already run,
/// already cancelled, slot since reused) are recognized and ignored.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return token_ != 0; }

 private:
  friend class Scheduler;
  constexpr explicit EventId(std::uint64_t token) : token_(token) {}
  std::uint64_t token_ = 0;
};

class Scheduler {
 public:
  using Callback = SmallCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// `kind` is an optional string-literal tag under which an attached
  /// Profiler attributes the event's execution; untagged events are counted
  /// (but not wall-timed) under "event". Accepts any void() callable and
  /// constructs it directly into the slot pool (no intermediate Callback).
  template <typename Fn, typename = std::enable_if_t<std::is_invocable_r_v<
                             void, std::decay_t<Fn>&>>>
  EventId schedule_at(Time at, Fn&& fn, const char* kind = nullptr) {
    assert(at >= now_ && "cannot schedule into the past");
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    if constexpr (std::is_same_v<std::decay_t<Fn>, Callback>) {
      assert(fn && "null event callback");
      rec.cb = std::forward<Fn>(fn);
    } else {
      rec.cb.emplace(std::forward<Fn>(fn));
    }
    rec.kind = kind;
    const HeapItem item{at, next_seq_++, slot};
    if (!lane_push(item, at - now_)) heap_push(item);
    ++live_;
    return EventId((static_cast<std::uint64_t>(rec.gen) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1));
  }

  /// Schedule `fn` to run `delay` from now.
  template <typename Fn, typename = std::enable_if_t<std::is_invocable_r_v<
                             void, std::decay_t<Fn>&>>>
  EventId schedule_in(Time delay, Fn&& fn, const char* kind = nullptr) {
    return schedule_at(now_ + delay, std::forward<Fn>(fn), kind);
  }

  /// Cancel a pending event. Cancelling an already-run or already-cancelled
  /// event is a harmless no-op. Returns true if the event was still pending.
  /// O(1): flips the slot's tombstone bit and releases the captured
  /// callback immediately (timers that never fire hold no resources).
  bool cancel(EventId id);

  /// Run events until the queue drains or `until` is reached (events at
  /// exactly `until` DO run; now() ends at `until` if reached).
  /// Returns the number of events executed.
  std::size_t run_until(Time until);

  /// Run all remaining events (use only in tests/bounded scenarios).
  std::size_t run_all() { return run_until(Time::max()); }

  /// Number of live (non-cancelled) pending events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // --- capacity observability (leak regression tests, bench reports) -------
  /// Queued keys (heap and lanes), including not-yet-compacted tombstones.
  [[nodiscard]] std::size_t heap_size() const {
    return heap_.size() + lane_items_;
  }
  /// Pool slots ever created (high-water mark of concurrent events).
  [[nodiscard]] std::size_t pool_size() const { return pool_count_; }
  /// Cancelled entries still awaiting compaction or expiry.
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }

  /// Attach a profiler: every executed event is counted under its kind tag,
  /// and tagged events are additionally wall-timed (untagged events skip
  /// the clock samples so micro-bench numbers stay undistorted); the
  /// profiler's span clock follows now(). Detach with nullptr. Profiling
  /// observes only — the event sequence is bit-identical with or without it.
  void set_profiler(Profiler* profiler);
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

 private:
  /// Pool record: callback + tag live here (stable address — chunks never
  /// move — reused via the free list); the heap carries only the 24-byte
  /// ordering key.
  struct Record {
    Callback cb;
    const char* kind = nullptr;
    std::uint32_t gen = 0;
    bool cancelled = false;
    std::uint32_t next_free = kNilSlot;
  };

  struct HeapItem {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
    [[nodiscard]] bool before(const HeapItem& other) const {
      if (at != other.at) return at < other.at;
      return seq < other.seq;
    }
  };

  /// FIFO of keys scheduled `delay` ahead of now(). now() never decreases
  /// and seq always increases, so appending keeps a lane sorted by
  /// (at, seq). Ring capacity is a power of two (or zero).
  struct Lane {
    Time delay = Time::max();
    std::vector<HeapItem> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    [[nodiscard]] const HeapItem& front() const { return ring[head]; }
  };

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// Delay lanes: the per-hop delays (propagation, MTU serialization at
  /// each link rate) and the DCQCN timer periods repeat, so a few lanes
  /// take nearly every event off the heap. A mixing hash spreads the
  /// delays (round numbers like 1 us and 83.84 ns collide under a bare
  /// multiply), so a rare delay seldom takes the slot of a frequent one.
  static constexpr std::size_t kLaneBits = 4;
  static constexpr std::size_t kLanes = std::size_t{1} << kLaneBits;
  /// 4-ary heap indexing: children of i are 4i+1..4i+4.
  static constexpr std::size_t kArity = 4;
  /// Compaction kicks in only past this many tombstones, so small schedulers
  /// never pay the rebuild.
  static constexpr std::size_t kCompactMinTombstones = 64;
  /// Pool chunking: 256 records per chunk. Growth allocates a fresh chunk
  /// and never relocates existing records, so in-flight callbacks and the
  /// free list survive any reentrant schedule_at.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return pool_[slot >> kChunkShift][slot & kChunkMask];
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = record(slot).next_free;
      return slot;
    }
    const std::uint32_t slot = pool_count_++;
    if ((slot & kChunkMask) == 0) grow_pool();
    return slot;
  }

  void heap_push(HeapItem item) {
    // Hole insertion: bubble the hole up with single copies, then place the
    // item once (a swap chain would move three times per level).
    std::size_t i = heap_.size();
    heap_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!item.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  /// Append `item` to a lane of `delay`: one of two slots picked by a hash
  /// of the delay, taking an empty slot for a new delay; false (heap) if
  /// both hold other delays. Two lanes may share a delay; each is sorted.
  bool lane_push(const HeapItem& item, Time delay) {
    std::uint64_t mix = static_cast<std::uint64_t>(delay.ps());
    const std::size_t h =
        static_cast<std::size_t>(splitmix64(mix) >> (64 - kLaneBits));
    for (std::size_t probe = 0; probe < 2; ++probe) {
      Lane& lane = lanes_[(h + probe) & (kLanes - 1)];
      if (lane.count == 0) lane.delay = delay;
      if (lane.delay == delay) {
        lane_append(lane, item);
        return true;
      }
    }
    return false;
  }
  void lane_append(Lane& lane, const HeapItem& item) {
    if (lane.count == lane.ring.size()) grow_lane(lane);
    lane.ring[(lane.head + lane.count) & (lane.ring.size() - 1)] = item;
    ++lane.count;
    ++lane_items_;
    // Only a lane that was empty gets a new head.
    if (lane.count == 1) lane_order_push(&lane);
  }
  /// The non-empty lane with the smallest head, or null.
  [[nodiscard]] Lane* lane_min() const {
    return active_lanes_ != 0 ? lane_order_[0] : nullptr;
  }
  /// Drop the head of lane_min().
  void lane_pop_min() {
    Lane& lane = *lane_order_[0];
    lane.head = (lane.head + 1) & (lane.ring.size() - 1);
    --lane.count;
    --lane_items_;
    if (lane.count != 0) {
      lane_order_sift_down(&lane);
    } else if (--active_lanes_ != 0) {
      lane_order_sift_down(lane_order_[active_lanes_]);
    }
  }
  // lane_order_ is a binary min-heap of the non-empty lanes by head key.
  void lane_order_push(Lane* lane) {
    std::size_t i = active_lanes_++;
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!lane->front().before(lane_order_[parent]->front())) break;
      lane_order_[i] = lane_order_[parent];
      i = parent;
    }
    lane_order_[i] = lane;
  }
  /// Place `lane` at the root and sift it down.
  void lane_order_sift_down(Lane* lane) {
    std::size_t i = 0;
    for (;;) {
      std::size_t c = 2 * i + 1;
      if (c >= active_lanes_) break;
      if (c + 1 < active_lanes_ &&
          lane_order_[c + 1]->front().before(lane_order_[c]->front())) {
        ++c;
      }
      if (!lane_order_[c]->front().before(lane->front())) break;
      lane_order_[i] = lane_order_[c];
      i = c;
    }
    lane_order_[i] = lane;
  }
  static void grow_lane(Lane& lane);

  void grow_pool();
  void release_slot(std::uint32_t slot);
  void heap_pop_root();
  void sift_down(std::size_t i, HeapItem item);
  void compact_tombstones();

  std::vector<HeapItem> heap_;  // flat 4-ary min-heap by (at, seq)
  std::array<Lane, kLanes> lanes_;
  std::array<Lane*, kLanes> lane_order_{};  // non-empty lanes, by head key
  std::size_t active_lanes_ = 0;
  std::size_t lane_items_ = 0;
  std::vector<std::unique_ptr<Record[]>> pool_;
  std::uint32_t pool_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  Profiler* profiler_ = nullptr;
};

}  // namespace pet::sim
