#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "sim/profiler.hpp"

namespace pet::sim {

void Scheduler::grow_pool() {
  pool_.push_back(std::make_unique<Record[]>(kChunkSize));
}

void Scheduler::grow_lane(Lane& lane) {
  // Double (min 16) and unroll so the head lands at 0.
  std::vector<HeapItem> bigger(lane.ring.empty() ? 16 : lane.ring.size() * 2);
  for (std::size_t i = 0; i < lane.count; ++i) {
    bigger[i] = lane.ring[(lane.head + i) & (lane.ring.size() - 1)];
  }
  lane.ring = std::move(bigger);
  lane.head = 0;
}

void Scheduler::release_slot(std::uint32_t slot) {
  Record& rec = record(slot);
  rec.cb.reset();
  rec.kind = nullptr;
  ++rec.gen;  // invalidate every EventId issued for the previous occupant
  rec.next_free = free_head_;
  free_head_ = slot;
}

void Scheduler::sift_down(std::size_t i, HeapItem item) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(item)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void Scheduler::heap_pop_root() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  sift_down(0, last);
}

void Scheduler::compact_tombstones() {
  // Drop every tombstoned entry, free its slot, and re-heapify in place.
  // Pop order is a pure function of the (at, seq) total order, so the
  // rebuilt heap replays the exact same event sequence.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t slot = heap_[i].slot;
    if (record(slot).cancelled) {
      record(slot).cancelled = false;
      release_slot(slot);
    } else {
      heap_[kept++] = heap_[i];
    }
  }
  heap_.resize(kept);
  // Lanes keep their order; dropping entries leaves each one sorted.
  for (Lane& lane : lanes_) {
    const std::size_t mask = lane.ring.size() - 1;
    std::size_t n = 0;
    for (std::size_t i = 0; i < lane.count; ++i) {
      const HeapItem item = lane.ring[(lane.head + i) & mask];
      if (record(item.slot).cancelled) {
        record(item.slot).cancelled = false;
        release_slot(item.slot);
        --lane_items_;
      } else {
        lane.ring[(lane.head + n++) & mask] = item;
      }
    }
    lane.count = n;
  }
  active_lanes_ = 0;
  for (Lane& lane : lanes_) {
    if (lane.count != 0) lane_order_push(&lane);
  }
  tombstones_ = 0;
  if (kept <= 1) return;
  for (std::size_t start = (kept - 2) / kArity + 1; start-- > 0;) {
    sift_down(start, heap_[start]);
  }
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot =
      static_cast<std::uint32_t>((id.token_ & 0xffffffffu) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.token_ >> 32);
  // Only a genuinely pending event may be cancelled; stale ids (already run
  // or already cancelled — the slot's generation moved on) are ignored so
  // callers can cancel defensively.
  if (slot >= pool_count_) return false;
  Record& rec = record(slot);
  if (rec.gen != gen || rec.cancelled) return false;
  rec.cancelled = true;
  // Release the capture now: a cancelled retransmit/watchdog timer must not
  // pin its captured state until the (possibly far-future) deadline pops.
  rec.cb.reset();
  --live_;
  ++tombstones_;
  if (tombstones_ > kCompactMinTombstones && tombstones_ * 2 > heap_size()) {
    compact_tombstones();
  }
  return true;
}

void Scheduler::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    profiler_->set_time_source([this] { return now_.us(); });
  }
}

std::size_t Scheduler::run_until(Time until) {
  std::size_t ran = 0;
  for (;;) {
    // The next key is the smaller of the heap root and the smallest lane
    // head; keys are unique, so the merge replays the (at, seq) order.
    Lane* const lane = lane_min();
    const bool from_lane =
        lane != nullptr && (heap_.empty() || lane->front().before(heap_[0]));
    if (!from_lane && heap_.empty()) break;
    const HeapItem item = from_lane ? lane->front() : heap_[0];
    if (item.at > until) break;
    Record& rec = record(item.slot);
    if (from_lane) {
      lane_pop_min();
    } else {
      heap_pop_root();
    }
    if (rec.cancelled) {
      rec.cancelled = false;
      release_slot(item.slot);
      --tombstones_;
      continue;
    }
    const char* kind = rec.kind;
    // Invalidate outstanding EventIds before invoking: the callback runs in
    // place out of its pool slot (chunks never move), so a self-cancel from
    // inside the body must already see a stale handle.
    ++rec.gen;
    --live_;
    now_ = item.at;
    ++executed_;
    ++ran;
    if (profiler_ != nullptr && kind != nullptr) {
      // pet-lint: allow(banned-api): wall-clock timing of the event body
      const auto t0 = std::chrono::steady_clock::now();
      rec.cb.consume();
      // pet-lint: allow(banned-api): wall-clock timing of the event body
      const auto t1 = std::chrono::steady_clock::now();
      profiler_->record_event(
          kind, std::chrono::duration<double, std::milli>(t1 - t0).count());
    } else {
      rec.cb.consume();
      // Untagged events are counted but not wall-timed: two steady_clock
      // samples per event would distort the numbers the profiler exists to
      // report (and the micro benches gate on).
      if (profiler_ != nullptr) profiler_->count_untagged_event();
    }
    // The body may have scheduled (into other slots — this one is not on the
    // free list yet) or cancelled (compacting the heap); both leave rec's
    // address intact. Free the slot without a second generation bump.
    rec.kind = nullptr;
    rec.next_free = free_head_;
    free_head_ = item.slot;
  }
  if (until != Time::max() && now_ < until) now_ = until;
  return ran;
}

}  // namespace pet::sim
