// Differential oracle: sim::Scheduler (4-ary heap plus FIFO delay lanes,
// with tombstoned cancellation) vs the testkit's sorted-vector model, driven by
// generated schedule/cancel/run interleavings, including ones issued from
// inside running event bodies. Execution order, cancel results, now() and
// pending() must agree at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/scheduler.hpp"
#include "testkit/oracles.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

// One op: (selector, operand, delay_ps). selector % 6 decides the action —
// weighted toward scheduling so runs have events to execute.
using Op = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

[[nodiscard]] Gen<std::vector<Op>> op_sequences() {
  return vector_of(
      tuple_of(integers(0, 5), integers(0, 1 << 20), integers(0, 200'000)), 1,
      80);
}

PROPERTY_CASES(SchedulerOracle, HeapAgreesWithSortedVectorModel, 2500,
               op_sequences()) {
  sim::Scheduler real;
  SchedulerModel model;

  std::vector<sim::EventId> real_ids;   // k-th scheduled event
  std::vector<std::uint64_t> model_ids;
  std::vector<std::size_t> real_order;  // execution order, as k indices
  std::vector<std::size_t> model_order;

  for (const auto& [sel, operand, delay_ps] : arg) {
    const std::int64_t kind = sel % 6;
    if (kind <= 2) {  // schedule (x3 weight)
      const sim::Time at = real.now() + sim::Time(delay_ps);
      const std::size_t k = real_ids.size();
      real_ids.push_back(real.schedule_at(
          at, [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(at));
    } else if (kind == 3) {  // cancel a previously scheduled event
      if (real_ids.empty()) continue;
      const std::size_t k =
          static_cast<std::size_t>(operand) % real_ids.size();
      const bool real_cancelled = real.cancel(real_ids[k]);
      const bool model_cancelled = model.cancel(model_ids[k]);
      PROP_ASSERT_EQ(real_cancelled, model_cancelled);
    } else {  // run forward
      const sim::Time until = real.now() + sim::Time(delay_ps);
      const std::size_t ran = real.run_until(until);
      const std::vector<std::uint64_t> due = model.run_until(until);
      for (const std::uint64_t id : due) {
        // Model ids are issued in schedule order starting at 1.
        model_order.push_back(static_cast<std::size_t>(id - 1));
      }
      PROP_ASSERT_EQ(ran, due.size());
      PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
      PROP_ASSERT_EQ(real_order, model_order);
    }
    PROP_ASSERT_EQ(real.pending(), model.pending());
    PROP_ASSERT_EQ(real.executed(), real_order.size());
  }

  // Drain both completely: everything left must run in the same order, and
  // time lands on the last event (run_all does not jump to Time::max()).
  real.run_all();
  for (const std::uint64_t id : model.run_until(sim::Time::max())) {
    model_order.push_back(static_cast<std::size_t>(id - 1));
  }
  PROP_ASSERT_EQ(real_order, model_order);
  PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
  PROP_ASSERT_EQ(real.pending(), std::size_t{0});
  PROP_ASSERT_EQ(model.pending(), std::size_t{0});
}

// Cancel-heavy churn: cancels outnumber schedules, repeatedly re-cancelling
// earlier targets (stale ids after execution or slot reuse must stay inert)
// and driving tombstone compaction while the run interleaves. schedule_in is
// exercised alongside schedule_at; the model sees the equivalent absolute
// time.
PROPERTY_CASES(SchedulerOracle, CancelHeavyChurnAgreesWithModel, 2000,
               vector_of(tuple_of(integers(0, 7), integers(0, 1 << 20),
                                  integers(0, 50'000)),
                         1, 120)) {
  sim::Scheduler real;
  SchedulerModel model;

  std::vector<sim::EventId> real_ids;
  std::vector<std::uint64_t> model_ids;
  std::vector<std::size_t> real_order;
  std::vector<std::size_t> model_order;

  for (const auto& [sel, operand, delay_ps] : arg) {
    const std::int64_t kind = sel % 8;
    if (kind <= 1) {  // schedule_at
      const sim::Time at = real.now() + sim::Time(delay_ps);
      const std::size_t k = real_ids.size();
      real_ids.push_back(real.schedule_at(
          at, [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(at));
    } else if (kind == 2) {  // schedule_in — sugar for now() + delay
      const std::size_t k = real_ids.size();
      real_ids.push_back(real.schedule_in(
          sim::Time(delay_ps), [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(real.now() + sim::Time(delay_ps)));
    } else if (kind <= 6) {  // cancel (x4 weight: most targets end up stale)
      if (real_ids.empty()) continue;
      const std::size_t k =
          static_cast<std::size_t>(operand) % real_ids.size();
      PROP_ASSERT_EQ(real.cancel(real_ids[k]), model.cancel(model_ids[k]));
    } else {  // run forward
      const sim::Time until = real.now() + sim::Time(delay_ps);
      const std::size_t ran = real.run_until(until);
      const std::vector<std::uint64_t> due = model.run_until(until);
      for (const std::uint64_t id : due) {
        model_order.push_back(static_cast<std::size_t>(id - 1));
      }
      PROP_ASSERT_EQ(ran, due.size());
      PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
      PROP_ASSERT_EQ(real_order, model_order);
    }
    PROP_ASSERT_EQ(real.pending(), model.pending());
    // Tombstones may lag cancels between compactions, but never exceed the
    // live half of the heap plus the compaction threshold.
    PROP_ASSERT(real.heap_size() <= 2 * real.pending() + 256);
  }

  real.run_all();
  for (const std::uint64_t id : model.run_until(sim::Time::max())) {
    model_order.push_back(static_cast<std::size_t>(id - 1));
  }
  PROP_ASSERT_EQ(real_order, model_order);
  PROP_ASSERT_EQ(real.pending(), std::size_t{0});
  PROP_ASSERT_EQ(real.tombstones(), std::size_t{0});
}

// --- scheduling from inside event bodies --------------------------------
//
// A body schedules into the lanes or the heap while its own event has just
// left one of them, cancels (possibly compacting both), or throws out of
// run_until. These properties run
// the model in lockstep with the real bodies: every real body first steps
// the model, which must pick the same event, then applies its script to
// both sides.

// One body action: (selector, operand, delay_ps). Negative delays clamp to
// 0, so about a quarter of body schedules land at the current time.
using BodyAction = std::tuple<std::int64_t, std::int64_t, std::int64_t>;
using Script = std::vector<BodyAction>;

struct BodyThrow {};

class LockstepHarness {
 public:
  explicit LockstepHarness(const std::vector<Script>& scripts)
      : scripts_(scripts) {}

  void schedule(sim::Time at) {
    const std::size_t k = real_ids_.size();
    real_ids_.push_back(real_.schedule_at(at, [this, k] { body(k); }));
    model_ids_.push_back(model_.schedule_at(at));
  }

  void cancel(std::int64_t operand) {
    if (real_ids_.empty()) return;
    const std::size_t k = static_cast<std::size_t>(operand) % real_ids_.size();
    PROP_ASSERT_EQ(real_.cancel(real_ids_[k]), model_.cancel(model_ids_[k]));
  }

  /// Runs both sides to `until`; a body that throws ends the run early on
  /// both (the model stepped exactly as far as the real scheduler ran).
  void run(sim::Time until) {
    until_ = until;
    try {
      real_.run_until(until);
    } catch (const BodyThrow&) {
      check();
      return;
    }
    PROP_ASSERT(!model_.step(until).has_value());  // nothing left due
    model_.finish_run(until);
    check();
  }

  void drain() {
    for (int guard = 0; real_.pending() > 0; ++guard) {
      PROP_ASSERT(guard < 100'000);
      run(sim::Time::max());
    }
    PROP_ASSERT_EQ(model_.pending(), std::size_t{0});
  }

  void check() {
    PROP_ASSERT_EQ(real_.now().ps(), model_.now().ps());
    PROP_ASSERT_EQ(real_.pending(), model_.pending());
    PROP_ASSERT_EQ(real_.executed(), executed_);
    // The heap and the lanes hold the live events and the tombstones,
    // nothing else.
    PROP_ASSERT_EQ(real_.heap_size(), real_.pending() + real_.tombstones());
    // Tombstones may lag cancels between compactions, but never exceed the
    // live half of the heap plus the compaction threshold.
    PROP_ASSERT(real_.heap_size() <= 2 * real_.pending() + 256);
  }

  [[nodiscard]] sim::Time now() const { return real_.now(); }

 private:
  static constexpr std::size_t kMaxEvents = 3000;  // bounds body fan-out

  void body(std::size_t k) {
    ++executed_;
    const std::optional<std::uint64_t> next = model_.step(until_);
    PROP_ASSERT(next.has_value());
    PROP_ASSERT_EQ(*next, model_ids_[k]);  // same event, same order
    check();
    for (const auto& [sel, operand, delay_ps] : scripts_[k % scripts_.size()]) {
      const sim::Time delay(std::max<std::int64_t>(0, delay_ps));
      switch (sel % 7) {
        case 0:
        case 1:  // schedule one event (several actions: several events)
          if (real_ids_.size() < kMaxEvents) schedule(now() + delay);
          break;
        case 2:  // cancel itself: already running, so stale on both sides
          PROP_ASSERT_EQ(real_.cancel(real_ids_[k]),
                         model_.cancel(model_ids_[k]));
          break;
        case 3:  // cancel any earlier event (pending, ran or cancelled)
          cancel(operand);
          break;
        case 4: {  // schedule a far-future batch for a later body to cancel
          if (real_ids_.size() >= kMaxEvents) break;
          const std::size_t first = real_ids_.size();
          const std::size_t n = 70 + static_cast<std::size_t>(operand % 200);
          for (std::size_t i = 0; i < n; ++i) {
            schedule(now() + sim::seconds(1) + delay +
                     sim::Time(static_cast<std::int64_t>(i)));
          }
          batches_.emplace_back(first, first + n);
          break;
        }
        case 5:  // cancel the newest batch: enough tombstones to compact
                 // the heap and the lanes from inside a body
          if (batches_.empty()) break;
          for (std::size_t i = batches_.back().first;
               i < batches_.back().second; ++i) {
            cancel(static_cast<std::int64_t>(i));
          }
          batches_.pop_back();
          break;
        default:  // throw out of the body; the next run continues
          if (operand % 3 == 0) throw BodyThrow{};
          break;
      }
      check();
    }
  }

  const std::vector<Script>& scripts_;
  sim::Scheduler real_;
  SchedulerModel model_;
  std::vector<sim::EventId> real_ids_;  // k-th scheduled event
  std::vector<std::uint64_t> model_ids_;
  std::vector<std::pair<std::size_t, std::size_t>> batches_;  // [first, last)
  std::uint64_t executed_ = 0;
  sim::Time until_;
};

[[nodiscard]] Gen<std::vector<Script>> body_scripts() {
  return vector_of(vector_of(tuple_of(integers(0, 6), integers(0, 1 << 20),
                                      integers(-20'000, 60'000)),
                             0, 5),
                   1, 8);
}

PROPERTY_CASES(SchedulerOracle, BodiesThatScheduleCancelAndThrowAgreeWithModel,
               1500, tuple_of(op_sequences(), body_scripts())) {
  const auto& [ops, scripts] = arg;
  LockstepHarness h(scripts);
  for (const auto& [sel, operand, delay_ps] : ops) {
    const std::int64_t kind = sel % 6;
    if (kind <= 2) {
      h.schedule(h.now() + sim::Time(delay_ps));
    } else if (kind == 3) {
      h.cancel(operand);
    } else {
      h.run(h.now() + sim::Time(delay_ps));
    }
    h.check();
  }
  h.drain();
}

// --- delay lanes ------------------------------------------------------------
//
// Keys scheduled the same delay ahead share a FIFO lane, and the run merges
// the smallest lane head with the heap root. Delays come from a palette with
// more values than there are lanes, so lanes fill, overflow to the heap,
// drain and take a new delay; run steps on the same 500 ps grid make equal
// times across lanes and the heap, which only insertion order may break.
// Bodies schedule from the palette too, cancel and throw, and cancel-heavy
// stretches compact tombstones out of the lanes.

[[nodiscard]] Gen<std::int64_t> palette_delays() {
  // 24 delays on the grid: more than the lanes, and few enough to repeat.
  std::vector<std::int64_t> delays;
  for (std::int64_t d = 0; d < 24; ++d) delays.push_back(500 * d);
  return element_of(std::move(delays));
}

PROPERTY_CASES(SchedulerOracle, RepeatedDelaysShareLanesAndAgreeWithModel,
               1500,
               tuple_of(vector_of(tuple_of(integers(0, 9),
                                           integers(0, 1 << 20),
                                           palette_delays()),
                                  1, 400),
                        vector_of(vector_of(tuple_of(integers(0, 6),
                                                     integers(0, 1 << 20),
                                                     palette_delays()),
                                            0, 5),
                                  1, 8))) {
  const auto& [ops, scripts] = arg;
  LockstepHarness h(scripts);
  for (const auto& [sel, operand, delay_ps] : ops) {
    const std::int64_t kind = sel % 10;
    if (kind <= 4) {
      h.schedule(h.now() + sim::Time(delay_ps));
    } else if (kind <= 7) {
      h.cancel(operand);
    } else {
      h.run(h.now() + sim::Time(delay_ps));
    }
    h.check();
  }
  h.drain();
}

PROPERTY_CASES(SchedulerOracle, TiesExecuteInInsertionOrder, 2000,
               tuple_of(integers(0, 1'000'000), integers(2, 12))) {
  const auto& [at_ps, n] = arg;
  sim::Scheduler real;
  std::vector<std::int64_t> order;
  for (std::int64_t k = 0; k < n; ++k) {
    real.schedule_at(sim::Time(at_ps), [k, &order] { order.push_back(k); });
  }
  real.run_all();
  PROP_ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (std::int64_t k = 0; k < n; ++k) {
    PROP_ASSERT_EQ(order[static_cast<std::size_t>(k)], k);
  }
  PROP_ASSERT_EQ(real.now().ps(), at_ps);
}

}  // namespace
}  // namespace pet::testkit
