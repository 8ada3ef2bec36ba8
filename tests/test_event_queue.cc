#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <utility>
#include <vector>

#include "util/alloc_counter.h"

namespace prr::sim {
namespace {

using namespace prr::sim::literals;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30_ms, [&] { order.push_back(3); });
  q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(20_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5_ms, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(1_ms, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelOneOfMany) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1_ms, [&] { order.push_back(1); });
  EventId id = q.schedule(2_ms, [&] { order.push_back(2); });
  q.schedule(3_ms, [&] { order.push_back(3); });
  q.cancel(id);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelInvalidIsNoop) {
  EventQueue q;
  q.cancel(kInvalidEventId);
  q.cancel(9999);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  EXPECT_TRUE(q.next_time().is_infinite());
  q.schedule(7_ms, [] {});
  q.schedule(3_ms, [] {});
  EXPECT_EQ(q.next_time().ms(), 3);
}

TEST(EventQueue, RunNextReturnsEventTime) {
  EventQueue q;
  q.schedule(42_ms, [] {});
  EXPECT_EQ(q.run_next().ms(), 42);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.schedule(Time::milliseconds(count), chain);
  };
  q.schedule(0_ms, chain);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  q.schedule(1_ms, [] {});
  EventId id = q.schedule(2_ms, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancellingFiredIdRetainsNothing) {
  // Regression: cancel() of an already-fired id used to park the id in
  // the cancellation set forever, growing memory without bound in timer-
  // heavy runs and skewing size() downward.
  EventQueue q;
  EventId id = q.schedule(1_ms, [] {});
  q.run_next();  // fires `id`
  EXPECT_EQ(q.size(), 0u);
  q.cancel(id);  // must be a true no-op
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.empty());

  // size() stays exact with live events around the stale cancel.
  q.schedule(2_ms, [] {});
  q.cancel(id);  // still fired, still a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next().ms(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancellingUnissuedAndRepeatIdsRetainsNothing) {
  EventQueue q;
  // Ids the queue never issued (bogus generations/indices) must not be
  // recorded either: they would otherwise suppress a future event when
  // the slot is used.
  for (EventId bogus = 1; bogus < 100; ++bogus) q.cancel(bogus);
  bool fired = false;
  q.schedule(1_ms, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(fired);

  // Double-cancel of a pending id: second is a no-op, size() stays exact.
  EventId id = q.schedule(2_ms, [] {});
  q.schedule(3_ms, [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_next().ms(), 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleIdOnRecycledSlotIsNoop) {
  // The first event's slot is recycled by the second schedule. The old
  // id must not be able to cancel the new occupant: the generation tag
  // makes it a true no-op.
  EventQueue q;
  EventId old_id = q.schedule(1_ms, [] {});
  q.run_next();  // fires; slot goes back on the free list
  bool fired = false;
  EventId new_id = q.schedule(2_ms, [&] { fired = true; });
  ASSERT_NE(old_id, new_id);  // same slot, new generation
  q.cancel(old_id);           // stale id, recycled slot: no-op
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(fired);

  // Same via cancel-driven recycling.
  EventId a = q.schedule(3_ms, [] {});
  q.cancel(a);
  bool b_fired = false;
  EventId b = q.schedule(4_ms, [&] { b_fired = true; });
  q.cancel(a);  // stale again
  EXPECT_EQ(q.size(), 1u);
  q.run_next();
  EXPECT_TRUE(b_fired);
  // Stale reschedule is equally inert.
  EXPECT_EQ(q.reschedule(b, 9_ms), kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleMovesEventAndInvalidatesOldId) {
  EventQueue q;
  std::vector<int> order;
  EventId id = q.schedule(10_ms, [&] { order.push_back(1); });
  q.schedule(5_ms, [&] { order.push_back(2); });
  EventId moved = q.reschedule(id, 1_ms);
  ASSERT_NE(moved, kInvalidEventId);
  q.cancel(id);  // old id is dead; must not cancel the moved event
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RescheduleKeepsFifoParityWithCancelPlusSchedule) {
  // A rescheduled event consumes a fresh sequence number, so among
  // equal-time events it fires exactly where a cancel+schedule pair
  // would have placed it: after events scheduled before the reschedule.
  EventQueue q;
  std::vector<int> order;
  EventId id = q.schedule(9_ms, [&] { order.push_back(0); });
  q.schedule(5_ms, [&] { order.push_back(1); });
  q.reschedule(id, 5_ms);
  q.schedule(5_ms, [&] { order.push_back(2); });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

// Far-apart times, including a tie and a pair one tick apart, pop in
// time order with the tie in scheduling order.
TEST(EventQueue, FarFutureTimesPopInOrder) {
  EventQueue q;
  static constexpr int64_t kTimes[] = {
      5,
      (int64_t{1} << 20) + 3,
      (int64_t{1} << 20) + 3,
      (int64_t{1} << 20) + 4,
      (int64_t{1} << 44) + 17,
      (int64_t{1} << 59) + 1,
  };
  std::vector<int> order;
  for (int i = 5; i >= 0; --i) {
    // Scheduled in reverse so the heap must reorder every one of them;
    // the tie (labels 1 and 2) still fires in scheduling order: 2, 1.
    q.schedule(Time::nanoseconds(kTimes[i]),
               [&order, i] { order.push_back(i); });
  }
  std::vector<int64_t> times;
  while (!q.empty()) times.push_back(q.run_next().ns());
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3, 4, 5}));
  EXPECT_EQ(times, std::vector<int64_t>(std::begin(kTimes), std::end(kTimes)));
}

// Events scheduled at one time from inside an earlier callback fire
// after the events scheduled at that time before it ran.
TEST(EventQueue, EqualTimeFifoHoldsForEventsScheduledByCallbacks) {
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::nanoseconds((int64_t{1} << 30) + 12345);
  q.schedule(t, [&] { order.push_back(0); });
  q.schedule(t, [&] { order.push_back(1); });
  q.schedule(t - Time::nanoseconds(64), [&] {
    q.schedule(t, [&] { order.push_back(2); });
    q.schedule(t, [&] { order.push_back(3); });
  });
  while (!q.empty()) q.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// Reschedules far -> near, near -> far, and onto an occupied time (the
// moved event re-sequences behind the one already there).
TEST(EventQueue, RescheduleFarNearAndOntoOccupiedTime) {
  EventQueue q;
  std::vector<int> order;
  EventId far = q.schedule(Time::nanoseconds(int64_t{1} << 50),
                           [&] { order.push_back(0); });
  EventId near = q.schedule(Time::nanoseconds(100),
                            [&] { order.push_back(1); });
  q.schedule(Time::nanoseconds(200), [&] { order.push_back(2); });
  far = q.reschedule(far, Time::nanoseconds(150));
  ASSERT_NE(far, kInvalidEventId);
  near = q.reschedule(near, Time::nanoseconds(int64_t{1} << 48));
  ASSERT_NE(near, kInvalidEventId);
  far = q.reschedule(far, Time::nanoseconds(200));
  ASSERT_NE(far, kInvalidEventId);
  std::vector<int64_t> times;
  while (!q.empty()) times.push_back(q.run_next().ns());
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(times, (std::vector<int64_t>{200, 200, int64_t{1} << 48}));
}

// Naive reference for the queue's order: an unordered vector popped by
// linear scan for the smallest (at, seq).
struct NaiveModel {
  struct Event {
    int64_t at_ms;
    uint64_t seq;
    int tag;
  };
  std::vector<Event> events;

  std::size_t min_index() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < events.size(); ++i) {
      if (events[i].at_ms < events[best].at_ms ||
          (events[i].at_ms == events[best].at_ms &&
           events[i].seq < events[best].seq)) {
        best = i;
      }
    }
    return best;
  }
  Event pop() {
    const std::size_t best = min_index();
    const Event e = events[best];
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(best));
    return e;
  }
  void erase(uint64_t seq) {
    std::erase_if(events, [seq](const Event& e) { return e.seq == seq; });
  }
  void move(uint64_t seq, int64_t at_ms, uint64_t new_seq) {
    for (Event& e : events) {
      if (e.seq == seq) e = Event{at_ms, new_seq, e.tag};
    }
  }
  // EventQueue::next_is_after: nothing pending sorts at or before
  // (at_ms, seq).
  bool next_is_after(int64_t at_ms, uint64_t seq) const {
    if (events.empty()) return true;
    const Event& head = events[min_index()];
    if (head.at_ms != at_ms) return head.at_ms > at_ms;
    return head.seq > seq;
  }
};

// Differential test: the slot-map queue against the naive model, through
// a long randomized workload including stale ids, equal-time groups, and
// the batch-delivery calls: seqs pre-drawn with take_seq() and
// materialized later — out of seq order — by schedule_with_seq() or
// reschedule_with_seq(), with next_is_after() probed at every step.
TEST(EventQueue, RandomizedDifferentialAgainstNaiveModel) {
  std::mt19937_64 rng(20110501);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    NaiveModel model;
    uint64_t next_seq = 1;  // mirrors the queue's FIFO counter
    // Live (queue id, model seq) pairs plus retired ids for stale probes.
    std::vector<std::pair<EventId, uint64_t>> live;
    std::vector<EventId> stale;
    std::vector<uint64_t> drawn;  // pre-drawn seqs not yet materialized
    std::vector<int> queue_fired, model_fired;
    int next_tag = 0;

    auto add = [&](EventId id, int64_t at_ms, uint64_t seq, int tag) {
      model.events.push_back({at_ms, seq, tag});
      live.emplace_back(id, seq);
    };
    auto fire = [&queue_fired](int tag) {
      return [&queue_fired, tag] { queue_fired.push_back(tag); };
    };

    for (int step = 0; step < 400; ++step) {
      const uint64_t action = rng() % 100;
      // Times collide on purpose (mod 16) to exercise FIFO.
      const int64_t at_ms = static_cast<int64_t>(rng() % 16);
      if (action < 8) {
        // Pre-draw a seq; a later step materializes it, after other
        // schedules have taken higher seqs.
        const uint64_t seq = q.take_seq();
        ASSERT_EQ(seq, next_seq++);
        drawn.push_back(seq);
      } else if (action < 16 && !drawn.empty()) {
        // Materialize a random pre-drawn seq: as a fresh event, or by
        // moving a live one under it.
        const std::size_t d = rng() % drawn.size();
        const uint64_t seq = drawn[d];
        drawn.erase(drawn.begin() + static_cast<std::ptrdiff_t>(d));
        if (!live.empty() && rng() % 2 == 0) {
          const std::size_t i = rng() % live.size();
          const EventId moved = q.reschedule_with_seq(
              live[i].first, Time::milliseconds(at_ms), seq);
          ASSERT_NE(moved, kInvalidEventId);
          stale.push_back(live[i].first);
          model.move(live[i].second, at_ms, seq);
          live[i] = {moved, seq};
        } else {
          const int tag = next_tag++;
          add(q.schedule_with_seq(Time::milliseconds(at_ms), seq, fire(tag)),
              at_ms, seq, tag);
        }
      } else if (action < 50 || live.empty()) {
        const int tag = next_tag++;
        add(q.schedule(Time::milliseconds(at_ms), fire(tag)), at_ms,
            next_seq++, tag);
      } else if (action < 62) {
        // Cancel a live event.
        const std::size_t i = rng() % live.size();
        q.cancel(live[i].first);
        stale.push_back(live[i].first);
        model.erase(live[i].second);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (action < 72) {
        // Reschedule a live event: same tag, new time, fresh seq.
        const std::size_t i = rng() % live.size();
        EventId moved = q.reschedule(live[i].first, Time::milliseconds(at_ms));
        ASSERT_NE(moved, kInvalidEventId);
        stale.push_back(live[i].first);
        model.move(live[i].second, at_ms, next_seq);
        live[i] = {moved, next_seq++};
      } else if (action < 80 && !stale.empty()) {
        // Poke with stale ids: every mutation must no-op.
        const EventId id = stale[rng() % stale.size()];
        q.cancel(id);
        EXPECT_EQ(q.reschedule(id, Time::milliseconds(1)), kInvalidEventId);
        EXPECT_EQ(q.reschedule_with_seq(id, Time::milliseconds(1), 1),
                  kInvalidEventId);
      } else if (!q.empty()) {
        // Run the earliest event; drop it from the live set.
        const Time t = q.run_next();
        const NaiveModel::Event e = model.pop();
        model_fired.push_back(e.tag);
        EXPECT_EQ(t.ms(), e.at_ms);
        std::erase_if(live, [&](const auto& p) { return p.second == e.seq; });
      }
      ASSERT_EQ(q.size(), model.events.size());
      ASSERT_EQ(q.empty(), model.events.empty());
      if (!model.events.empty()) {
        const NaiveModel::Event& head = model.events[model.min_index()];
        ASSERT_EQ(q.next_time().ms(), head.at_ms);
        // The boundary probes: the head itself is not after itself, the
        // key just before it is.
        ASSERT_FALSE(q.next_is_after(Time::milliseconds(head.at_ms),
                                     head.seq));
        ASSERT_TRUE(q.next_is_after(Time::milliseconds(head.at_ms),
                                    head.seq - 1));
      } else {
        ASSERT_TRUE(q.next_time().is_infinite());
      }
      const int64_t probe_ms = static_cast<int64_t>(rng() % 17);
      const uint64_t probe_seq = rng() % (next_seq + 1);
      ASSERT_EQ(q.next_is_after(Time::milliseconds(probe_ms), probe_seq),
                model.next_is_after(probe_ms, probe_seq))
          << "round " << round << " step " << step;
    }
    // Drain.
    while (!q.empty()) {
      const Time t = q.run_next();
      const NaiveModel::Event e = model.pop();
      model_fired.push_back(e.tag);
      EXPECT_EQ(t.ms(), e.at_ms);
    }
    EXPECT_EQ(queue_fired, model_fired);
  }
}

// A timer re-armed over and over (the per-ACK RTO pattern) among a small
// standing population leaves a stale heap entry per re-arm; once the heap
// holds >= 64 entries and more than 4 per live event, push_entry()
// compacts it in place. Without that compaction the measured loop would
// grow the heap vector past its warm capacity, so zero allocations here
// shows the compaction ran. The standing events are scheduled out of
// time order, so a compaction that dropped stale entries without
// re-heapifying would pop them out of order in the drain.
TEST(EventQueue, StaleEntryCompactionKeepsOrderAndAllocatesNothing) {
  ASSERT_TRUE(util::alloc_counting_enabled());
  EventQueue q;
  NaiveModel model;
  uint64_t seq = 0;  // mirrors the queue's FIFO counter
  std::vector<int> fired;
  fired.reserve(16);
  for (int j = 0; j < 8; ++j) {
    const int i = (j * 5) % 8;
    const int64_t at_ms = 10 * (i + 1);
    q.schedule(Time::milliseconds(at_ms), [&fired, i] { fired.push_back(i); });
    model.events.push_back({at_ms, ++seq, i});
  }
  static constexpr int kTimer = 100;
  EventId timer = q.schedule(90_ms, [&fired] { fired.push_back(kTimer); });
  model.events.push_back({90, ++seq, kTimer});
  const uint64_t timer_seq = seq;

  auto rearm = [&](int times) {
    for (int k = 0; k < times; ++k) {
      timer = q.reschedule(timer, Time::milliseconds(5 + (k * 53) % 80));
      ++seq;
    }
  };
  rearm(300);  // warm: slot and heap vectors reach steady capacity
  const util::AllocCounts before = util::alloc_counts();
  rearm(1000);
  const util::AllocCounts after = util::alloc_counts();
  EXPECT_EQ(after.allocations - before.allocations, 0u);
  ASSERT_NE(timer, kInvalidEventId);
  EXPECT_EQ(q.size(), 9u);

  // Land the timer on an occupied time: it fires after the standing
  // event there, which holds an older seq.
  timer = q.reschedule(timer, 40_ms);
  model.move(timer_seq, 40, ++seq);
  std::vector<int> want;
  while (!q.empty()) {
    EXPECT_EQ(q.run_next().ms(), model.events[model.min_index()].at_ms);
    want.push_back(model.pop().tag);
  }
  EXPECT_EQ(fired, want);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, kTimer, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace prr::sim
