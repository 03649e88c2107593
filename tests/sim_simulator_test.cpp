#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "util/rng.hpp"

namespace nlft::sim {
namespace {

using util::Duration;
using util::SimTime;

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.scheduleAt(SimTime::fromUs(300), [&] { order.push_back(3); });
  simulator.scheduleAt(SimTime::fromUs(100), [&] { order.push_back(1); });
  simulator.scheduleAt(SimTime::fromUs(200), [&] { order.push_back(2); });
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(300));
}

TEST(Simulator, TieBreakByPriorityThenInsertion) {
  Simulator simulator;
  std::vector<int> order;
  const auto t = SimTime::fromUs(50);
  simulator.scheduleAt(t, [&] { order.push_back(2); }, EventPriority::Application);
  simulator.scheduleAt(t, [&] { order.push_back(1); }, EventPriority::FaultInjection);
  simulator.scheduleAt(t, [&] { order.push_back(3); }, EventPriority::Application);
  simulator.scheduleAt(t, [&] { order.push_back(4); }, EventPriority::Observer);
  simulator.runAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesOnlyWhenEventsFire) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), SimTime::zero());
  simulator.scheduleAfter(Duration::milliseconds(5), [] {});
  EXPECT_EQ(simulator.now(), SimTime::zero());
  simulator.step();
  EXPECT_EQ(simulator.now(), SimTime::fromUs(5000));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  const EventId id = simulator.scheduleAfter(Duration::milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(simulator.cancel(id));
  EXPECT_FALSE(simulator.cancel(id));  // idempotent
  simulator.runAll();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator simulator;
  const EventId id = simulator.scheduleAfter(Duration::milliseconds(1), [] {});
  simulator.runAll();
  EXPECT_FALSE(simulator.cancel(id));
}

TEST(Simulator, EventsCanScheduleFurtherEvents) {
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) simulator.scheduleAfter(Duration::milliseconds(10), chain);
  };
  simulator.scheduleAfter(Duration::milliseconds(10), chain);
  simulator.runAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(simulator.now(), SimTime::fromUs(50'000));
}

TEST(Simulator, RunUntilStopsAtLimitAndAdvancesClock) {
  Simulator simulator;
  std::vector<int> order;
  simulator.scheduleAt(SimTime::fromUs(100), [&] { order.push_back(1); });
  simulator.scheduleAt(SimTime::fromUs(900), [&] { order.push_back(2); });
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(500));
  simulator.runUntil(SimTime::fromUs(1000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilIncludesEventsAtTheLimit) {
  Simulator simulator;
  bool ran = false;
  simulator.scheduleAt(SimTime::fromUs(500), [&] { ran = true; });
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilNotConfusedByCancelledEventAtTop) {
  // Regression: a cancelled event before the limit must not make runUntil
  // execute a live event beyond the limit.
  Simulator simulator;
  bool lateRan = false;
  const EventId cancelled = simulator.scheduleAt(SimTime::fromUs(100), [] {});
  simulator.scheduleAt(SimTime::fromUs(900), [&] { lateRan = true; });
  simulator.cancel(cancelled);
  simulator.runUntil(SimTime::fromUs(500));
  EXPECT_FALSE(lateRan);
  EXPECT_EQ(simulator.now(), SimTime::fromUs(500));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator simulator;
  simulator.scheduleAt(SimTime::fromUs(100), [] {});
  simulator.runAll();
  EXPECT_THROW(simulator.scheduleAt(SimTime::fromUs(50), [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.scheduleAfter(Duration::microseconds(-1), [] {}),
               std::invalid_argument);
}

TEST(Simulator, PendingAndProcessedCounts) {
  Simulator simulator;
  const EventId a = simulator.scheduleAfter(Duration::milliseconds(1), [] {});
  simulator.scheduleAfter(Duration::milliseconds(2), [] {});
  EXPECT_EQ(simulator.pendingEvents(), 2u);
  simulator.cancel(a);
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.runAll();
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_EQ(simulator.processedEvents(), 1u);
}

TEST(Simulator, CancellingFromWithinAnEvent) {
  Simulator simulator;
  bool secondRan = false;
  EventId second{};
  second = simulator.scheduleAt(SimTime::fromUs(200), [&] { secondRan = true; });
  simulator.scheduleAt(SimTime::fromUs(100), [&] { simulator.cancel(second); });
  simulator.runAll();
  EXPECT_FALSE(secondRan);
}

TEST(Simulator, SameTimeCancellationHonoursPriority) {
  // A fault-injection event at time t can cancel an application event at the
  // same instant, because fault injection runs first.
  Simulator simulator;
  bool appRan = false;
  const auto t = SimTime::fromUs(10);
  const EventId app = simulator.scheduleAt(t, [&] { appRan = true; },
                                           EventPriority::Application);
  simulator.scheduleAt(t, [&] { simulator.cancel(app); }, EventPriority::FaultInjection);
  simulator.runAll();
  EXPECT_FALSE(appRan);
}

TEST(Simulator, StaleIdDoesNotCancelEventReusingItsSlot) {
  Simulator simulator;
  const EventId fired = simulator.scheduleAt(SimTime::fromUs(10), [] {});
  simulator.runAll();
  // The freed slot is reused by the next schedule, under a new generation.
  bool newerRan = false;
  const EventId newer = simulator.scheduleAt(SimTime::fromUs(20), [&] { newerRan = true; });
  EXPECT_NE(fired, newer);
  EXPECT_EQ(static_cast<std::uint32_t>(fired.value), static_cast<std::uint32_t>(newer.value));
  EXPECT_FALSE(simulator.cancel(fired));
  EXPECT_EQ(simulator.pendingEvents(), 1u);
  simulator.runAll();
  EXPECT_TRUE(newerRan);
}

TEST(Simulator, StaleIdOfCancelledEventDoesNotCancelReuser) {
  Simulator simulator;
  const EventId cancelled = simulator.scheduleAt(SimTime::fromUs(10), [] {});
  EXPECT_TRUE(simulator.cancel(cancelled));
  bool newerRan = false;
  simulator.scheduleAt(SimTime::fromUs(10), [&] { newerRan = true; });
  EXPECT_FALSE(simulator.cancel(cancelled));
  simulator.runAll();
  EXPECT_TRUE(newerRan);
  EXPECT_EQ(simulator.cancelledEvents(), 1u);
}

TEST(Simulator, EventCancellingItselfReturnsFalse) {
  Simulator simulator;
  EventId self{};
  std::optional<bool> cancelResult;
  self = simulator.scheduleAt(SimTime::fromUs(5), [&] { cancelResult = simulator.cancel(self); });
  simulator.runAll();
  EXPECT_EQ(cancelResult, std::optional<bool>{false});
  EXPECT_EQ(simulator.processedEvents(), 1u);
  EXPECT_EQ(simulator.cancelledEvents(), 0u);
}

TEST(Simulator, PendingCountExactUnderCancelAndReuse) {
  Simulator simulator;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(simulator.scheduleAt(SimTime::fromUs(100 + i), [] {}));
  }
  EXPECT_EQ(simulator.pendingEvents(), 8u);
  for (int i = 0; i < 8; i += 2) EXPECT_TRUE(simulator.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(simulator.pendingEvents(), 4u);
  // Refill the four freed slots; the cancelled records are still in the heap.
  for (int i = 0; i < 4; ++i) simulator.scheduleAt(SimTime::fromUs(50 + i), [] {});
  EXPECT_EQ(simulator.pendingEvents(), 8u);
  for (int i = 0; i < 8; i += 2) EXPECT_FALSE(simulator.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(simulator.pendingEvents(), 8u);
  simulator.runUntil(SimTime::fromUs(60));
  EXPECT_EQ(simulator.pendingEvents(), 4u);
  simulator.runAll();
  EXPECT_EQ(simulator.pendingEvents(), 0u);
  EXPECT_EQ(simulator.processedEvents(), 8u);
  EXPECT_EQ(simulator.cancelledEvents(), 4u);
}

/// Naive reference: a vector kept sorted by (time, priority, seq).
class ReferenceQueue {
 public:
  void schedule(std::int64_t at, int priority, int token) {
    const Entry entry{at, priority, nextSeq_++, token};
    entries_.insert(std::upper_bound(entries_.begin(), entries_.end(), entry), entry);
  }
  bool cancel(int token) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [token](const Entry& e) { return e.token == token; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }
  /// Pops the next event: (time, token), or nullopt when empty.
  std::optional<std::pair<std::int64_t, int>> step() {
    if (entries_.empty()) return std::nullopt;
    const Entry next = entries_.front();
    entries_.erase(entries_.begin());
    return std::pair{next.at, next.token};
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::int64_t at;
    int priority;
    std::uint64_t seq;
    int token;
    bool operator<(const Entry& o) const {
      return std::tie(at, priority, seq) < std::tie(o.at, o.priority, o.seq);
    }
  };
  std::vector<Entry> entries_;
  std::uint64_t nextSeq_ = 0;
};

TEST(Simulator, RandomizedDifferentialAgainstSortedVector) {
  constexpr int kOperations = 120'000;
  constexpr EventPriority kPriorities[] = {EventPriority::FaultInjection, EventPriority::Hardware,
                                           EventPriority::Kernel,         EventPriority::Network,
                                           EventPriority::Application,    EventPriority::Observer};
  util::Rng rng{20260417};
  Simulator simulator;
  ReferenceQueue reference;
  std::vector<EventId> ids;  // token -> id
  std::vector<int> fired;

  // Every fourth event schedules a child from inside its callback, exercising
  // slot reuse while the parent's slot has just been freed.
  auto scheduleBoth = [&](auto& self, std::int64_t at, int priorityIndex) -> void {
    const int token = static_cast<int>(ids.size());
    const EventPriority priority = kPriorities[priorityIndex];
    ids.push_back(simulator.scheduleAt(
        SimTime::fromUs(at),
        [&, token, &self = self] {
          fired.push_back(token);
          if (token % 4 == 0) {
            self(self, simulator.now().us() + token % 7, (token / 4) % 6);
          }
        },
        priority));
    reference.schedule(at, static_cast<int>(priorityIndex), token);
  };

  for (int op = 0; op < kOperations; ++op) {
    const std::uint64_t choice = rng.uniformInt(10);
    if (choice < 4) {
      scheduleBoth(scheduleBoth,
                   simulator.now().us() + static_cast<std::int64_t>(rng.uniformInt(40)),
                   static_cast<int>(rng.uniformInt(6)));
    } else if (choice < 6 && !ids.empty()) {
      // Cancel any id ever issued: pending, fired or already cancelled.
      const int token = static_cast<int>(rng.uniformInt(ids.size()));
      ASSERT_EQ(simulator.cancel(ids[static_cast<std::size_t>(token)]), reference.cancel(token))
          << "op " << op << " token " << token;
    } else {
      const auto expected = reference.step();
      const std::size_t before = fired.size();
      ASSERT_EQ(simulator.step(), expected.has_value()) << "op " << op;
      if (expected) {
        ASSERT_EQ(fired.size(), before + 1);
        ASSERT_EQ(fired.back(), expected->second) << "op " << op;
        ASSERT_EQ(simulator.now().us(), expected->first) << "op " << op;
        // The callback may have scheduled a child into both queues.
      }
    }
    ASSERT_EQ(simulator.pendingEvents(), reference.size()) << "op " << op;
  }
  EXPECT_GT(simulator.processedEvents(), 10'000u);
  EXPECT_GT(simulator.cancelledEvents(), 1'000u);
}

using TypedLog = std::vector<std::tuple<int, std::uint32_t, std::uint64_t, std::int64_t>>;

/// Logs every typed event it receives, tagged with its own identity.
struct LoggingHandler final : EventHandler {
  LoggingHandler(int tag = 0, TypedLog* log = nullptr, Simulator* simulator = nullptr)
      : tag{tag}, log{log}, simulator{simulator} {}
  void onEvent(std::uint32_t kind, std::uint64_t arg) override {
    log->emplace_back(tag, kind, arg, simulator->now().us());
  }
  int tag;
  TypedLog* log;
  Simulator* simulator;
};

TEST(Simulator, TypedRecordsDispatchToTheCopysHandlers) {
  TypedLog log;
  Simulator original;
  LoggingHandler first{1, &log, &original};
  const std::uint32_t index = original.addHandler(first);
  original.scheduleAt(SimTime::fromUs(10), index, 7, 70, EventPriority::Kernel);
  original.scheduleAt(SimTime::fromUs(30), index, 8, 80, EventPriority::Network);
  original.scheduleAt(SimTime::fromUs(20), index, 9, 90, EventPriority::Kernel);
  ASSERT_TRUE(original.step());  // t=10 fires on the original

  Simulator copy;
  LoggingHandler second{2, &log, &copy};
  ASSERT_EQ(copy.addHandler(second), index);
  copy.copyStateFrom(original);
  EXPECT_EQ(copy.now(), SimTime::fromUs(10));
  EXPECT_EQ(copy.pendingEvents(), 2u);
  EXPECT_EQ(copy.processedEvents(), 1u);
  // Insertion order continues from the source: a tie scheduled on the copy
  // runs after the copied event at the same instant and priority.
  copy.scheduleAt(SimTime::fromUs(20), index, 10, 100, EventPriority::Kernel);
  copy.runAll();
  EXPECT_EQ(log, (TypedLog{{1, 7, 70, 10}, {2, 9, 90, 20}, {2, 10, 100, 20}, {2, 8, 80, 30}}));
  // The source is untouched and still runs its own events.
  original.runAll();
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(std::get<0>(log.back()), 1);
}

TEST(Simulator, EventIdsStayCancellableAfterACopy) {
  TypedLog log;
  Simulator original;
  LoggingHandler first{1, &log, &original};
  const std::uint32_t index = original.addHandler(first);
  const EventId keep = original.scheduleAt(SimTime::fromUs(5), index, 1, 0, EventPriority::Kernel);
  const EventId drop = original.scheduleAt(SimTime::fromUs(6), index, 2, 0, EventPriority::Kernel);
  const EventId fired =
      original.scheduleAt(SimTime::fromUs(1), index, 3, 0, EventPriority::Kernel);
  ASSERT_TRUE(original.step());

  Simulator copy;
  LoggingHandler second{2, &log, &copy};
  copy.addHandler(second);
  copy.copyStateFrom(original);
  EXPECT_FALSE(copy.cancel(fired));  // already fired before the copy
  EXPECT_TRUE(copy.cancel(drop));
  EXPECT_FALSE(copy.cancel(drop));
  EXPECT_EQ(copy.cancelledEvents(), 1u);
  copy.runAll();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(std::get<1>(log.back()), 1u);
  // Cancelling in the copy does not touch the source.
  EXPECT_TRUE(original.cancel(keep));
  EXPECT_EQ(original.pendingEvents(), 1u);
}

TEST(Simulator, CopyWithALiveClosureThrows) {
  Simulator original;
  LoggingHandler first;
  original.addHandler(first);
  const EventId closure = original.scheduleAfter(Duration::microseconds(3), [] {});
  EXPECT_EQ(original.pendingClosures(), 1u);
  Simulator copy;
  LoggingHandler second;
  copy.addHandler(second);
  EXPECT_THROW(copy.copyStateFrom(original), std::logic_error);
  // Once the closure is gone (cancelled here), the state copies.
  ASSERT_TRUE(original.cancel(closure));
  EXPECT_EQ(original.pendingClosures(), 0u);
  EXPECT_NO_THROW(copy.copyStateFrom(original));
  // Handler sets must match: the records name handlers by index.
  Simulator bare;
  EXPECT_THROW(bare.copyStateFrom(original), std::logic_error);
}

TEST(Simulator, StepBeforeRunsOnlyEventsStrictlyBeforeTheLimit) {
  Simulator simulator;
  std::vector<int> order;
  simulator.scheduleAt(SimTime::fromUs(100), [&] { order.push_back(1); });
  simulator.scheduleAt(SimTime::fromUs(200), [&] { order.push_back(2); });
  while (simulator.stepBefore(SimTime::fromUs(200))) {
  }
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulator.now(), SimTime::fromUs(100));  // the clock stays at the last event
}

}  // namespace
}  // namespace nlft::sim
