#include "queue/task_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "rss_probe.h"

namespace tdfs {
namespace {

TEST(TaskQueueTest, StartsEmpty) {
  TaskQueue q(30);
  EXPECT_EQ(q.ApproxSize(), 0);
  Task t;
  EXPECT_FALSE(q.Dequeue(&t));
}

TEST(TaskQueueTest, FifoOrderSingleThreaded) {
  TaskQueue q(30);
  for (VertexId i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{i, i + 100, i + 200}));
  }
  EXPECT_EQ(q.ApproxSize(), 5);
  for (VertexId i = 0; i < 5; ++i) {
    Task t;
    ASSERT_TRUE(q.Dequeue(&t));
    EXPECT_EQ(t.v1, i);
    EXPECT_EQ(t.v2, i + 100);
    EXPECT_EQ(t.v3, i + 200);
  }
  EXPECT_EQ(q.ApproxSize(), 0);
}

TEST(TaskQueueTest, TwoVertexTasksUsePlaceholder) {
  TaskQueue q(30);
  ASSERT_TRUE(q.Enqueue(Task{3, 7, kNoThirdVertex}));
  Task t;
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(t.v1, 3);
  EXPECT_EQ(t.v2, 7);
  EXPECT_FALSE(t.HasThird());
}

TEST(TaskQueueTest, FullQueueRejectsEnqueue) {
  TaskQueue q(9);  // 3 tasks
  EXPECT_TRUE(q.Enqueue(Task{1, 1, 1}));
  EXPECT_TRUE(q.Enqueue(Task{2, 2, 2}));
  EXPECT_TRUE(q.Enqueue(Task{3, 3, 3}));
  EXPECT_FALSE(q.Enqueue(Task{4, 4, 4}));
  EXPECT_EQ(q.EnqueueFullFailures(), 1);
  // Dequeue one, enqueue succeeds again.
  Task t;
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_TRUE(q.Enqueue(Task{4, 4, 4}));
}

TEST(TaskQueueTest, WrapsAroundRingBoundary) {
  TaskQueue q(9);  // 3 tasks
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(q.Enqueue(Task{round, round + 1, round + 2}));
    ASSERT_TRUE(q.Enqueue(Task{round, round + 1, kNoThirdVertex}));
    Task a;
    Task b;
    ASSERT_TRUE(q.Dequeue(&a));
    ASSERT_TRUE(q.Dequeue(&b));
    EXPECT_EQ(a.v1, round);
    EXPECT_EQ(a.v3, round + 2);
    EXPECT_FALSE(b.HasThird());
  }
}

TEST(TaskQueueTest, StatsCountTraffic) {
  TaskQueue q(30);
  q.Enqueue(Task{1, 2, 3});
  q.Enqueue(Task{4, 5, 6});
  Task t;
  q.Dequeue(&t);
  EXPECT_EQ(q.TotalEnqueued(), 2);
  EXPECT_EQ(q.TotalDequeued(), 1);
  EXPECT_EQ(q.PeakSizeInts(), 6);
  q.ResetStats();
  EXPECT_EQ(q.TotalEnqueued(), 0);
  EXPECT_EQ(q.PeakSizeInts(), 0);
}

TEST(TaskQueueTest, DefaultCapacityMatchesPaper) {
  EXPECT_EQ(TaskQueue::kDefaultCapacityInts, 3'000'000);
}

TEST(TaskQueueDeathTest, CapacityMustBeMultipleOfThree) {
  EXPECT_DEATH(TaskQueue(10), "multiple of 3");
  EXPECT_DEATH(TaskQueue(0), "multiple of 3");
}

// Concurrency: N producers and M consumers; every enqueued task must be
// dequeued exactly once (conservation), even under wraparound pressure.
TEST(TaskQueueStressTest, ManyProducersManyConsumersConserveTasks) {
  TaskQueue q(3 * 64);  // small ring to force wraparound and contention
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kTasksPerProducer = 10000;

  std::atomic<int64_t> produced{0};
  std::atomic<int64_t> consumed{0};
  std::atomic<int64_t> checksum{0};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, &produced, &checksum, p] {
      for (int i = 0; i < kTasksPerProducer; ++i) {
        const VertexId v1 = p * kTasksPerProducer + i;
        Task task{v1, v1 + 1, i % 2 == 0 ? v1 + 2 : kNoThirdVertex};
        while (!q.Enqueue(task)) {
          std::this_thread::yield();
        }
        produced.fetch_add(1, std::memory_order_relaxed);
        checksum.fetch_add(v1, std::memory_order_relaxed);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&q, &consumed, &checksum, &producers_done] {
      Task t;
      while (true) {
        if (q.Dequeue(&t)) {
          // Validate intra-task integrity: slots must not be torn apart.
          EXPECT_EQ(t.v2, t.v1 + 1);
          if (t.HasThird()) {
            EXPECT_EQ(t.v3, t.v1 + 2);
          }
          consumed.fetch_add(1, std::memory_order_relaxed);
          checksum.fetch_sub(t.v1, std::memory_order_relaxed);
        } else if (producers_done.load(std::memory_order_acquire)) {
          if (!q.Dequeue(&t)) {
            return;
          }
          EXPECT_EQ(t.v2, t.v1 + 1);
          consumed.fetch_add(1, std::memory_order_relaxed);
          checksum.fetch_sub(t.v1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads[p].join();
  }
  producers_done.store(true, std::memory_order_release);
  for (int c = 0; c < kConsumers; ++c) {
    threads[kProducers + c].join();
  }

  EXPECT_EQ(produced.load(), kProducers * kTasksPerProducer);
  EXPECT_EQ(consumed.load(), produced.load());
  EXPECT_EQ(checksum.load(), 0) << "task payloads lost or duplicated";
  EXPECT_EQ(q.ApproxSize(), 0);
  EXPECT_EQ(q.TotalEnqueued(), q.TotalDequeued());
}

// The full-queue/empty-queue boundary under concurrency: with capacity 1
// task, producers and consumers collide on the same slot triple, which is
// exactly the case the CAS/exchange hand-off protects (Alg. 3's "when the
// queue is full, front and back point to the same element").
TEST(TaskQueueStressTest, SingleSlotRingHandoff) {
  TaskQueue q(3);
  constexpr int kTasks = 20000;
  std::thread producer([&q] {
    for (VertexId i = 0; i < kTasks; ++i) {
      while (!q.Enqueue(Task{i, i, i})) {
        std::this_thread::yield();
      }
    }
  });
  int64_t sum = 0;
  int received = 0;
  Task t;
  while (received < kTasks) {
    if (q.Dequeue(&t)) {
      EXPECT_EQ(t.v1, t.v2);
      EXPECT_EQ(t.v1, t.v3);
      sum += t.v1;
      ++received;
    } else {
      // Polling etiquette matters on small machines: with exact admission
      // a producer is never admitted early just to park inside the queue,
      // so an empty poll that never yields can pin the only core for a
      // full scheduler slice per hand-off.
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_EQ(sum, int64_t{kTasks} * (kTasks - 1) / 2);
}

// Regression for the phantom-admit hang and occupancy overshoot: the old
// add-then-rollback admission let `size_` transiently exceed capacity
// while enqueues raced on a full queue, which (a) produced occupancy
// samples beyond the ring's real range and (b) could admit a dequeue
// against a failing enqueue's +3 — that dequeue then spun waiting for a
// slot fill no producer owed. Admission is now an exact CAS loop, so the
// hostile shutdown order (producers first, consumer drains a queue nobody
// refills) must terminate, and samples must stay within capacity with no
// clamping involved.
TEST(TaskQueueStressTest, ProducersFirstShutdownAndExactOccupancy) {
  constexpr int32_t kCapacityInts = 12;  // 4 tasks
  TaskQueue q(kCapacityInts);
  obs::Histogram occupancy;
  q.AttachObs(&occupancy);

  // Producers hammer a mostly-full queue in tight loops — deliberately no
  // yield, so involuntary preemption lands inside the enqueue/dequeue
  // windows and admission races are maximally exercised.
  constexpr int kProducers = 8;
  std::atomic<bool> stop_producers{false};
  std::atomic<bool> stop_consumer{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &stop_producers] {
      while (!stop_producers.load(std::memory_order_relaxed)) {
        q.Enqueue(Task{1, 2, 3});
      }
    });
  }
  // One consumer keeps the queue hovering at the full boundary, where
  // admitted and rejected enqueues interleave.
  std::thread consumer([&q, &stop_consumer] {
    Task t;
    while (!stop_consumer.load(std::memory_order_relaxed)) {
      q.Dequeue(&t);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(800));
  // The previously hanging order: stop the producers FIRST, then let the
  // consumer drain whatever is admitted. With exact admission every
  // admitted task has a producer that already incremented size_ and will
  // complete its slot fill, so the consumer cannot get stuck.
  stop_producers.store(true, std::memory_order_relaxed);
  for (auto& th : producers) {
    th.join();
  }
  Task t;
  while (q.Dequeue(&t)) {
  }
  stop_consumer.store(true, std::memory_order_relaxed);
  consumer.join();

  EXPECT_GT(occupancy.Count(), 0);
  EXPECT_LE(occupancy.Max(), kCapacityInts / 3)
      << "occupancy sample exceeded queue capacity";
  EXPECT_LE(q.PeakSizeInts(), kCapacityInts)
      << "peak-size stat exceeded queue capacity";
  EXPECT_EQ(q.ApproxSize(), 0);
}

TEST(TaskQueueTest, DrainForReuseRewindsRingTickets) {
  TaskQueue q(30);
  // Advance both tickets off origin: 4 enqueues, 2 dequeues, then a drain.
  for (VertexId i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{i, i, i}));
  }
  Task t;
  ASSERT_TRUE(q.Dequeue(&t));
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(q.DrainForReuse(), 2);
  // Scrub restores the pristine ring: tickets at 0, so the next run's
  // traffic lands on the same slots as a cold queue's.
  EXPECT_EQ(q.FrontTicket(), 0);
  EXPECT_EQ(q.BackTicket(), 0);
  EXPECT_EQ(q.ApproxSize(), 0);
  ASSERT_TRUE(q.Enqueue(Task{42, 42, 42}));
  EXPECT_EQ(q.BackTicket(), 3);
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(t.v1, 42);
  EXPECT_EQ(q.FrontTicket(), 3);
}

TEST(TaskQueueTest, DrainForReuseDiscardsLeftoverTasks) {
  TaskQueue q(30);
  for (VertexId i = 0; i < 7; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{i, i, i}));
  }
  EXPECT_EQ(q.DrainForReuse(), 7);
  EXPECT_EQ(q.ApproxSize(), 0);
  Task t;
  EXPECT_FALSE(q.Dequeue(&t));
  // The drained ring is immediately reusable.
  EXPECT_TRUE(q.Enqueue(Task{9, 9, 9}));
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(t.v1, 9);
}

TEST(TaskQueueTest, PeakSizeTracksHighWaterMark) {
  TaskQueue q(30);
  for (int i = 0; i < 8; ++i) {
    q.Enqueue(Task{1, 2, 3});
  }
  Task t;
  for (int i = 0; i < 8; ++i) {
    q.Dequeue(&t);
  }
  EXPECT_EQ(q.PeakSizeInts() / 3, 8);
}

TEST(TaskQueueTest, ExtremeVertexIdsRoundTrip) {
  // Slots are stored as `value - kEmptySlot`; the encoding must wrap
  // cleanly at both ends of the id range.
  TaskQueue q(9);
  constexpr VertexId kMax = std::numeric_limits<VertexId>::max();
  ASSERT_TRUE(q.Enqueue(Task{kMax, 0, kNoThirdVertex}));
  ASSERT_TRUE(q.Enqueue(Task{0, kMax - 1, kMax}));
  Task t;
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(t, (Task{kMax, 0, kNoThirdVertex}));
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(t, (Task{0, kMax - 1, kMax}));
}

// Fills the whole ring, checks it rejects one more task, and drains it in
// FIFO order.
void ExpectFullLapIsFifo(TaskQueue& q, VertexId base) {
  const VertexId tasks = q.capacity_ints() / 3;
  for (VertexId i = 0; i < tasks; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{base + i, i, kNoThirdVertex}));
  }
  EXPECT_FALSE(q.Enqueue(Task{0, 0, 0}));
  Task t;
  for (VertexId i = 0; i < tasks; ++i) {
    ASSERT_TRUE(q.Dequeue(&t));
    EXPECT_EQ(t, (Task{base + i, i, kNoThirdVertex}));
  }
  EXPECT_FALSE(q.Dequeue(&t));
}

TEST(TaskQueueTest, DrainAfterSeveralLapsRewindsToPristineRing) {
  TaskQueue q(9);  // 3 tasks
  Task t;
  // Ten pass-through tasks: the tickets run 3 1/3 laps round the ring.
  for (VertexId i = 0; i < 10; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{i, i, i}));
    ASSERT_TRUE(q.Dequeue(&t));
    ASSERT_EQ(t.v1, i);
  }
  // Stop mid-ring with a task still in it.
  ASSERT_TRUE(q.Enqueue(Task{77, 77, 77}));
  EXPECT_EQ(q.BackTicket(), 33);
  EXPECT_EQ(q.DrainForReuse(), 1);
  EXPECT_EQ(q.FrontTicket(), 0);
  EXPECT_EQ(q.BackTicket(), 0);
  ExpectFullLapIsFifo(q, 100);
  ExpectFullLapIsFifo(q, 200);
}

TEST(TaskQueueTest, PrefixResetLeavesNoStaleLap) {
  // A short run touches a few slots of a large ring; the drain resets only
  // that prefix, so a later full-capacity fill crosses both reset and
  // never-touched slots (a stale lap guard would hang the enqueue).
  TaskQueue q(300);
  Task t;
  ASSERT_TRUE(q.Enqueue(Task{1, 2, 3}));
  ASSERT_TRUE(q.Enqueue(Task{4, 5, 6}));
  ASSERT_TRUE(q.Dequeue(&t));
  EXPECT_EQ(q.DrainForReuse(), 1);
  ExpectFullLapIsFifo(q, 1000);
  EXPECT_EQ(q.DrainForReuse(), 0);
  ExpectFullLapIsFifo(q, 2000);
}

TEST(TaskQueueTest, RingIsCommittedOnFirstTouchOnly) {
  if (!testing::RssTracksCommits()) {
    GTEST_SKIP() << "sanitizer shadow memory makes RSS meaningless here";
  }
  constexpr int64_t kMiB = int64_t{1} << 20;
  const int64_t before = testing::ResidentBytes();
  TaskQueue q;  // default geometry: 3M ints
  const int64_t constructed = testing::ResidentBytes();
  EXPECT_LT(constructed - before, 2 * kMiB)
      << "constructing the ring committed it";

  constexpr VertexId kTasks = 100'000;
  for (VertexId i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(q.Enqueue(Task{i, i, i}));
  }
  const int64_t grown = testing::ResidentBytes() - constructed;
  // Each task fills three int32 slots and three int64 lap guards.
  const int64_t touched_bytes = int64_t{kTasks} * 3 * (4 + 8);
  EXPECT_GE(grown, touched_bytes * 3 / 4);
  EXPECT_LE(grown, touched_bytes + 2 * kMiB);
  EXPECT_EQ(q.DrainForReuse(), kTasks);
}

}  // namespace
}  // namespace tdfs
