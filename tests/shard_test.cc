// Concurrency tests for the sharded engine: ShardMap geometry, the
// lock-free MPMC queue under producer/consumer races, the segmented lock
// manager (contention, upgrades, cross-segment deadlocks, hot-key
// convoys), the sharded WAL under concurrent append/flush, and whole-
// database invariants for transactions that span shard boundaries —
// including atomicity across a crash and across injected commit-time I/O
// failures. These are the tests the CI TSan job runs to vet the
// memory-ordering arguments in DESIGN.md §10.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crashpoint.h"
#include "common/random.h"
#include "storage/shard_map.h"
#include "tests/test_util.h"
#include "txn/lock_manager.h"
#include "wal/mpmc_queue.h"
#include "wal/system_log.h"

namespace cwdb {
namespace {

// ---------------------------------------------------------------------------
// ShardMap geometry.
// ---------------------------------------------------------------------------

TEST(ShardMap, EvenPartitionCoversArenaExactly) {
  const uint64_t align = 8192;
  ShardMap map(4ull << 20, 4, align);
  ASSERT_EQ(map.shard_count(), 4u);
  uint64_t covered = 0;
  for (size_t s = 0; s < map.shard_count(); ++s) {
    EXPECT_EQ(map.ShardStart(s), covered);
    EXPECT_EQ(map.ShardStart(s) % align, 0u) << "shard " << s;
    EXPECT_EQ(map.ShardLen(s) % align, 0u) << "shard " << s;
    covered += map.ShardLen(s);
  }
  EXPECT_EQ(covered, map.arena_size());
}

TEST(ShardMap, ShardOfAgreesWithRanges) {
  ShardMap map(10 * 8192, 4, 8192);  // Uneven: spans round up, last absorbs.
  uint64_t covered = 0;
  for (size_t s = 0; s < map.shard_count(); ++s) {
    covered += map.ShardLen(s);
  }
  ASSERT_EQ(covered, map.arena_size());
  // Every offset maps to the shard whose [start, start+len) contains it.
  for (uint64_t off = 0; off < map.arena_size(); off += 4096) {
    size_t s = map.ShardOf(off);
    EXPECT_GE(off, map.ShardStart(s)) << "off " << off;
    EXPECT_LT(off, map.ShardStart(s) + map.ShardLen(s)) << "off " << off;
  }
  EXPECT_EQ(map.ShardOf(map.arena_size() - 1), map.shard_count() - 1);
}

TEST(ShardMap, ClampsShardCountToAlignedSpans) {
  // A 2-span arena cannot host 8 shards; the count clamps so every shard
  // owns at least one aligned span.
  ShardMap map(2 * 8192, 8, 8192);
  EXPECT_EQ(map.shard_count(), 2u);
  EXPECT_EQ(map.ShardLen(0), 8192u);
  EXPECT_EQ(map.ShardLen(1), 8192u);
}

TEST(ShardMap, ZeroShardsMeansOne) {
  ShardMap map(1 << 20, 0, 4096);
  EXPECT_EQ(map.shard_count(), 1u);
  EXPECT_EQ(map.ShardLen(0), 1u << 20);
}

// ---------------------------------------------------------------------------
// MPMC queue: every pushed value is popped exactly once, across produced
// racing producers and consumers, with the queue cycling through full and
// empty. Run under TSan this validates the seq handshake's acquire/release
// pairing.
// ---------------------------------------------------------------------------

TEST(MpmcQueue, ConcurrentProducersConsumersDeliverExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr uint64_t kPerProducer = 20000;
  MpmcQueue<uint64_t> q(256);  // Small: forces the full and empty paths.

  std::atomic<uint64_t> popped{0};
  std::vector<std::vector<uint64_t>> seen(kConsumers);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t v = (static_cast<uint64_t>(p) << 32) | i;
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&q, &popped, &seen, c] {
      uint64_t v;
      while (popped.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (q.TryPop(&v)) {
          seen[c].push_back(v);
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Exactly-once: tally every value; each (producer, seq) appears once,
  // and within any single consumer a producer's values arrive in order
  // (producers claim strictly increasing cells).
  std::vector<std::vector<uint8_t>> hit(
      kProducers, std::vector<uint8_t>(kPerProducer, 0));
  for (int c = 0; c < kConsumers; ++c) {
    std::vector<uint64_t> last(kProducers, 0);
    std::vector<bool> any(kProducers, false);
    for (uint64_t v : seen[c]) {
      uint64_t p = v >> 32, i = v & 0xffffffffu;
      ASSERT_LT(p, static_cast<uint64_t>(kProducers));
      ASSERT_LT(i, kPerProducer);
      EXPECT_EQ(hit[p][i], 0) << "duplicate delivery of " << p << ":" << i;
      hit[p][i] = 1;
      if (any[p]) {
        EXPECT_GT(i, last[p]) << "per-producer order broken";
      }
      any[p] = true;
      last[p] = i;
    }
  }
  for (int p = 0; p < kProducers; ++p) {
    for (uint64_t i = 0; i < kPerProducer; ++i) {
      ASSERT_EQ(hit[p][i], 1) << "lost value " << p << ":" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Segmented lock manager.
// ---------------------------------------------------------------------------

TEST(ShardedLockManager, DisjointKeysAcrossSegmentsDoNotInterfere) {
  LockManager lm(8);
  EXPECT_EQ(lm.shard_count(), 8u);
  // Many transactions, each locking its own key: all grants immediate,
  // ReleaseAll finds exactly its own locks.
  for (TxnId t = 1; t <= 64; ++t) {
    ASSERT_OK(lm.Acquire(t, LockId::Record(1, static_cast<uint32_t>(t)),
                         LockMode::kExclusive));
  }
  EXPECT_EQ(lm.LockedCount(), 64u);
  for (TxnId t = 1; t <= 64; ++t) {
    EXPECT_TRUE(
        lm.Holds(t, LockId::Record(1, static_cast<uint32_t>(t)),
                 LockMode::kExclusive));
    lm.ReleaseAll(t);
  }
  EXPECT_EQ(lm.LockedCount(), 0u);
}

TEST(ShardedLockManager, UpgradeSharedToExclusive) {
  LockManager lm(4);
  ASSERT_OK(lm.Acquire(1, LockId::Record(1, 7), LockMode::kShared));
  ASSERT_OK(lm.Acquire(2, LockId::Record(1, 7), LockMode::kShared));
  // Txn 2 releases; txn 1 upgrades and then blocks out a new reader.
  lm.ReleaseAll(2);
  ASSERT_OK(lm.Acquire(1, LockId::Record(1, 7), LockMode::kExclusive));
  EXPECT_TRUE(lm.Holds(1, LockId::Record(1, 7), LockMode::kExclusive));
}

TEST(ShardedLockManager, CrossSegmentDeadlockIsDetected) {
  // Two locks that (very likely) live in different segments; a classic
  // ABBA deadlock must be caught by the global waits-for graph even
  // though each blocking edge forms under a different segment mutex.
  LockManager lm(8);
  LockId a = LockId::Record(1, 1);
  LockId b = LockId::Record(2, 100);
  ASSERT_OK(lm.Acquire(1, a, LockMode::kExclusive));
  ASSERT_OK(lm.Acquire(2, b, LockMode::kExclusive));

  // The victim is whichever acquire closes the cycle: usually txn 1 below,
  // but if this thread parks on b before t2 probes a, the detector kills
  // txn 2 instead. Either way exactly one side must see kDeadlock and the
  // other must be granted — asserting a specific victim would race.
  Status second;
  std::atomic<bool> t2_done{false};
  std::thread t2([&] {
    second = lm.Acquire(2, a, LockMode::kExclusive);
    lm.ReleaseAll(2);
    t2_done.store(true, std::memory_order_release);
  });
  Status first;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    first = lm.Acquire(1, b, LockMode::kExclusive);
    if (!first.ok()) break;  // Txn 1 chosen as victim.
    lm.Release(1, b);
    // Granted can also mean txn 2 was killed and released b; once t2 has
    // finished no further cycle can form, so stop retrying.
    if (t2_done.load(std::memory_order_acquire)) break;
  }
  lm.ReleaseAll(1);  // If txn 1 was the victim, this unblocks t2.
  t2.join();
  EXPECT_NE(first.ok(), second.ok());
  if (!first.ok()) {
    EXPECT_TRUE(first.IsDeadlock()) << first.ToString();
  }
  if (!second.ok()) {
    EXPECT_TRUE(second.IsDeadlock()) << second.ToString();
  }
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Eight threads hammering one exclusive lock: no deadlock is possible on a
// single resource, so every acquire must eventually be granted — a convoy,
// not a cycle. Catches lost-wakeup and livelock bugs in the segment's
// wait/notify protocol.
TEST(ShardedLockManager, HotKeyConvoyMakesProgress) {
  LockManager lm(4);
  constexpr int kThreads = 8;
  constexpr int kRounds = 500;
  LockId hot = LockId::Record(3, 42);
  std::atomic<uint64_t> counter{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int r = 0; r < kRounds; ++r) {
        TxnId txn = static_cast<TxnId>(1 + i + r * kThreads);
        Status s = lm.Acquire(txn, hot, LockMode::kExclusive);
        ASSERT_TRUE(s.ok()) << s.ToString();
        counter.fetch_add(1, std::memory_order_relaxed);
        lm.ReleaseAll(txn);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.load(), static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// Seeded mixed-order workload over a small hot set: threads lock two keys
// in random order, so deadlocks do happen — each must resolve as a clean
// kDeadlock for the victim while every other participant makes progress.
TEST(ShardedLockManager, RandomHotSetDeadlocksResolve) {
  LockManager lm(8);
  constexpr int kThreads = 8;
  constexpr int kRounds = 300;
  std::atomic<uint64_t> commits{0}, victims{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Random rng(0xD15C0 + i);  // Seeded: reruns are reproducible.
      for (int r = 0; r < kRounds; ++r) {
        TxnId txn = static_cast<TxnId>(1 + i + r * kThreads);
        uint32_t k1 = rng.Uniform(4);
        uint32_t k2 = rng.Uniform(4);
        Status s = lm.Acquire(txn, LockId::Record(1, k1),
                              LockMode::kExclusive);
        if (s.ok() && k2 != k1) {
          s = lm.Acquire(txn, LockId::Record(1, k2), LockMode::kExclusive);
        }
        if (s.ok()) {
          commits.fetch_add(1, std::memory_order_relaxed);
        } else {
          ASSERT_TRUE(s.IsDeadlock()) << s.ToString();
          victims.fetch_add(1, std::memory_order_relaxed);
        }
        lm.ReleaseAll(txn);  // Commit and abort both end in ReleaseAll.
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(commits.load() + victims.load(),
            static_cast<uint64_t>(kThreads) * kRounds);
  EXPECT_GT(commits.load(), 0u);
  EXPECT_EQ(lm.LockedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Sharded WAL: concurrent appenders and flushers; every record readable
// exactly once afterwards, in LSN order, through the preallocated tail.
// ---------------------------------------------------------------------------

TEST(ShardedWal, ConcurrentAppendFlushLosesNothing) {
  TempDir dir;
  const std::string path = dir.path() + "/log";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  {
    auto log = SystemLog::Open(path, nullptr, 4);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&log, i] {
        for (int r = 0; r < kPerThread; ++r) {
          // (txn, off) = (thread, seq): identifies the record on replay.
          std::string payload;
          EncodePhysRedo(&payload, static_cast<TxnId>(i + 1),
                         static_cast<DbPtr>(r) * 8, Slice("12345678", 8),
                         nullptr);
          (*log)->Append(payload);
          if (r % 10 == 9) ASSERT_OK((*log)->Flush());
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->CurrentLsn(), (*log)->end_of_stable_log());
  }
  // Reopen: the scan must not classify the preallocated zero tail as
  // damage, and the reader must deliver all records exactly once.
  auto reopened = SystemLog::Open(path, nullptr, 4);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->tail_scan().damaged);
  auto reader = LogReader::Open(path, 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  std::vector<std::vector<uint8_t>> hit(
      kThreads, std::vector<uint8_t>(kPerThread, 0));
  LogRecord rec;
  Lsn lsn;
  Lsn last = 0;
  uint64_t n = 0;
  while ((*reader)->Next(&rec, &lsn)) {
    EXPECT_GE(lsn, last);
    last = lsn;
    ASSERT_EQ(rec.type, LogRecordType::kPhysRedo);
    int t = static_cast<int>(rec.txn) - 1;
    int r = static_cast<int>(rec.off / 8);
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ASSERT_LT(r, kPerThread);
    EXPECT_EQ(hit[t][r], 0) << "duplicate record t" << t << "r" << r;
    hit[t][r] = 1;
    ++n;
  }
  EXPECT_EQ(n, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(ShardedWal, InterleavedFrameRunsAndSingleAppendsStayContiguous) {
  // Threads interleave multi-frame runs (the operation-commit path) with
  // single Appends across four staging shards, flushing as they go. The
  // reader must return every record exactly once, at strictly increasing
  // LSNs, with each run's frames back to back from the LSN it was given.
  TempDir dir;
  const std::string path = dir.path() + "/log";
  constexpr int kThreads = 6;
  constexpr int kPerThread = 300;
  // first_lsn[t][r] / run_len[t][r]: where record r of thread t went and
  // how many records its call staged (0 for the later frames of a run).
  std::vector<std::vector<Lsn>> first_lsn(kThreads,
                                          std::vector<Lsn>(kPerThread));
  std::vector<std::vector<int>> run_len(kThreads,
                                        std::vector<int>(kPerThread, 0));
  {
    auto log = SystemLog::Open(path, nullptr, 4);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        Random rng(i + 1);
        int r = 0;
        while (r < kPerThread) {
          // (txn, off) = (thread, seq) identifies the record on replay.
          const int n = std::min<int>(
              kPerThread - r, rng.OneIn(3) ? 1 : 2 + rng.Uniform(6));
          if (n == 1 && rng.OneIn(2)) {
            std::string payload;
            EncodeReadLog(&payload, static_cast<TxnId>(i + 1),
                          static_cast<DbPtr>(r), 8, nullptr);
            first_lsn[i][r] = (*log)->Append(payload);
          } else {
            std::string run;
            for (int k = 0; k < n; ++k) {
              AppendFrame(&run, EncodeReadLog, static_cast<TxnId>(i + 1),
                          static_cast<DbPtr>(r + k), uint32_t{8}, nullptr);
            }
            first_lsn[i][r] = (*log)->AppendFrames(run);
          }
          run_len[i][r] = n;
          r += n;
          if (rng.OneIn(8)) ASSERT_OK((*log)->Flush());
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_OK((*log)->Flush());
    EXPECT_EQ((*log)->CurrentLsn(), (*log)->end_of_stable_log());
  }
  auto reader = LogReader::Open(path, 0, kInvalidLsn);
  ASSERT_TRUE(reader.ok());
  std::vector<std::pair<Lsn, std::pair<int, int>>> seen;  // lsn, (t, r)
  LogRecord rec;
  Lsn lsn;
  while ((*reader)->Next(&rec, &lsn)) {
    ASSERT_EQ(rec.type, LogRecordType::kReadLog);
    if (!seen.empty()) {
      EXPECT_GT(lsn, seen.back().first);
    }
    seen.push_back({lsn, {static_cast<int>(rec.txn) - 1,
                          static_cast<int>(rec.off)}});
  }
  ASSERT_OK((*reader)->status());
  ASSERT_EQ(seen.size(), static_cast<size_t>(kThreads) * kPerThread);
  std::vector<std::vector<size_t>> at(
      kThreads, std::vector<size_t>(kPerThread, SIZE_MAX));
  for (size_t pos = 0; pos < seen.size(); ++pos) {
    auto [t, r] = seen[pos].second;
    ASSERT_TRUE(t >= 0 && t < kThreads && r >= 0 && r < kPerThread);
    EXPECT_EQ(at[t][r], SIZE_MAX) << "duplicate record t" << t << " r" << r;
    at[t][r] = pos;
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int r = 0; r < kPerThread; ++r) {
      const int n = run_len[t][r];
      if (n == 0) continue;
      const size_t pos = at[t][r];
      EXPECT_EQ(seen[pos].first, first_lsn[t][r]);
      for (int k = 1; k < n; ++k) {
        EXPECT_EQ(at[t][r + k], pos + k) << "run of t" << t << " split";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-shard transactions: a transaction whose writes span shard
// boundaries is atomic through crash recovery and through an injected
// commit-time I/O failure.
// ---------------------------------------------------------------------------

class CrossShardTest : public ::testing::Test {
 protected:
  void Open(size_t shards) {
    DatabaseOptions opts =
        SmallDbOptions(dir_.path(), ProtectionScheme::kDataCodeword);
    opts.shards = shards;
    auto db = Database::Open(opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  /// Creates a table whose slots provably span at least `want` shards and
  /// fills it; returns the table id.
  TableId SpanningTable(uint32_t* slots_out) {
    constexpr uint32_t kRecordSize = 512;
    const uint32_t slots = static_cast<uint32_t>(
        db_->arena_size() / kRecordSize / 2);
    auto txn = db_->Begin();
    EXPECT_TRUE(txn.ok());
    auto t = db_->CreateTable(*txn, "span", kRecordSize, slots);
    EXPECT_TRUE(t.ok());
    for (uint32_t i = 0; i < slots; ++i) {
      EXPECT_TRUE(db_->Insert(*txn, *t, std::string(kRecordSize, 'a')).ok());
    }
    EXPECT_OK(db_->Commit(*txn));
    // The table's backing pages now cover a span larger than one shard:
    // the per-shard protection update counters prove writes landed on
    // more than one shard.
    size_t touched = 0;
    for (size_t s = 0; s < db_->shard_map().shard_count(); ++s) {
      char name[64];
      std::snprintf(name, sizeof(name), "protect.shard%zu.updates", s);
      if (db_->metrics()->counter(name)->Value() > 0) ++touched;
    }
    EXPECT_GE(touched, 2u) << "table does not span shards; grow it";
    *slots_out = slots;
    return *t;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(CrossShardTest, TxnSpanningShardsIsAtomicAcrossCrash) {
  Open(4);
  uint32_t slots = 0;
  TableId table = SpanningTable(&slots);

  // Committed cross-shard transaction: first and last slot (the table
  // spans >= 2 shards, so these are in different shards).
  auto c = db_->Begin();
  ASSERT_TRUE(c.ok());
  ASSERT_OK(db_->Update(*c, table, 0, 0, Slice("C", 1)));
  ASSERT_OK(db_->Update(*c, table, slots - 1, 0, Slice("C", 1)));
  ASSERT_OK(db_->Commit(*c));

  // Uncommitted cross-shard transaction: must vanish wholesale.
  auto u = db_->Begin();
  ASSERT_TRUE(u.ok());
  ASSERT_OK(db_->Update(*u, table, 1, 0, Slice("U", 1)));
  ASSERT_OK(db_->Update(*u, table, slots - 2, 0, Slice("U", 1)));

  ASSERT_OK(db_->CrashAndRecover());

  auto rd = db_->Begin();
  ASSERT_TRUE(rd.ok());
  std::string rec;
  ASSERT_OK(db_->Read(*rd, table, 0, &rec));
  EXPECT_EQ(rec[0], 'C');
  ASSERT_OK(db_->Read(*rd, table, slots - 1, &rec));
  EXPECT_EQ(rec[0], 'C');
  ASSERT_OK(db_->Read(*rd, table, 1, &rec));
  EXPECT_EQ(rec[0], 'a') << "uncommitted write survived on shard 0";
  ASSERT_OK(db_->Read(*rd, table, slots - 2, &rec));
  EXPECT_EQ(rec[0], 'a') << "uncommitted write survived on the last shard";
  ASSERT_OK(db_->Abort(*rd));
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

TEST_F(CrossShardTest, InjectedCommitIoFailureKeepsCrossShardAtomicity) {
  Open(4);
  uint32_t slots = 0;
  TableId table = SpanningTable(&slots);

  // Fail the WAL write under this commit: Commit must report the error,
  // and after a crash neither shard's update may survive.
  crashpoint::Arm("wal.flush.pwrite", {crashpoint::Mode::kEio, 1, 0});
  auto t = db_->Begin();
  ASSERT_TRUE(t.ok());
  ASSERT_OK(db_->Update(*t, table, 0, 0, Slice("X", 1)));
  ASSERT_OK(db_->Update(*t, table, slots - 1, 0, Slice("X", 1)));
  Status commit = db_->Commit(*t);
  crashpoint::DisarmAll();
  ASSERT_FALSE(commit.ok()) << "commit acked despite failed log write";

  ASSERT_OK(db_->CrashAndRecover());
  auto rd = db_->Begin();
  ASSERT_TRUE(rd.ok());
  std::string rec;
  ASSERT_OK(db_->Read(*rd, table, 0, &rec));
  EXPECT_EQ(rec[0], 'a');
  ASSERT_OK(db_->Read(*rd, table, slots - 1, &rec));
  EXPECT_EQ(rec[0], 'a');
  ASSERT_OK(db_->Abort(*rd));
  auto audit = db_->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);
}

// ---------------------------------------------------------------------------
// Whole-database concurrency: TPC-B-shaped invariant under 8 threads on a
// sharded engine. Transfers preserve the total; the validated (seqlock)
// read path runs concurrently with updates and must never observe a torn
// region.
// ---------------------------------------------------------------------------

TEST(ShardedDatabase, ConcurrentTransfersPreserveTotal) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.shards = 4;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  constexpr uint32_t kAccounts = 64;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 150;
  auto setup = (*db)->Begin();
  ASSERT_TRUE(setup.ok());
  auto table = (*db)->CreateTable(*setup, "acct", 8, kAccounts);
  ASSERT_TRUE(table.ok());
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 1000;
    ASSERT_TRUE(
        (*db)->Insert(*setup, *table, Slice(reinterpret_cast<char*>(&v), 8))
            .ok());
  }
  ASSERT_OK((*db)->Commit(*setup));

  std::atomic<uint64_t> committed{0}, deadlocks{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Random rng(0xACC7 + i);
      for (int r = 0; r < kPerThread; ++r) {
        uint32_t from = rng.Uniform(kAccounts);
        uint32_t to = rng.Uniform(kAccounts);
        if (from == to) to = (to + 1) % kAccounts;
        auto txn = (*db)->Begin();
        ASSERT_TRUE(txn.ok());
        int64_t a = 0, b = 0;
        Status s = (*db)->ReadField(*txn, *table, from, 0, 8, &a);
        if (s.ok()) s = (*db)->ReadField(*txn, *table, to, 0, 8, &b);
        if (s.ok()) {
          a -= 7;
          b += 7;
          s = (*db)->Update(*txn, *table, from, 0,
                            Slice(reinterpret_cast<char*>(&a), 8));
        }
        if (s.ok()) {
          s = (*db)->Update(*txn, *table, to, 0,
                            Slice(reinterpret_cast<char*>(&b), 8));
        }
        if (s.ok()) s = (*db)->Commit(*txn);
        if (s.ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        } else {
          // Deadlock is the only legitimate failure; anything else is a
          // bug. The txn may already be invalidated by Commit's abort.
          EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
          deadlocks.fetch_add(1, std::memory_order_relaxed);
          (void)(*db)->Abort(*txn);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(committed.load(), 0u);

  // Total is preserved no matter how many transfers committed.
  auto rd = (*db)->Begin();
  ASSERT_TRUE(rd.ok());
  int64_t total = 0;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 0;
    ASSERT_OK((*db)->ReadField(*rd, *table, i, 0, 8, &v));
    total += v;
  }
  ASSERT_OK((*db)->Abort(*rd));
  EXPECT_EQ(total, int64_t{1000} * kAccounts);

  // And the image is clean: no torn codeword from the concurrent run.
  auto audit = (*db)->Audit();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->clean);

  // Survives a crash too: the sharded WAL rebuilt the same state.
  ASSERT_OK((*db)->CrashAndRecover());
  auto rd2 = (*db)->Begin();
  ASSERT_TRUE(rd2.ok());
  total = 0;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    int64_t v = 0;
    ASSERT_OK((*db)->ReadField(*rd2, *table, i, 0, 8, &v));
    total += v;
  }
  ASSERT_OK((*db)->Abort(*rd2));
  EXPECT_EQ(total, int64_t{1000} * kAccounts);
}

}  // namespace
}  // namespace cwdb
