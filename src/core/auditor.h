#ifndef CWDB_CORE_AUDITOR_H_
#define CWDB_CORE_AUDITOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "core/database.h"

namespace cwdb {

/// Background auditor for the Data Codeword scheme (§3.2): "the process of
/// auditing is nothing more than an asynchronous check of consistency
/// between the contents of a protection region and the codeword for that
/// region". Sweeps the database in slices on its own thread so detection
/// latency is bounded without a stop-the-world pass, throttled to a
/// configurable fraction of the region space per round.
///
/// The sweep is shard-aware: one cursor per engine shard (Database::
/// shard_map), each round auditing one slice from every shard — fanned
/// over a ThreadPool when `threads` > 1 — so detection latency shrinks
/// with the shard count and each lane stays inside one shard's codeword
/// table and gates. A sweep completes when every shard's cursor
/// has wrapped; Audit_SN advancement, the one-callback-per-bad-round
/// contract and ascending-range reports are unchanged.
///
/// On a failed audit the paper's protocol is to note the corrupt regions
/// and crash; the auditor instead invokes a user callback (which may call
/// Database::CrashAndRecover, abort the process, or page an operator) —
/// the note is already durable by then, so a real crash at any point still
/// recovers correctly.
class BackgroundAuditor {
 public:
  struct Options {
    /// Pause between audit slices.
    std::chrono::milliseconds interval{10};
    /// Bytes audited per slice (rounded to whole regions).
    uint64_t slice_bytes = 1 << 20;
    /// Sweep lanes per round. With several shards the lanes run on the
    /// auditor's ThreadPool, one shard slice per lane; with a single shard
    /// the slice is fanned through the protection scheme's sweep pool
    /// (AuditRangeParallel). Neither changes the cursor/LSN sweep
    /// semantics or the corruption-callback contract (one callback per bad
    /// round, ranges in ascending order). 1 = sequential (the default);
    /// 0 = one lane per hardware thread.
    size_t threads = 1;
  };

  using CorruptionCallback = std::function<void(const AuditReport&)>;

  BackgroundAuditor(Database* db, const Options& options,
                    CorruptionCallback on_corruption);
  ~BackgroundAuditor();

  BackgroundAuditor(const BackgroundAuditor&) = delete;
  BackgroundAuditor& operator=(const BackgroundAuditor&) = delete;

  void Start();
  void Stop();

  /// Blocks until at least one complete sweep of the database has finished
  /// since this call (tests; bounded-latency demonstrations).
  void WaitForFullSweep();

  uint64_t sweeps_completed() const { return sweeps_completed_.load(); }
  bool corruption_seen() const { return corruption_seen_.load(); }
  /// Audit rounds run (monotone; the watchdog's auditor probe reads this as
  /// its progress value).
  uint64_t slices() const { return slices_.load(); }

 private:
  void Loop();
  /// Audits one slice from every shard's cursor; returns true if
  /// corruption was found (after noting it and firing the callback).
  bool AuditSlice();
  /// Lazily-built pool for fanning shard slices (nullptr = sequential).
  ThreadPool* shard_pool();

  Database* db_;
  Options options_;
  CorruptionCallback on_corruption_;

  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  bool stop_ = false;
  /// Per-shard sweep cursors: next offset to audit, relative to the
  /// shard's start. A sweep is complete when every cursor has reached its
  /// shard's length; all reset to zero together.
  std::vector<uint64_t> cursors_;
  Lsn sweep_start_lsn_ = 0;    ///< Log position when the current sweep began.
  /// Span context of the current sweep's (forced) trace; set when a fresh
  /// sweep begins, its root recorded when the sweep wraps. Guarded by mu_.
  SpanContext sweep_ctx_;
  uint64_t sweep_root_span_ = 0;
  uint64_t sweep_start_ns_ = 0;
  std::atomic<uint64_t> sweeps_completed_{0};
  std::atomic<uint64_t> slices_{0};
  std::atomic<bool> corruption_seen_{false};
  uint64_t watchdog_probe_ = 0;  ///< Probe id while registered, else 0.

  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace cwdb

#endif  // CWDB_CORE_AUDITOR_H_
