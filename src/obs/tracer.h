#ifndef CWDB_OBS_TRACER_H_
#define CWDB_OBS_TRACER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/seq_ring.h"
#include "obs/span.h"

namespace cwdb {

/// Tracer configuration. A zero sample rate disables tracing entirely: no
/// buffers are allocated and every hot-path site reduces to one branch.
struct TracerOptions {
  /// Fraction of transactions to trace, in [0, 1]. Background passes
  /// (checkpoints, audit sweeps, recovery) are always traced once the
  /// tracer is enabled — they are rare and each one is interesting.
  double sample_rate = 0.0;
  /// Seed for the deterministic sampler: the same seed and the same
  /// candidate sequence yield the same sampling decisions, so traced runs
  /// are reproducible.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Capacity of each per-thread span ring (rounded up to a power of two).
  /// The rings are the bounded in-memory store: old spans are overwritten
  /// in place once a ring wraps.
  size_t ring_capacity = 4096;
};

/// Sampling span tracer. One per MetricsRegistry (i.e. per Database).
///
/// Writers publish completed spans into one of a fixed set of SeqRings —
/// each thread is assigned a ring round-robin at first use and sticks to
/// it, so concurrent committers never touch the same slot. Snapshot()
/// merges the rings, dropping slots a writer lapped mid-copy.
///
/// Sampling is deterministic: candidate n is traced iff
/// splitmix64(seed ^ n) < rate * 2^64, so a fixed seed replays the same
/// decision sequence. Trace and span ids are process-lifetime ordinals.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Enables the tracer. Must be called before any span can be recorded
  /// and at most once, before concurrent use (the Database configures its
  /// tracer during Open, before transactions exist).
  void Configure(const TracerOptions& options);

  /// Single relaxed load — the whole cost of the tracing layer when
  /// disabled.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Sampling decision for the next transaction: an unsampled (default)
  /// context when disabled or the sampler says no; otherwise a context
  /// with a fresh trace id whose parent is the root span id passed back
  /// via `root_span_id` (the caller records the root span itself when the
  /// transaction retires).
  SpanContext MaybeStartTrace(uint64_t* root_span_id);

  /// Starts a trace unconditionally (background passes). Unsampled when
  /// the tracer is disabled.
  SpanContext StartForcedTrace(uint64_t* root_span_id);

  /// Allocates a span id without recording anything — for sites that need
  /// to hand a parent id to another thread before the span completes
  /// (the flush-wait span parents the drainer-side spans).
  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Publishes one completed span as a child of `ctx.span_id`.
  void Record(const SpanContext& ctx, SpanKind kind, uint64_t start_ns,
              uint64_t end_ns, uint64_t a = 0, uint64_t b = 0);

  /// Publishes a completed span under a pre-allocated id (NewSpanId) so
  /// children recorded elsewhere can already reference it.
  void RecordWithId(const SpanContext& ctx, uint64_t span_id, SpanKind kind,
                    uint64_t start_ns, uint64_t end_ns, uint64_t a = 0,
                    uint64_t b = 0);

  /// Consistent published spans currently resident across all rings,
  /// ascending start_ns.
  std::vector<SpanRecord> Snapshot() const;

  /// Total spans ever recorded (the excess over Snapshot().size() wrapped).
  uint64_t recorded() const;

  /// The calling thread's ambient span context (unsampled by default).
  /// Lets deep sites — the lock manager's blocking path — attach spans
  /// without threading a context through every signature.
  static SpanContext Current();

  static constexpr size_t kRings = 16;

 private:
  friend class ScopedSpanContext;

  size_t RingIndex() const;
  SpanContext StartTraceLockedFree(uint64_t* root_span_id);

  std::atomic<bool> enabled_{false};
  uint64_t sample_threshold_ = 0;  ///< Sample iff hash < threshold.
  uint64_t seed_ = 0;
  std::atomic<uint64_t> candidates_{0};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> next_span_id_{1};
  std::vector<std::unique_ptr<SeqRing<SpanRecord>>> rings_;
};

/// RAII installer for the thread's ambient context (Tracer::Current).
/// Installed around code whose callees may record spans against the
/// current transaction without having a Transaction* in scope.
class ScopedSpanContext {
 public:
  explicit ScopedSpanContext(const SpanContext& ctx);
  ~ScopedSpanContext();
  ScopedSpanContext(const ScopedSpanContext&) = delete;
  ScopedSpanContext& operator=(const ScopedSpanContext&) = delete;

 private:
  SpanContext prev_;
};

/// RAII span: stamps the clock at construction and records at destruction
/// when the context is sampled (and the clock is only read when it is).
class ScopedSpan {
 public:
  ScopedSpan(const SpanContext& ctx, SpanKind kind, uint64_t a = 0,
             uint64_t b = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_payload(uint64_t a, uint64_t b) {
    a_ = a;
    b_ = b;
  }

 private:
  SpanContext ctx_;
  SpanKind kind_;
  uint64_t start_ns_ = 0;
  uint64_t a_;
  uint64_t b_;
};

}  // namespace cwdb

#endif  // CWDB_OBS_TRACER_H_
