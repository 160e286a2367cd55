#include "obs/tracer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"

namespace cwdb {

namespace {

/// splitmix64 finalizer: a cheap, well-distributed 64-bit mixer. Feeding it
/// seed ^ candidate-index gives an i.i.d.-looking but fully deterministic
/// sampling sequence.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Per-thread ordinal, for the exported Perfetto tid. Ordinals are small
/// and stable for the life of the thread.
uint32_t ThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t ord = next.fetch_add(1, std::memory_order_relaxed);
  return ord;
}

thread_local SpanContext g_current_ctx;

}  // namespace

void Tracer::Configure(const TracerOptions& options) {
  CWDB_CHECK(rings_.empty()) << "Tracer::Configure called twice";
  if (options.sample_rate <= 0.0) return;
  seed_ = options.seed;
  double rate = std::min(options.sample_rate, 1.0);
  sample_threshold_ =
      rate >= 1.0 ? UINT64_MAX
                  : static_cast<uint64_t>(
                        rate * static_cast<double>(UINT64_MAX));
  size_t cap = RoundUpPow2(std::max<size_t>(options.ring_capacity, 64));
  rings_.reserve(kRings);
  for (size_t i = 0; i < kRings; ++i) {
    rings_.push_back(std::make_unique<SeqRing<SpanRecord>>(cap));
  }
  enabled_.store(true, std::memory_order_release);
}

size_t Tracer::RingIndex() const {
  // Same sticky round-robin assignment Counter::ThreadShard uses: each
  // thread picks the next ring at first use and keeps it, so committers on
  // different threads publish into disjoint rings.
  static std::atomic<size_t> next{0};
  thread_local size_t ring = next.fetch_add(1, std::memory_order_relaxed);
  return ring % kRings;
}

SpanContext Tracer::StartTraceLockedFree(uint64_t* root_span_id) {
  SpanContext ctx;
  ctx.tracer = this;
  ctx.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  *root_span_id = ctx.span_id;
  return ctx;
}

SpanContext Tracer::MaybeStartTrace(uint64_t* root_span_id) {
  if (!enabled()) return SpanContext{};
  uint64_t n = candidates_.fetch_add(1, std::memory_order_relaxed);
  if (Mix64(seed_ ^ n) >= sample_threshold_) return SpanContext{};
  return StartTraceLockedFree(root_span_id);
}

SpanContext Tracer::StartForcedTrace(uint64_t* root_span_id) {
  if (!enabled()) return SpanContext{};
  return StartTraceLockedFree(root_span_id);
}

void Tracer::Record(const SpanContext& ctx, SpanKind kind, uint64_t start_ns,
                    uint64_t end_ns, uint64_t a, uint64_t b) {
  RecordWithId(ctx, next_span_id_.fetch_add(1, std::memory_order_relaxed),
               kind, start_ns, end_ns, a, b);
}

void Tracer::RecordWithId(const SpanContext& ctx, uint64_t span_id,
                          SpanKind kind, uint64_t start_ns, uint64_t end_ns,
                          uint64_t a, uint64_t b) {
  if (!ctx.sampled()) return;
  SpanRecord r;
  r.trace_id = ctx.trace_id;
  r.span_id = span_id;
  r.parent_id = ctx.span_id;
  r.start_ns = start_ns;
  r.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  r.a = a;
  r.b = b;
  r.tid = ThreadOrdinal();
  r.kind = kind;
  rings_[RingIndex()]->Push(r);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> out;
  for (const auto& ring : rings_) {
    ring->ForEach(
        [&out](uint64_t, const SpanRecord& r) { out.push_back(r); });
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& x, const SpanRecord& y) {
              return x.start_ns != y.start_ns ? x.start_ns < y.start_ns
                                              : x.span_id < y.span_id;
            });
  return out;
}

uint64_t Tracer::recorded() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->pushed();
  return total;
}

SpanContext Tracer::Current() { return g_current_ctx; }

ScopedSpanContext::ScopedSpanContext(const SpanContext& ctx)
    : prev_(g_current_ctx) {
  g_current_ctx = ctx;
}

ScopedSpanContext::~ScopedSpanContext() { g_current_ctx = prev_; }

ScopedSpan::ScopedSpan(const SpanContext& ctx, SpanKind kind, uint64_t a,
                       uint64_t b)
    : ctx_(ctx), kind_(kind), a_(a), b_(b) {
  if (ctx_.sampled()) start_ns_ = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (ctx_.sampled()) {
    ctx_.tracer->Record(ctx_, kind_, start_ns_, NowNs(), a_, b_);
  }
}

}  // namespace cwdb
