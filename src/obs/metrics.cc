#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common/json.h"

namespace cwdb {

std::string FormatWallNs(uint64_t wall_ns) {
  if (wall_ns == 0) return "unknown";
  time_t secs = static_cast<time_t>(wall_ns / 1000000000ull);
  unsigned millis = static_cast<unsigned>((wall_ns % 1000000000ull) / 1000000);
  struct tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03uZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec, millis);
  return buf;
}

size_t Counter::ThreadShard() {
  static std::atomic<size_t> next_thread{0};
  thread_local size_t shard =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

size_t Histogram::BucketOf(uint64_t value) {
  // bit_width(v) is 64 for v >= 2^63; those share the saturated top bucket.
  const size_t w = static_cast<size_t>(std::bit_width(value));
  return w < kBuckets ? w : kBuckets - 1;
}

void Histogram::Record(uint64_t value) {
  counts_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  uint64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::BucketQuantile(const uint64_t (&buckets)[kBuckets],
                                   uint64_t count, double q) {
  if (count == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return BucketUpperBound(i);
  }
  return BucketUpperBound(kBuckets - 1);
}

Histogram::Snapshot Histogram::Capture() const {
  Snapshot s;
  for (size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = counts_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  uint64_t min = min_.load(std::memory_order_relaxed);
  s.min = (s.count == 0 || min == UINT64_MAX) ? 0 : min;
  s.p50 = s.Quantile(0.50);
  s.p95 = s.Quantile(0.95);
  s.p99 = s.Quantile(0.99);
  return s;
}

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> guard(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Capture() const {
  MetricsSnapshot snap;
  snap.captured_mono_ns = NowNs();
  snap.captured_wall_ns = WallNowNs();
  snap.boot_mono_ns = boot_mono_ns_;
  snap.boot_wall_ns = boot_wall_ns_;
  {
    std::lock_guard<std::mutex> guard(mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.emplace_back(name, c->Value());
    }
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
      snap.gauges.emplace_back(name, g->Value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
      snap.histograms.push_back(HistogramSnapshot{name, h->Capture()});
    }
  }
  snap.events = trace_.Snapshot();
  return snap;
}

void MetricsRegistry::Reset(std::string_view prefix) {
  std::lock_guard<std::mutex> guard(mu_);
  for (auto& [name, c] : counters_) {
    if (name.compare(0, prefix.size(), prefix) == 0) c->Reset();
  }
  for (auto& [name, h] : histograms_) {
    if (name.compare(0, prefix.size(), prefix) == 0) h->Reset();
  }
}

void MetricsRegistry::NoteInjectedFault(uint64_t off, uint64_t len) {
  std::lock_guard<std::mutex> guard(faults_mu_);
  if (pending_faults_.size() >= kMaxPendingFaults) {
    pending_faults_.erase(pending_faults_.begin());
  }
  pending_faults_.push_back(PendingFault{off, len, NowNs()});
}

size_t MetricsRegistry::NoteDetection(uint64_t off, uint64_t len) {
  std::vector<uint64_t> latencies;
  {
    std::lock_guard<std::mutex> guard(faults_mu_);
    uint64_t now = NowNs();
    for (auto it = pending_faults_.begin(); it != pending_faults_.end();) {
      bool overlaps = it->off < off + len && off < it->off + it->len;
      if (overlaps) {
        latencies.push_back(std::max<uint64_t>(1, now - it->t_ns));
        it = pending_faults_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (!latencies.empty()) {
    Histogram* h = histogram("protect.detection_latency_ns");
    for (uint64_t ns : latencies) h->Record(ns);
  }
  return latencies.size();
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n";
  Appendf(&out, "  \"schema_version\": %u,\n", kSchemaVersion);
  Appendf(&out,
          "  \"captured_mono_ns\": %" PRIu64 ",\n  \"captured_wall_ns\": %" PRIu64
          ",\n  \"boot_mono_ns\": %" PRIu64 ",\n  \"boot_wall_ns\": %" PRIu64
          ",\n",
          captured_mono_ns, captured_wall_ns, boot_mono_ns, boot_wall_ns);
  out += "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    Appendf(&out, "%s\n    \"%s\": %" PRIu64, first ? "" : ",", name.c_str(),
            v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    Appendf(&out, "%s\n    \"%s\": %" PRId64, first ? "" : ",", name.c_str(),
            v);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& hs : histograms) {
    Appendf(&out,
            "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
            ", \"min\": %" PRIu64 ", \"p50\": %" PRIu64 ", \"p95\": %" PRIu64
            ", \"p99\": %" PRIu64 ", \"max\": %" PRIu64 "}",
            first ? "" : ",", hs.name.c_str(), hs.h.count, hs.h.sum, hs.h.min,
            hs.h.p50, hs.h.p95, hs.h.p99, hs.h.max);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"events\": [";
  first = true;
  for (const TraceEvent& e : events) {
    Appendf(&out,
            "%s\n    {\"seq\": %" PRIu64 ", \"t_ns\": %" PRIu64
            ", \"wall_ns\": %" PRIu64 ", \"type\": \"%s\", \"lsn\": %" PRIu64
            ", \"a\": %" PRIu64 ", \"b\": %" PRIu64,
            first ? "" : ",", e.seq, e.t_ns, WallFromMono(e.t_ns),
            TraceEventTypeName(e.type), e.lsn, e.a, e.b);
    if (e.shard != kNoTraceShard) {
      Appendf(&out, ", \"shard\": %" PRIu64, e.shard);
    }
    out += "}";
    first = false;
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, v] : counters) {
    Appendf(&out, "%-36s %20" PRIu64 "\n", name.c_str(), v);
  }
  for (const auto& [name, v] : gauges) {
    Appendf(&out, "%-36s %20" PRId64 "\n", name.c_str(), v);
  }
  for (const HistogramSnapshot& hs : histograms) {
    Appendf(&out,
            "%-36s n=%" PRIu64 " p50=%" PRIu64 " p95=%" PRIu64 " p99=%" PRIu64
            " max=%" PRIu64 "\n",
            hs.name.c_str(), hs.h.count, hs.h.p50, hs.h.p95, hs.h.p99,
            hs.h.max);
  }
  for (const TraceEvent& e : events) {
    Appendf(&out,
            "event %-8" PRIu64 " +%.3fms %-20s lsn=%" PRIu64 " a=%" PRIu64
            " b=%" PRIu64 "\n",
            e.seq, static_cast<double>(e.t_ns) / 1e6,
            TraceEventTypeName(e.type), e.lsn, e.a, e.b);
  }
  return out;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

int64_t MetricsSnapshot::GaugeValue(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSnapshot& hs : histograms) {
    if (hs.name == name) return &hs;
  }
  return nullptr;
}

}  // namespace cwdb
