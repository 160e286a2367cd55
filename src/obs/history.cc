#include "obs/history.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/slice.h"

namespace cwdb {

// ---------------------------------------------------------------------------
// ScrubMap

ScrubMap::ScrubMap(MetricsRegistry* metrics,
                   const std::vector<uint64_t>& shard_lens)
    : metrics_(metrics),
      birth_mono_ns_(NowNs()),
      max_age_ms_(metrics->gauge("scrub.max_age_ms")) {
  shards_.resize(shard_lens.size());
  gauges_.resize(shard_lens.size());
  char name[64];
  for (size_t s = 0; s < shard_lens.size(); ++s) {
    shards_[s].shard_len = shard_lens[s];
    std::snprintf(name, sizeof(name), "scrub.shard%zu.last_pass_wall_ms", s);
    gauges_[s].last_pass_wall_ms = metrics->gauge(name);
    std::snprintf(name, sizeof(name), "scrub.shard%zu.last_audit_lsn", s);
    gauges_[s].last_audit_lsn = metrics->gauge(name);
    std::snprintf(name, sizeof(name), "scrub.shard%zu.cursor_pct", s);
    gauges_[s].cursor_pct = metrics->gauge(name);
  }
}

void ScrubMap::NoteSlice(size_t shard, uint64_t cursor_off, uint64_t lsn) {
  if (shard >= shards_.size()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& st = shards_[shard];
  st.cursor_off = cursor_off;
  st.slices++;
  (void)lsn;  // The pass-completion LSN is what certifies; slices just move.
  gauges_[shard].cursor_pct->Set(
      st.shard_len == 0
          ? 0
          : static_cast<int64_t>(cursor_off * 100 / st.shard_len));
}

void ScrubMap::NotePassComplete(size_t shard, uint64_t lsn) {
  if (shard >= shards_.size()) return;
  uint64_t mono = NowNs();
  uint64_t wall = metrics_->WallFromMono(mono);
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& st = shards_[shard];
  st.last_pass_mono_ns = mono;
  st.last_pass_wall_ns = wall;
  st.last_audit_lsn = lsn;
  st.cursor_off = 0;
  gauges_[shard].last_pass_wall_ms->Set(
      static_cast<int64_t>(wall / 1000000));
  gauges_[shard].last_audit_lsn->Set(static_cast<int64_t>(lsn));
  gauges_[shard].cursor_pct->Set(0);
}

void ScrubMap::NoteFullAudit(uint64_t lsn) {
  for (size_t s = 0; s < shards_.size(); ++s) NotePassComplete(s, lsn);
  UpdateGauges(NowNs());
}

std::vector<ScrubMap::ShardState> ScrubMap::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_;
}

uint64_t ScrubMap::AgeNsLocked(size_t shard, uint64_t now_mono) const {
  uint64_t anchor = shards_[shard].last_pass_mono_ns;
  if (anchor == 0) anchor = birth_mono_ns_;
  return now_mono > anchor ? now_mono - anchor : 0;
}

uint64_t ScrubMap::AgeNs(size_t shard, uint64_t now_mono) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard >= shards_.size()) return 0;
  return AgeNsLocked(shard, now_mono);
}

uint64_t ScrubMap::MaxAgeNs(uint64_t now_mono) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t max_age = 0;
  for (size_t s = 0; s < shards_.size(); ++s)
    max_age = std::max(max_age, AgeNsLocked(s, now_mono));
  return max_age;
}

void ScrubMap::UpdateGauges(uint64_t now_mono) {
  max_age_ms_->Set(static_cast<int64_t>(MaxAgeNs(now_mono) / 1000000));
}

// ---------------------------------------------------------------------------
// MetricsHistory — persistence format
//
//   "CWHIST01"                                    8-byte magic
//   repeated records:  [u32 len][u32 crc32c(payload)][payload]
//     payload = [u8 type][body]
//       kNamesRecord: [u8 section][varint n][n * length-prefixed name]
//                     (appended to that section's name table)
//       kSampleRecord, delta-coded against the previous sample record:
//         [varint d_mono_ns][svarint d_wall_ns]
//         [varint nc][nc * svarint counter delta]
//         [varint ng][ng * svarint gauge delta]
//         [varint nh][nh * ([svarint d_count][svarint d_sum]
//                           [varint nb][nb * ([u8 bucket][svarint d_val])])]
//         The first sample deltas against an all-zero sample, so its
//         "deltas" are absolute values. Histogram bucket deltas are sparse:
//         only buckets whose value changed are present.
//
// The loader keeps every record up to the first frame whose length runs
// past EOF or whose CRC mismatches — the torn-write contract shared with
// the WAL tail.

namespace {

constexpr char kHistoryMagic[8] = {'C', 'W', 'H', 'I', 'S', 'T', '0', '1'};
constexpr uint8_t kNamesRecord = 1;
constexpr uint8_t kSampleRecord = 2;

void AppendRecord(std::string* out, const std::string& payload) {
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  PutFixed32(out, Crc32c(payload.data(), payload.size()));
  out->append(payload);
}

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ull) {
    std::snprintf(buf, sizeof(buf), "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "ns", ns);
  }
  return buf;
}

/// Eight-level unicode sparkline of `vals`, empty values rendered as the
/// lowest bar. All-equal series render mid-height.
std::string Sparkline(const std::vector<double>& vals) {
  static const char* kBars[8] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  if (vals.empty()) return "";
  double lo = vals[0], hi = vals[0];
  for (double v : vals) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (double v : vals) {
    int level = 3;
    if (hi > lo)
      level = static_cast<int>((v - lo) / (hi - lo) * 7.0 + 0.5);
    out += kBars[std::clamp(level, 0, 7)];
  }
  return out;
}

/// "500ms" / "60s" / "5m" / plain seconds → nanoseconds; 0 on a parse
/// error or a window whose nanoseconds do not fit in 64 bits.
uint64_t ParseWindow(std::string_view s) {
  size_t i = 0;
  uint64_t n = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    if (__builtin_mul_overflow(n, 10, &n) ||
        __builtin_add_overflow(n, static_cast<uint64_t>(s[i] - '0'), &n)) {
      return 0;
    }
    ++i;
  }
  if (i == 0) return 0;
  std::string_view unit = s.substr(i);
  uint64_t ns_per_unit;
  if (unit == "ms") {
    ns_per_unit = 1000000ull;
  } else if (unit == "s" || unit.empty()) {
    ns_per_unit = 1000000000ull;
  } else if (unit == "m") {
    ns_per_unit = 60ull * 1000000000ull;
  } else if (unit == "h") {
    ns_per_unit = 3600ull * 1000000000ull;
  } else {
    return 0;
  }
  uint64_t ns;
  return __builtin_mul_overflow(n, ns_per_unit, &ns) ? 0 : ns;
}

}  // namespace

uint64_t MetricsHistory::WindowedHist::CountAbove(uint64_t threshold) const {
  size_t b = Histogram::BucketOf(threshold);
  uint64_t n = 0;
  for (size_t i = b + 1; i < Histogram::kBuckets; ++i) n += buckets[i];
  return n;
}

MetricsHistory::MetricsHistory(MetricsRegistry* registry,
                               HistoryOptions options)
    : registry_(registry), options_(options) {}

void MetricsHistory::SampleNow() {
  if (registry_ == nullptr) return;
  MetricsSnapshot snap = registry_->Capture();
  Sample sample;
  sample.mono_ns = snap.captured_mono_ns;
  sample.wall_ns = snap.captured_wall_ns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Align the snapshot's (sorted) instruments with the append-only name
    // tables. Names the tables don't know yet are appended; names the
    // snapshot lacks (never happens today — instruments are never removed)
    // would read as their previous value staying flat, which value vectors
    // of the right length can't express, so fill with 0.
    sample.counters.assign(counter_names_.size(), 0);
    for (const auto& [name, value] : snap.counters) {
      int idx = FindName(counter_names_, name);
      if (idx < 0) {
        counter_names_.push_back(name);
        sample.counters.push_back(value);
      } else {
        sample.counters[static_cast<size_t>(idx)] = value;
      }
    }
    sample.gauges.assign(gauge_names_.size(), 0);
    for (const auto& [name, value] : snap.gauges) {
      int idx = FindName(gauge_names_, name);
      if (idx < 0) {
        gauge_names_.push_back(name);
        sample.gauges.push_back(value);
      } else {
        sample.gauges[static_cast<size_t>(idx)] = value;
      }
    }
    sample.hists.assign(hist_names_.size(), HistPoint{});
    for (const HistogramSnapshot& hs : snap.histograms) {
      HistPoint hp;
      hp.count = hs.h.count;
      hp.sum = hs.h.sum;
      for (size_t i = 0; i < Histogram::kBuckets; ++i)
        if (hs.h.buckets[i] != 0)
          hp.buckets.emplace_back(static_cast<uint8_t>(i), hs.h.buckets[i]);
      int idx = FindName(hist_names_, hs.name);
      if (idx < 0) {
        hist_names_.push_back(hs.name);
        sample.hists.push_back(std::move(hp));
      } else {
        sample.hists[static_cast<size_t>(idx)] = std::move(hp);
      }
    }
    AppendSampleLocked(std::move(sample));
    samples_taken_++;
  }
}

void MetricsHistory::AppendSampleLocked(Sample sample) {
  ring_.push_back(std::move(sample));
  while (ring_.size() > options_.retention) ring_.pop_front();
}

size_t MetricsHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

uint64_t MetricsHistory::LatestMono() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.empty() ? 0 : ring_.back().mono_ns;
}

size_t MetricsHistory::LowerBoundLocked(uint64_t cutoff_mono) const {
  size_t lo = 0, hi = ring_.size();
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (ring_[mid].mono_ns < cutoff_mono)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

int MetricsHistory::FindName(const std::vector<std::string>& names,
                             std::string_view name) const {
  for (size_t i = 0; i < names.size(); ++i)
    if (names[i] == name) return static_cast<int>(i);
  return -1;
}

void MetricsHistory::FillBuckets(const HistPoint& h,
                                 uint64_t (&out)[Histogram::kBuckets]) {
  std::memset(out, 0, sizeof(out));
  for (const auto& [idx, val] : h.buckets)
    if (idx < Histogram::kBuckets) out[idx] = val;
}

MetricsHistory::MetricType MetricsHistory::TypeOf(
    std::string_view metric) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (FindName(counter_names_, metric) >= 0) return MetricType::kCounter;
  if (FindName(gauge_names_, metric) >= 0) return MetricType::kGauge;
  if (FindName(hist_names_, metric) >= 0) return MetricType::kHistogram;
  return MetricType::kNone;
}

std::vector<MetricsHistory::Point> MetricsHistory::Series(
    std::string_view metric, uint64_t window_ns, uint64_t now_mono) const {
  std::vector<Point> out;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t cutoff = now_mono > window_ns ? now_mono - window_ns : 0;
  size_t start = LowerBoundLocked(cutoff);
  int cidx = FindName(counter_names_, metric);
  int gidx = cidx < 0 ? FindName(gauge_names_, metric) : -1;
  int hidx = (cidx < 0 && gidx < 0) ? FindName(hist_names_, metric) : -1;
  if (cidx < 0 && gidx < 0 && hidx < 0) return out;
  for (size_t i = start; i < ring_.size(); ++i) {
    const Sample& s = ring_[i];
    Point p;
    p.mono_ns = s.mono_ns;
    p.wall_ns = s.wall_ns;
    if (cidx >= 0) {
      size_t j = static_cast<size_t>(cidx);
      p.value = j < s.counters.size()
                    ? static_cast<double>(s.counters[j])
                    : 0;
    } else if (gidx >= 0) {
      size_t j = static_cast<size_t>(gidx);
      p.value = j < s.gauges.size() ? static_cast<double>(s.gauges[j]) : 0;
    } else {
      size_t j = static_cast<size_t>(hidx);
      p.value = j < s.hists.size() ? static_cast<double>(s.hists[j].count)
                                   : 0;
    }
    out.push_back(p);
  }
  return out;
}

double MetricsHistory::Rate(std::string_view metric, uint64_t window_ns,
                            uint64_t now_mono) const {
  std::vector<Point> pts = Series(metric, window_ns, now_mono);
  if (pts.size() < 2) return 0;
  const Point& a = pts.front();
  const Point& b = pts.back();
  if (b.mono_ns <= a.mono_ns) return 0;
  double dt_s = static_cast<double>(b.mono_ns - a.mono_ns) / 1e9;
  return (b.value - a.value) / dt_s;
}

bool MetricsHistory::Windowed(std::string_view metric, uint64_t window_ns,
                              uint64_t now_mono, WindowedHist* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  int hidx = FindName(hist_names_, metric);
  if (hidx < 0 || ring_.size() < 2) return false;
  uint64_t cutoff = now_mono > window_ns ? now_mono - window_ns : 0;
  size_t start = LowerBoundLocked(cutoff);
  if (start >= ring_.size()) return false;
  // Diff against the sample just *before* the window when one exists, so a
  // window covering the whole ring still has a baseline (all-zero implicit
  // baseline for the ring's first sample).
  const Sample& newest = ring_.back();
  size_t j = static_cast<size_t>(hidx);
  HistPoint zero;
  const HistPoint& hi_h =
      j < newest.hists.size() ? newest.hists[j] : zero;
  const HistPoint& lo_h = start == 0
                              ? zero
                              : (j < ring_[start - 1].hists.size()
                                     ? ring_[start - 1].hists[j]
                                     : zero);
  uint64_t hi_b[Histogram::kBuckets], lo_b[Histogram::kBuckets];
  FillBuckets(hi_h, hi_b);
  FillBuckets(lo_h, lo_b);
  *out = WindowedHist{};
  out->count = hi_h.count >= lo_h.count ? hi_h.count - lo_h.count : 0;
  out->sum = hi_h.sum >= lo_h.sum ? hi_h.sum - lo_h.sum : 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i)
    out->buckets[i] = hi_b[i] >= lo_b[i] ? hi_b[i] - lo_b[i] : 0;
  return true;
}

bool MetricsHistory::Latest(std::string_view metric, double* value) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) return false;
  const Sample& s = ring_.back();
  int idx = FindName(counter_names_, metric);
  if (idx >= 0) {
    size_t j = static_cast<size_t>(idx);
    *value = j < s.counters.size() ? static_cast<double>(s.counters[j]) : 0;
    return true;
  }
  idx = FindName(gauge_names_, metric);
  if (idx >= 0) {
    size_t j = static_cast<size_t>(idx);
    *value = j < s.gauges.size() ? static_cast<double>(s.gauges[j]) : 0;
    return true;
  }
  return false;
}

Result<std::string> MetricsHistory::QueryJson(std::string_view query) const {
  std::string metric;
  std::string window_str = "60s";
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    if (amp == std::string_view::npos) amp = query.size();
    std::string_view kv = query.substr(pos, amp - pos);
    pos = amp + 1;
    size_t eq = kv.find('=');
    if (eq == std::string_view::npos) continue;
    std::string_view key = kv.substr(0, eq);
    std::string_view val = kv.substr(eq + 1);
    if (key == "metric")
      metric.assign(val);
    else if (key == "window")
      window_str.assign(val);
  }
  if (metric.empty())
    return Status::InvalidArgument("query: missing metric=<name>");
  uint64_t window_ns = ParseWindow(window_str);
  if (window_ns == 0)
    return Status::InvalidArgument("query: bad window '" + window_str +
                                   "' (want e.g. 500ms, 60s, 5m)");
  MetricType type = TypeOf(metric);
  if (type == MetricType::kNone)
    return Status::InvalidArgument("query: unknown metric '" + metric + "'");

  uint64_t now_mono;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty())
      return Status::InvalidArgument("query: history is empty");
    now_mono = ring_.back().mono_ns;
  }
  std::vector<Point> pts = Series(metric, window_ns, now_mono);

  const char* type_name = type == MetricType::kCounter   ? "counter"
                          : type == MetricType::kGauge   ? "gauge"
                                                         : "histogram";
  char buf[160];
  std::string out = "{\n";
  out += "  \"metric\": " + JsonQuote(metric) + ",\n";
  out += std::string("  \"type\": \"") + type_name + "\",\n";
  std::snprintf(buf, sizeof(buf), "  \"window_ns\": %" PRIu64 ",\n",
                window_ns);
  out += buf;
  std::snprintf(buf, sizeof(buf), "  \"samples\": %zu,\n", pts.size());
  out += buf;
  if (type == MetricType::kCounter) {
    std::snprintf(buf, sizeof(buf), "  \"rate_per_s\": %.6g,\n",
                  Rate(metric, window_ns, now_mono));
    out += buf;
  }
  if (type == MetricType::kHistogram) {
    WindowedHist wh;
    if (Windowed(metric, window_ns, now_mono, &wh)) {
      std::snprintf(buf, sizeof(buf),
                    "  \"windowed\": {\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                    ", \"p50\": %" PRIu64 ", \"p95\": %" PRIu64
                    ", \"p99\": %" PRIu64 "},\n",
                    wh.count, wh.sum, wh.Quantile(0.50), wh.Quantile(0.95),
                    wh.Quantile(0.99));
      out += buf;
    }
  }
  out += "  \"points\": [";
  for (size_t i = 0; i < pts.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"wall_ms\": %" PRIu64 ", \"value\": %.6g}",
                  i == 0 ? "" : ",", pts[i].wall_ns / 1000000, pts[i].value);
    out += buf;
  }
  out += pts.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Persistence

Status MetricsHistory::SaveTo(const std::string& path) const {
  std::string data(kHistoryMagic, sizeof(kHistoryMagic));
  std::lock_guard<std::mutex> lock(mu_);
  for (uint8_t section = 0; section < 3; ++section) {
    const std::vector<std::string>& names =
        section == 0 ? counter_names_
                     : (section == 1 ? gauge_names_ : hist_names_);
    if (names.empty()) continue;
    std::string payload;
    PutFixed8(&payload, kNamesRecord);
    PutFixed8(&payload, section);
    PutVarint64(&payload, names.size());
    for (const std::string& n : names) PutLengthPrefixed(&payload, Slice(n));
    AppendRecord(&data, payload);
  }
  Sample prev;  // All-zero baseline for the first sample.
  for (const Sample& s : ring_) {
    std::string payload;
    PutFixed8(&payload, kSampleRecord);
    PutVarint64(&payload, s.mono_ns - prev.mono_ns);
    PutVarintSigned(&payload, static_cast<int64_t>(s.wall_ns) -
                                  static_cast<int64_t>(prev.wall_ns));
    PutVarint64(&payload, s.counters.size());
    for (size_t i = 0; i < s.counters.size(); ++i) {
      uint64_t p = i < prev.counters.size() ? prev.counters[i] : 0;
      PutVarintSigned(&payload, static_cast<int64_t>(s.counters[i]) -
                                    static_cast<int64_t>(p));
    }
    PutVarint64(&payload, s.gauges.size());
    for (size_t i = 0; i < s.gauges.size(); ++i) {
      int64_t p = i < prev.gauges.size() ? prev.gauges[i] : 0;
      PutVarintSigned(&payload, s.gauges[i] - p);
    }
    PutVarint64(&payload, s.hists.size());
    for (size_t i = 0; i < s.hists.size(); ++i) {
      static const HistPoint kZero;
      const HistPoint& cur = s.hists[i];
      const HistPoint& p = i < prev.hists.size() ? prev.hists[i] : kZero;
      PutVarintSigned(&payload, static_cast<int64_t>(cur.count) -
                                    static_cast<int64_t>(p.count));
      PutVarintSigned(&payload, static_cast<int64_t>(cur.sum) -
                                    static_cast<int64_t>(p.sum));
      uint64_t cb[Histogram::kBuckets], pb[Histogram::kBuckets];
      FillBuckets(cur, cb);
      FillBuckets(p, pb);
      std::string deltas;
      uint64_t nb = 0;
      for (size_t b = 0; b < Histogram::kBuckets; ++b) {
        if (cb[b] == pb[b]) continue;
        PutFixed8(&deltas, static_cast<uint8_t>(b));
        PutVarintSigned(&deltas, static_cast<int64_t>(cb[b]) -
                                     static_cast<int64_t>(pb[b]));
        nb++;
      }
      PutVarint64(&payload, nb);
      payload += deltas;
    }
    AppendRecord(&data, payload);
    prev = s;
  }
  return WriteFileAtomic(path, data, "obs.history");
}

Status MetricsHistory::LoadFrom(const std::string& path) {
  std::string data;
  Status s =
      ReadFileToString(path, &data, MissingFile::kTreatAsEmpty);
  if (!s.ok()) return s;
  LoadFromBuffer(data);
  return Status::OK();
}

void MetricsHistory::LoadFromBuffer(const std::string& data) {
  std::vector<std::string> counters, gauges, hists;
  std::deque<Sample> ring;

  if (data.size() >= sizeof(kHistoryMagic) &&
      std::memcmp(data.data(), kHistoryMagic, sizeof(kHistoryMagic)) == 0) {
    size_t off = sizeof(kHistoryMagic);
    Sample prev;
    while (off + 8 <= data.size()) {
      uint32_t len = DecodeFixed32(data.data() + off);
      uint32_t crc = DecodeFixed32(data.data() + off + 4);
      if (off + 8 + len > data.size()) break;  // Torn tail.
      const char* payload = data.data() + off + 8;
      if (Crc32c(payload, len) != crc) break;  // Bit-flipped record.
      Decoder dec(Slice(payload, len));
      uint8_t type = dec.GetFixed8();
      if (type == kNamesRecord) {
        uint8_t section = dec.GetFixed8();
        uint64_t n = dec.GetVarint64();
        std::vector<std::string>* names =
            section == 0 ? &counters
                         : (section == 1 ? &gauges
                                         : (section == 2 ? &hists : nullptr));
        if (names == nullptr) break;
        for (uint64_t i = 0; i < n && dec.ok(); ++i) {
          Slice name = dec.GetLengthPrefixed();
          if (dec.ok()) names->emplace_back(name.data(), name.size());
        }
        if (!dec.ok()) break;
      } else if (type == kSampleRecord) {
        Sample cur;
        cur.mono_ns = prev.mono_ns + dec.GetVarint64();
        cur.wall_ns = static_cast<uint64_t>(
            static_cast<int64_t>(prev.wall_ns) + dec.GetVarintSigned());
        uint64_t nc = dec.GetVarint64();
        if (!dec.ok() || nc > counters.size()) break;
        cur.counters.resize(nc);
        for (uint64_t i = 0; i < nc; ++i) {
          int64_t p = i < prev.counters.size()
                          ? static_cast<int64_t>(prev.counters[i])
                          : 0;
          cur.counters[i] =
              static_cast<uint64_t>(p + dec.GetVarintSigned());
        }
        uint64_t ng = dec.GetVarint64();
        if (!dec.ok() || ng > gauges.size()) break;
        cur.gauges.resize(ng);
        for (uint64_t i = 0; i < ng; ++i) {
          int64_t p = i < prev.gauges.size() ? prev.gauges[i] : 0;
          cur.gauges[i] = p + dec.GetVarintSigned();
        }
        uint64_t nh = dec.GetVarint64();
        if (!dec.ok() || nh > hists.size()) break;
        cur.hists.resize(nh);
        bool bad = false;
        for (uint64_t i = 0; i < nh && !bad; ++i) {
          static const HistPoint kZero;
          const HistPoint& p = i < prev.hists.size() ? prev.hists[i] : kZero;
          HistPoint& h = cur.hists[i];
          h.count = static_cast<uint64_t>(static_cast<int64_t>(p.count) +
                                          dec.GetVarintSigned());
          h.sum = static_cast<uint64_t>(static_cast<int64_t>(p.sum) +
                                        dec.GetVarintSigned());
          uint64_t nb = dec.GetVarint64();
          if (!dec.ok() || nb > Histogram::kBuckets) {
            bad = true;
            break;
          }
          uint64_t buckets[Histogram::kBuckets];
          FillBuckets(p, buckets);
          for (uint64_t b = 0; b < nb; ++b) {
            uint8_t idx = dec.GetFixed8();
            int64_t d = dec.GetVarintSigned();
            if (idx >= Histogram::kBuckets) {
              bad = true;
              break;
            }
            buckets[idx] =
                static_cast<uint64_t>(static_cast<int64_t>(buckets[idx]) + d);
          }
          h.buckets.clear();
          for (size_t b = 0; b < Histogram::kBuckets; ++b)
            if (buckets[b] != 0)
              h.buckets.emplace_back(static_cast<uint8_t>(b), buckets[b]);
        }
        if (bad || !dec.ok()) break;
        prev = cur;
        ring.push_back(std::move(cur));
      } else {
        break;  // Unknown record type: future format or corruption.
      }
      off += 8 + len;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  counter_names_ = std::move(counters);
  gauge_names_ = std::move(gauges);
  hist_names_ = std::move(hists);
  ring_ = std::move(ring);
  while (ring_.size() > options_.retention) ring_.pop_front();
}

// ---------------------------------------------------------------------------
// Rendering

std::string MetricsHistory::RenderTop(uint64_t now_mono) const {
  constexpr uint64_t kWindowNs = 60ull * 1000000000ull;
  constexpr size_t kSparkWidth = 32;
  char buf[256];
  std::string out;

  uint64_t wall_ms = 0, first_mono = 0;
  size_t nsamples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    nsamples = ring_.size();
    if (!ring_.empty()) {
      wall_ms = ring_.back().wall_ns / 1000000;
      first_mono = ring_.front().mono_ns;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "cwdb top — %zu samples spanning %s (wall %" PRIu64 " ms)\n",
                nsamples,
                FormatNs(now_mono > first_mono ? now_mono - first_mono : 0)
                    .c_str(),
                wall_ms);
  out += buf;
  if (nsamples == 0) {
    out += "  (history empty — run with history_interval_ms > 0)\n";
    return out;
  }

  // Per-interval commit rate over the last kSparkWidth samples.
  std::vector<Point> commits =
      Series("txn.commits", UINT64_MAX / 2, now_mono);
  std::vector<double> rates;
  for (size_t i = commits.size() > kSparkWidth ? commits.size() - kSparkWidth
                                               : 1;
       i < commits.size(); ++i) {
    double dt =
        static_cast<double>(commits[i].mono_ns - commits[i - 1].mono_ns) /
        1e9;
    rates.push_back(dt > 0 ? (commits[i].value - commits[i - 1].value) / dt
                           : 0);
  }
  std::snprintf(buf, sizeof(buf), "  commit rate   %10.1f /s   %s\n",
                Rate("txn.commits", kWindowNs, now_mono),
                Sparkline(rates).c_str());
  out += buf;

  WindowedHist wh;
  if (Windowed("txn.commit_latency_ns", kWindowNs, now_mono, &wh) &&
      wh.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  commit p50/p99 %9s / %s  (%" PRIu64 " in window)\n",
                  FormatNs(wh.Quantile(0.50)).c_str(),
                  FormatNs(wh.Quantile(0.99)).c_str(), wh.count);
    out += buf;
  }
  if (Windowed("protect.detection_latency_ns", kWindowNs, now_mono, &wh) &&
      wh.count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  detect p99    %10s      (%" PRIu64 " detections)\n",
                  FormatNs(wh.Quantile(0.99)).c_str(), wh.count);
    out += buf;
  }

  double v;
  if (Latest("scrub.max_age_ms", &v)) {
    std::vector<Point> ages =
        Series("scrub.max_age_ms", UINT64_MAX / 2, now_mono);
    std::vector<double> age_vals;
    for (size_t i = ages.size() > kSparkWidth ? ages.size() - kSparkWidth : 0;
         i < ages.size(); ++i)
      age_vals.push_back(ages[i].value);
    std::snprintf(buf, sizeof(buf), "  scrub age max %9.1fs    %s\n",
                  v / 1000.0, Sparkline(age_vals).c_str());
    out += buf;
  }
  if (Latest("audit.background_sweeps", &v)) {
    std::snprintf(buf, sizeof(buf), "  sweeps done   %10.0f      (%.2f /s)\n",
                  v, Rate("audit.background_sweeps", kWindowNs, now_mono));
    out += buf;
  }

  // SLO status lines ride the slo.* gauges the engine samples into history.
  std::vector<std::string> slo_names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& n : gauge_names_) {
      constexpr std::string_view kPrefix = "slo.";
      constexpr std::string_view kSuffix = ".burning";
      if (n.size() > kPrefix.size() + kSuffix.size() &&
          n.compare(0, kPrefix.size(), kPrefix) == 0 &&
          n.compare(n.size() - kSuffix.size(), kSuffix.size(), kSuffix) == 0)
        slo_names.push_back(
            n.substr(kPrefix.size(),
                     n.size() - kPrefix.size() - kSuffix.size()));
    }
  }
  for (const std::string& name : slo_names) {
    double burning = 0, budget = 100;
    Latest("slo." + name + ".burning", &burning);
    Latest("slo." + name + ".budget_remaining_pct", &budget);
    std::snprintf(buf, sizeof(buf), "  slo %-18s %s  budget %3.0f%%\n",
                  name.c_str(), burning != 0 ? "BURNING" : "ok     ",
                  budget);
    out += buf;
  }
  return out;
}

std::string RenderScrubMap(
    const std::vector<std::pair<std::string, int64_t>>& gauges,
    uint64_t captured_wall_ns) {
  // Collect shard ids present in the scrub.shardN.* family.
  struct Row {
    int64_t last_pass_wall_ms = 0;
    int64_t last_audit_lsn = 0;
    int64_t cursor_pct = 0;
  };
  std::vector<std::pair<size_t, Row>> rows;
  auto row_for = [&rows](size_t shard) -> Row& {
    for (auto& [id, row] : rows)
      if (id == shard) return row;
    rows.emplace_back(shard, Row{});
    return rows.back().second;
  };
  for (const auto& [name, value] : gauges) {
    constexpr std::string_view kPrefix = "scrub.shard";
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    size_t pos = kPrefix.size();
    size_t shard = 0;
    bool have_digit = false;
    while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
      shard = shard * 10 + static_cast<size_t>(name[pos] - '0');
      ++pos;
      have_digit = true;
    }
    if (!have_digit || pos >= name.size() || name[pos] != '.') continue;
    std::string_view field(name.data() + pos + 1, name.size() - pos - 1);
    Row& row = row_for(shard);
    if (field == "last_pass_wall_ms")
      row.last_pass_wall_ms = value;
    else if (field == "last_audit_lsn")
      row.last_audit_lsn = value;
    else if (field == "cursor_pct")
      row.cursor_pct = value;
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string out;
  if (rows.empty()) {
    out += "scrub map: no shards reported (auditor never ran?)\n";
    return out;
  }
  int64_t now_ms = static_cast<int64_t>(captured_wall_ns / 1000000);
  out += "shard      age     cursor  audit-lsn   heat\n";
  char buf[160];
  for (const auto& [shard, row] : rows) {
    double age_s =
        row.last_pass_wall_ms == 0
            ? -1.0
            : static_cast<double>(now_ms - row.last_pass_wall_ms) / 1000.0;
    if (age_s < 0 && row.last_pass_wall_ms != 0) age_s = 0;
    // Heat: one block per ~2s of staleness, capped at 20; never-audited
    // shards render a full bar.
    int heat = row.last_pass_wall_ms == 0
                   ? 20
                   : std::clamp(static_cast<int>(age_s / 2.0), 0, 20);
    std::string bar;
    for (int i = 0; i < heat; ++i) bar += "▓";
    for (int i = heat; i < 20; ++i) bar += "░";
    if (row.last_pass_wall_ms == 0) {
      std::snprintf(buf, sizeof(buf),
                    "%5zu    never     %5" PRId64 "%%  %9" PRId64 "   %s\n",
                    shard, row.cursor_pct, row.last_audit_lsn, bar.c_str());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%5zu  %6.1fs     %5" PRId64 "%%  %9" PRId64 "   %s\n",
                    shard, age_s, row.cursor_pct, row.last_audit_lsn,
                    bar.c_str());
    }
    out += buf;
  }
  return out;
}

}  // namespace cwdb
