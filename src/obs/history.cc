#include "obs/history.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

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
// Rendering

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
