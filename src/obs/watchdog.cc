#include "obs/watchdog.h"

#include <cinttypes>
#include <cstdio>

#include "obs/flight_recorder.h"

namespace cwdb {

Watchdog::Watchdog(MetricsRegistry* metrics, ForensicsRecorder* forensics,
                   std::function<uint64_t()> stable_lsn, FlightRecorder* box)
    : metrics_(metrics),
      forensics_(forensics),
      stable_lsn_(std::move(stable_lsn)),
      box_(box),
      stalls_(metrics->counter("watchdog.stalls")),
      degraded_(metrics->gauge("watchdog.degraded")) {}

Watchdog::~Watchdog() { Stop(); }

uint64_t Watchdog::AddProbe(WatchdogProbe probe) {
  std::lock_guard<std::mutex> guard(mu_);
  ProbeState st;
  st.id = next_probe_id_++;
  st.probe = std::move(probe);
  probes_.push_back(std::move(st));
  return probes_.back().id;
}

void Watchdog::RemoveProbe(uint64_t id) {
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i].id == id) {
      probes_.erase(probes_.begin() + i);
      break;
    }
  }
  int64_t fired = 0;
  for (const ProbeState& st : probes_) fired += st.fired ? 1 : 0;
  degraded_->Set(fired);
}

void Watchdog::Start(uint64_t poll_interval_ms) {
  std::lock_guard<std::mutex> guard(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  poll_interval_ms_ = poll_interval_ms == 0 ? 100 : poll_interval_ms;
  thread_ = std::thread([this] { Loop(); });
}

void Watchdog::Stop() {
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> guard(mu_);
  running_ = false;
}

void Watchdog::PollOnce() {
  std::lock_guard<std::mutex> guard(mu_);
  const uint64_t now = NowNs();
  int64_t fired_count = 0;
  for (ProbeState& st : probes_) {
    bool active = st.probe.active ? st.probe.active() : false;
    if (!active) {
      // Nothing outstanding: the probe is healthy and re-armed.
      st.last_change_ns = 0;
      st.fired = false;
      continue;
    }
    uint64_t progress = st.probe.progress ? st.probe.progress() : 0;
    if (st.last_change_ns == 0 || progress != st.last_progress) {
      st.last_progress = progress;
      st.last_change_ns = now;
      st.fired = false;
      continue;
    }
    uint64_t stuck_ns = now - st.last_change_ns;
    if (stuck_ns < st.probe.stall_ns) {
      fired_count += st.fired ? 1 : 0;
      continue;
    }
    if (!st.fired) {
      st.fired = true;
      stalls_->Add();
      char detail[160];
      std::snprintf(detail, sizeof(detail),
                    "watchdog: %s stalled for %" PRIu64
                    " ms at progress=%" PRIu64,
                    st.probe.name.c_str(), stuck_ns / 1000000, progress);
      if (forensics_ != nullptr) {
        uint64_t lsn = stable_lsn_ ? stable_lsn_() : 0;
        forensics_->RecordIncident(IncidentSource::kStallWatchdog, lsn, 0,
                                   {}, detail);
      }
    }
    ++fired_count;
  }
  degraded_->Set(fired_count);
  // Under mu_, so polls from the loop and from tests never interleave
  // their writes to the slot's seqlock.
  if (box_ != nullptr) {
    box_->NoteStatusText(blackbox::StatusSlot::kWatchdog,
                         DegradedReasonLocked(now));
  }
}

std::string Watchdog::DegradedReason() const {
  std::lock_guard<std::mutex> guard(mu_);
  return DegradedReasonLocked(NowNs());
}

std::string Watchdog::DegradedReasonLocked(uint64_t now) const {
  std::string out;
  for (const ProbeState& st : probes_) {
    if (!st.fired) continue;
    if (!out.empty()) out += ", ";
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s stalled %" PRIu64 "ms",
                  st.probe.name.c_str(),
                  st.last_change_ns != 0 && now > st.last_change_ns
                      ? (now - st.last_change_ns) / 1000000
                      : 0);
    out += buf;
  }
  return out;
}

void Watchdog::Loop() {
  std::unique_lock<std::mutex> guard(mu_);
  while (!stop_) {
    uint64_t interval = poll_interval_ms_;
    guard.unlock();
    PollOnce();
    guard.lock();
    cv_.wait_for(guard, std::chrono::milliseconds(interval),
                 [this] { return stop_; });
  }
}

}  // namespace cwdb
