#include "obs/stats_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/json.h"

namespace cwdb {
namespace {

/// "txn.commit_latency_ns" -> "cwdb_txn_commit_latency_ns".
std::string PromName(std::string_view name) {
  std::string out = "cwdb_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n <= 0) return;  // Peer went away; nothing to salvage.
    done += static_cast<size_t>(n);
  }
}

void SendResponse(int fd, int code, const char* reason,
                  const char* content_type, std::string_view body) {
  std::string head;
  Appendf(&head,
          "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
          "Connection: close\r\n\r\n",
          code, reason, content_type, body.size());
  WriteAll(fd, head);
  WriteAll(fd, body);
}

}  // namespace

std::string RenderPrometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, v] : snap.counters) {
    std::string p = PromName(name);
    Appendf(&out, "# HELP %s_total cwdb counter %s\n", p.c_str(),
            name.c_str());
    Appendf(&out, "# TYPE %s_total counter\n", p.c_str());
    Appendf(&out, "%s_total %" PRIu64 "\n", p.c_str(), v);
  }
  for (const auto& [name, v] : snap.gauges) {
    std::string p = PromName(name);
    Appendf(&out, "# HELP %s cwdb gauge %s\n", p.c_str(), name.c_str());
    Appendf(&out, "# TYPE %s gauge\n", p.c_str());
    Appendf(&out, "%s %" PRId64 "\n", p.c_str(), v);
  }
  for (const HistogramSnapshot& hs : snap.histograms) {
    std::string p = PromName(hs.name);
    Appendf(&out, "# HELP %s cwdb histogram %s\n", p.c_str(),
            hs.name.c_str());
    Appendf(&out, "# TYPE %s histogram\n", p.c_str());
    // Native histogram series from the log2 buckets: cumulative counts at
    // each power-of-two upper bound up to the highest populated bucket,
    // then +Inf. Grafana heatmaps and arbitrary histogram_quantile()
    // queries work on these where the old summary quantiles could not.
    size_t top = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (hs.h.buckets[i] != 0) top = i;
    }
    uint64_t cum = 0;
    for (size_t i = 0; i <= top && hs.h.count != 0; ++i) {
      cum += hs.h.buckets[i];
      Appendf(&out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", p.c_str(),
              Histogram::BucketUpperBound(i), cum);
    }
    Appendf(&out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", p.c_str(),
            hs.h.count);
    Appendf(&out, "%s_sum %" PRIu64 "\n", p.c_str(), hs.h.sum);
    Appendf(&out, "%s_count %" PRIu64 "\n", p.c_str(), hs.h.count);
  }
  // Scrape-time anchor so dashboards can align with incident wall stamps.
  Appendf(&out, "# HELP cwdb_boot_wall_seconds wall clock at registry boot\n");
  Appendf(&out, "# TYPE cwdb_boot_wall_seconds gauge\n");
  Appendf(&out, "cwdb_boot_wall_seconds %.3f\n",
          static_cast<double>(snap.boot_wall_ns) / 1e9);
  return out;
}

Status StatsServer::Start(const StatsServerOptions& options, Hooks hooks) {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Busy("stats server already running");
  }
  if (!hooks.snapshot) {
    return Status::InvalidArgument("stats server needs a snapshot hook");
  }
  hooks_ = std::move(hooks);

  if (::pipe(wake_pipe_) != 0) return Status::IoError("pipe");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    Stop();
    return Status::IoError("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // Localhost only — see .h.
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    Stop();
    return Status::IoError("bind/listen 127.0.0.1");
  }
  socklen_t alen = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                    &alen) != 0) {
    Stop();
    return Status::IoError("getsockname");
  }
  port_.store(ntohs(addr.sin_port), std::memory_order_release);

  running_.store(true, std::memory_order_release);
  thread_ = std::thread(&StatsServer::Serve, this);
  return Status::OK();
}

void StatsServer::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    char b = 'q';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listen_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  port_.store(0, std::memory_order_release);
}

void StatsServer::Serve() {
  while (running_.load(std::memory_order_acquire)) {
    struct pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Stop() poked the pipe.
    if ((fds[0].revents & POLLIN) == 0) continue;
    int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    HandleConnection(conn);
    ::close(conn);
  }
}

void StatsServer::HandleConnection(int fd) {
  // Read until the end of the request head (or a sane cap). HTTP/1.0,
  // GET only, no body expected.
  struct timeval tv = {2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string req;
  char buf[1024];
  while (req.size() < 8192 && req.find("\r\n\r\n") == std::string::npos &&
         req.find("\n\n") == std::string::npos) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    req.append(buf, static_cast<size_t>(n));
    if (req.find('\n') != std::string::npos &&
        req.compare(0, 4, "GET ") != 0) {
      break;  // First line is in; not a GET — no point reading more.
    }
  }
  size_t eol = req.find_first_of("\r\n");
  if (eol == std::string::npos) return;
  std::string line = req.substr(0, eol);
  if (line.compare(0, 4, "GET ") != 0) {
    SendResponse(fd, 405, "Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  size_t sp = line.find(' ', 4);
  std::string path = line.substr(4, sp == std::string::npos ? std::string::npos
                                                            : sp - 4);
  // Route on the path alone: GET /metrics?x=y must dispatch exactly like
  // GET /metrics.
  if (size_t q = path.find('?'); q != std::string::npos) path.resize(q);

  if (path == "/metrics") {
    SendResponse(fd, 200, "OK",
                 "text/plain; version=0.0.4; charset=utf-8",
                 RenderPrometheus(hooks_.snapshot()));
  } else if (path == "/incidents") {
    std::string body =
        hooks_.incidents_jsonl ? hooks_.incidents_jsonl() : std::string();
    SendResponse(fd, 200, "OK", "application/jsonl", body);
  } else if (path == "/spans") {
    // Always a valid (possibly empty) Chrome trace document, even when
    // tracing was never enabled.
    std::string body = hooks_.spans_json ? hooks_.spans_json() : std::string();
    if (body.empty()) body = "{\"traceEvents\":[]}\n";
    SendResponse(fd, 200, "OK", "application/json", body);
  } else if (path == "/healthz") {
    bool ok = hooks_.healthy ? hooks_.healthy() : true;
    std::string stalled = hooks_.degraded ? hooks_.degraded() : std::string();
    if (!ok) {
      SendResponse(fd, 503, "Service Unavailable", "text/plain", "corrupt\n");
    } else if (!stalled.empty()) {
      SendResponse(fd, 503, "Service Unavailable", "text/plain",
                   "stalled: " + stalled + "\n");
    } else {
      SendResponse(fd, 200, "OK", "text/plain", "ok\n");
    }
  } else {
    SendResponse(fd, 404, "Not Found", "text/plain", "not found\n");
  }
}

}  // namespace cwdb
