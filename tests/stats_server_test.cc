// Stats-endpoint tests: the Prometheus rendering must be valid text
// exposition format 0.0.4 (one HELP + one TYPE per series, no duplicate
// series, counters suffixed _total), and the live server must answer
// /metrics, /incidents and /healthz correctly — on 127.0.0.1 only.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "faultinject/fault_injector.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "tests/test_util.h"

namespace cwdb {
namespace {

/// Blocking one-shot HTTP GET against 127.0.0.1:port. Returns the full
/// response (head + body), empty on connect failure.
std::string HttpGet(uint16_t port, const std::string& path,
                    const std::string& verb = "GET") {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string req = verb + " " + path + " HTTP/1.0\r\n\r\n";
  size_t done = 0;
  while (done < req.size()) {
    ssize_t n = ::write(fd, req.data() + done, req.size() - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

std::string BodyOf(const std::string& resp) {
  size_t pos = resp.find("\r\n\r\n");
  return pos == std::string::npos ? "" : resp.substr(pos + 4);
}

/// Validates exposition-format structure: every sample's metric family has
/// exactly one HELP and one TYPE line, and no sample line repeats.
void ValidateExposition(const std::string& text) {
  std::map<std::string, int> help_count;
  std::map<std::string, int> type_count;
  std::map<std::string, int> sample_count;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tok;
    ls >> tok;
    if (tok == "#") {
      std::string kind, name;
      ls >> kind >> name;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      (kind == "HELP" ? help_count : type_count)[name]++;
    } else {
      // Sample line: "<name>[{labels}] <value>".
      std::string name = tok.substr(0, tok.find('{'));
      EXPECT_FALSE(name.empty()) << line;
      EXPECT_EQ(name.compare(0, 5, "cwdb_"), 0) << line;
      sample_count[line]++;
      EXPECT_EQ(sample_count[line], 1) << "duplicate sample: " << line;
      // The declared family: quantile/bucket/sum/count samples of a
      // summary or histogram declare under the base name.
      std::string family = name;
      for (const char* suffix : {"_bucket", "_sum", "_count"}) {
        size_t len = std::strlen(suffix);
        if (family.size() > len &&
            family.compare(family.size() - len, len, suffix) == 0 &&
            type_count.count(family.substr(0, family.size() - len)) != 0) {
          family = family.substr(0, family.size() - len);
        }
      }
      EXPECT_EQ(help_count[family], 1) << "family " << family << ": " << line;
      EXPECT_EQ(type_count[family], 1) << "family " << family << ": " << line;
    }
  }
  for (const auto& [name, n] : help_count) {
    EXPECT_EQ(n, 1) << "HELP repeated for " << name;
    EXPECT_EQ(type_count[name], 1) << "TYPE missing/repeated for " << name;
  }
}

TEST(RenderPrometheus, ValidExposition) {
  MetricsRegistry reg;
  reg.counter("txn.commits")->Add(41);
  reg.counter("txn.aborts")->Add(2);
  reg.gauge("txn.active")->Set(3);
  for (uint64_t v : {100u, 200u, 400u, 800u}) {
    reg.histogram("txn.commit_latency_ns")->Record(v);
  }
  std::string text = RenderPrometheus(reg.Capture());
  ValidateExposition(text);

  EXPECT_NE(text.find("cwdb_txn_commits_total 41\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cwdb_txn_commits_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cwdb_txn_active 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cwdb_txn_commit_latency_ns histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("cwdb_txn_commit_latency_ns_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(text.find("cwdb_txn_commit_latency_ns_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("cwdb_txn_commit_latency_ns_count 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("cwdb_txn_commit_latency_ns_sum 1500\n"),
            std::string::npos);
  // Scrape-time anchor for aligning with incident wall stamps.
  EXPECT_NE(text.find("cwdb_boot_wall_seconds "), std::string::npos);
}

TEST(StatsServer, ServesMetricsIncidentsAndHealth) {
  MetricsRegistry reg;
  reg.counter("test.hits")->Add(7);
  bool healthy = true;
  StatsServer server;
  StatsServer::Hooks hooks;
  hooks.snapshot = [&reg] { return reg.Capture(); };
  hooks.incidents_jsonl = [] { return std::string("{\"id\":1}\n"); };
  hooks.healthy = [&healthy] { return healthy; };
  ASSERT_OK(server.Start(StatsServerOptions{}, std::move(hooks)));
  ASSERT_NE(server.port(), 0);

  std::string resp = HttpGet(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(resp.find("cwdb_test_hits_total 7\n"), std::string::npos);
  ValidateExposition(BodyOf(resp));

  // Routing matches on the path alone: a query string must not turn a
  // known route into a 404 (Prometheus scrapers append parameters).
  resp = HttpGet(server.port(), "/metrics?x=y");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("cwdb_test_hits_total 7\n"), std::string::npos);
  resp = HttpGet(server.port(), "/healthz?verbose=1");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);

  resp = HttpGet(server.port(), "/incidents");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/jsonl"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "{\"id\":1}\n");

  resp = HttpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "ok\n");
  healthy = false;
  resp = HttpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "corrupt\n");

  resp = HttpGet(server.port(), "/nope");
  EXPECT_NE(resp.find("HTTP/1.0 404"), std::string::npos);
  resp = HttpGet(server.port(), "/metrics", "POST");
  EXPECT_NE(resp.find("HTTP/1.0 405"), std::string::npos);

  uint16_t port = server.port();
  server.Stop();
  EXPECT_EQ(server.port(), 0);
  EXPECT_TRUE(HttpGet(port, "/metrics").empty());
}

TEST(StatsServer, QueryRouteAndSloHealth) {
  MetricsRegistry reg;
  std::string slo_reason;
  StatsServer server;
  StatsServer::Hooks hooks;
  hooks.snapshot = [&reg] { return reg.Capture(); };
  hooks.healthy = [] { return true; };
  hooks.query = [](std::string_view query) -> Result<std::string> {
    if (query == "metric=ok") return std::string("{\"metric\": \"ok\"}\n");
    return Status::InvalidArgument("unknown metric");
  };
  hooks.slo = [&slo_reason] { return slo_reason; };
  ASSERT_OK(server.Start(StatsServerOptions{}, std::move(hooks)));

  // /query hands the query string to the hook: 200 on success, 400 with
  // the status text on a bad query.
  std::string resp = HttpGet(server.port(), "/query?metric=ok");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "{\"metric\": \"ok\"}\n");
  resp = HttpGet(server.port(), "/query?metric=bogus");
  EXPECT_NE(resp.find("HTTP/1.0 400"), std::string::npos);
  EXPECT_NE(resp.find("unknown metric"), std::string::npos);

  // /healthz degrades to 503 while the slo hook reports a burn, and
  // recovers with it.
  resp = HttpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  slo_reason = "slo: commit_p99 burn 8.1x";
  resp = HttpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 503"), std::string::npos);
  EXPECT_EQ(BodyOf(resp), "slo: commit_p99 burn 8.1x\n");
  slo_reason.clear();
  resp = HttpGet(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST(StatsServer, QueryWithoutHistoryIs404) {
  MetricsRegistry reg;
  StatsServer server;
  StatsServer::Hooks hooks;
  hooks.snapshot = [&reg] { return reg.Capture(); };
  ASSERT_OK(server.Start(StatsServerOptions{}, std::move(hooks)));
  std::string resp = HttpGet(server.port(), "/query?metric=x");
  EXPECT_NE(resp.find("HTTP/1.0 404"), std::string::npos);
}

TEST(StatsServer, DatabaseIntegration) {
  TempDir dir;
  DatabaseOptions opts =
      SmallDbOptions(dir.path(), ProtectionScheme::kDataCodeword);
  opts.serve_stats = true;
  auto db = Database::Open(opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_NE((*db)->stats_port(), 0);

  auto txn = (*db)->Begin();
  ASSERT_TRUE(txn.ok());
  auto t = (*db)->CreateTable(*txn, "t", 32, 64);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE((*db)->Insert(*txn, *t, std::string(32, 'x')).ok());
  ASSERT_OK((*db)->Commit(*txn));

  std::string metrics = BodyOf(HttpGet((*db)->stats_port(), "/metrics"));
  ValidateExposition(metrics);
  uint64_t commits = (*db)->metrics()->counter("txn.commits")->Value();
  ASSERT_GT(commits, 0u);
  EXPECT_NE(metrics.find("cwdb_txn_commits_total " +
                         std::to_string(commits) + "\n"),
            std::string::npos);

  // GET /query serves time series out of the database's history ring.
  (*db)->Tick();
  (*db)->Tick();
  std::string q =
      HttpGet((*db)->stats_port(), "/query?metric=txn.commits&window=60s");
  EXPECT_NE(q.find("HTTP/1.0 200 OK"), std::string::npos) << q;
  EXPECT_NE(q.find("\"rate_per_s\""), std::string::npos);
  q = HttpGet((*db)->stats_port(), "/query?metric=no.such&window=60s");
  EXPECT_NE(q.find("HTTP/1.0 400"), std::string::npos);

  // A healthy database reports ok; after a failed audit writes the
  // corruption note it must report corrupt.
  EXPECT_NE(HttpGet((*db)->stats_port(), "/healthz").find("200 OK"),
            std::string::npos);
  FaultInjector inject(db->get(), 3);
  auto table_off = (*db)->image()->RecordOff(*t, 0);
  inject.WildWriteAt(table_off, "bad");
  auto report = (*db)->Audit();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->clean);
  EXPECT_NE(HttpGet((*db)->stats_port(), "/healthz").find("HTTP/1.0 503"),
            std::string::npos);
  // The filed dossier is served back on /incidents.
  std::string incidents = BodyOf(HttpGet((*db)->stats_port(), "/incidents"));
  EXPECT_NE(incidents.find("\"source\":\"audit\""), std::string::npos);
}

}  // namespace
}  // namespace cwdb
