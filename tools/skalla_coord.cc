// skalla-coord: the serving coordinator. Opens one QuerySession — over
// a saved warehouse directory (in-process sites) or over running
// skalla-site processes — and serves many concurrent clients against
// it: every connection submits through the same scheduler, shares the
// same pool of sites, and hits the same sub-aggregate cache.
//
//   skalla-coord (--data DIR | --endpoints H:P,H:P,...)
//                [--host 127.0.0.1] [--port 0]
//                [--optimize all|none] [--max-concurrent N]
//                [--deadline-ms MS] [--cache-bytes N]
//                [--shutdown-sites] [--trace-out=F] [--metrics-out=F]
//
// Announces "LISTENING port=<p>" on stdout once bound (port 0 picks an
// ephemeral port), like skalla-site.
//
// Line protocol, one client per connection, text lines ending in '\n':
//   client: query text in the Skalla query language; a blank line
//           submits it (exactly the shell's convention)
//   server: "OK <query_id> <rows>" + the result table + the transfer
//           stats, terminated by a line reading "END"
//           — or "ERR <message>" + "END"
//   client: ".cancel <query_id>"  -> "OK cancelled true|false" + "END"
//   client: ".analyze on|off"     -> "OK analyze on|off" + "END"; from
//           then on each OK reply on this connection also carries the
//           EXPLAIN ANALYZE report (per round, per site) before "END"
//   client: ".metrics"            -> "COORD STATS <json>" (this
//           process's metrics registry; the JSON spans lines), then
//           with --endpoints per site "SITE <id> STATS <json>" (its
//           process's registry), or "ERR site <i>: ..." for a site that
//           did not answer, then "END"
//   client: ".shutdown"           -> "BYE" + "END"; the server stops
//           accepting, drains its clients, and exits (with
//           --shutdown-sites it also asks rpc-backed sites to exit)
//
// Plain enough to drive from netcat or a ten-line python client; see
// scripts/serve_smoke.sh and docs/SERVING.md.

#include <sys/socket.h>

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <list>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "dist/warehouse.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/stats_report.h"
#include "rpc/tcp.h"
#include "serve/session.h"
#include "sql/parser.h"

namespace {

using skalla::rpc::TcpSocket;

skalla::serve::QuerySession* g_session = nullptr;
// --data: the sites run in this process and share its registry.
bool g_sites_in_process = false;
std::atomic<bool> g_stop{false};

// Live client fds, so .shutdown can unblock handler threads parked in a
// blocking read (::shutdown makes their RecvAll fail immediately).
std::mutex g_clients_mu;
std::vector<int> g_client_fds;

std::vector<skalla::rpc::SiteEndpoint> ParseEndpoints(
    const std::string& spec) {
  std::vector<skalla::rpc::SiteEndpoint> endpoints;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const size_t colon = item.rfind(':');
    const char* last = item.data() + item.size();
    int port = 0;
    std::from_chars_result parsed{};
    if (colon != std::string::npos) {
      parsed = std::from_chars(item.data() + colon + 1, last, port);
    }
    if (colon == std::string::npos || parsed.ec != std::errc() ||
        parsed.ptr != last || port < 1 || port > 65535) {
      std::fprintf(stderr,
                   "bad endpoint '%s' (want host:port, port 1-65535)\n",
                   item.c_str());
      std::exit(2);
    }
    skalla::rpc::SiteEndpoint endpoint;
    endpoint.host = item.substr(0, colon);
    endpoint.port = port;
    endpoints.push_back(std::move(endpoint));
  }
  return endpoints;
}

// One text line, '\n'-terminated ('\r' stripped). Non-OK on disconnect.
skalla::Result<std::string> ReadLine(TcpSocket* socket) {
  std::string line;
  uint8_t byte = 0;
  while (true) {
    SKALLA_RETURN_NOT_OK(socket->RecvAll(&byte, 1, /*timeout_s=*/3600.0));
    if (byte == '\n') return line;
    if (byte != '\r') line.push_back(static_cast<char>(byte));
  }
}

void Reply(TcpSocket* socket, const std::string& text) {
  // A send failure means the client went away; the read loop notices.
  skalla::Status sent = socket->SendAll(
      reinterpret_cast<const uint8_t*>(text.data()), text.size(),
      /*timeout_s=*/30.0);
  (void)sent;
}

// `analyze` appends the EXPLAIN ANALYZE report to an OK reply.
void RunQuery(TcpSocket* socket, const std::string& text, bool analyze) {
  auto parsed = skalla::ParseQuery(text);
  if (!parsed.ok()) {
    Reply(socket, skalla::StrCat("ERR ", parsed.status().ToString(),
                                 "\nEND\n"));
    return;
  }
  auto plan = g_session->Plan(*parsed);
  if (!plan.ok()) {
    Reply(socket, skalla::StrCat("ERR ", plan.status().ToString(),
                                 "\nEND\n"));
    return;
  }
  auto submission = g_session->SubmitPlan(*plan);
  auto answer = submission.result.get();
  if (!answer.ok()) {
    Reply(socket, skalla::StrCat("ERR ", answer.status().ToString(),
                                 "\nEND\n"));
    return;
  }
  answer->table.SortRows();
  Reply(socket,
        skalla::StrCat(
            "OK ", submission.query_id, " ", answer->table.num_rows(), "\n",
            answer->table.ToString(100), answer->stats.ToString(),
            analyze ? skalla::obs::FormatStatsReport(*plan, answer->stats,
                                                     g_session->num_sites())
                    : std::string(),
            "END\n"));
}

// This process's metrics registry, then each site process's (kGetStats),
// one entry per site. In-process sites answer with this process's
// registry, so they add no entry of their own.
std::string Metrics() {
  std::string reply = skalla::StrCat(
      "COORD STATS ", skalla::obs::MetricsRegistry::Global().ToJson(), "\n");
  const size_t sites = g_sites_in_process ? 0 : g_session->num_sites();
  for (size_t e = 0; e < sites; ++e) {
    auto stats = g_session->rpc_executor()->SiteStats(e);
    reply += stats.ok() ? skalla::StrCat("SITE ", stats->site_id, " STATS ",
                                         stats->metrics_json, "\n")
                        : skalla::StrCat("ERR site ", e, ": ",
                                         stats.status().ToString(), "\n");
  }
  return reply + "END\n";
}

void HandleClient(TcpSocket socket) {
  std::string pending;
  bool analyze = false;
  while (!g_stop.load()) {
    auto line = ReadLine(&socket);
    if (!line.ok()) break;  // client went away (or .shutdown unblocked us)
    std::string_view stripped = skalla::StripWhitespace(*line);
    if (pending.empty() && !stripped.empty() && stripped[0] == '.') {
      if (stripped == ".shutdown") {
        Reply(&socket, "BYE\nEND\n");
        g_stop.store(true);
        break;
      }
      if (stripped.rfind(".cancel ", 0) == 0) {
        const uint64_t query_id = static_cast<uint64_t>(
            std::atoll(std::string(stripped.substr(8)).c_str()));
        Reply(&socket,
              skalla::StrCat("OK cancelled ",
                             g_session->Cancel(query_id) ? "true" : "false",
                             "\nEND\n"));
        continue;
      }
      if (stripped == ".analyze on" || stripped == ".analyze off") {
        analyze = stripped == ".analyze on";
        Reply(&socket, skalla::StrCat("OK analyze ", analyze ? "on" : "off",
                                      "\nEND\n"));
        continue;
      }
      if (stripped == ".metrics") {
        Reply(&socket, Metrics());
        continue;
      }
      Reply(&socket, "ERR unknown command\nEND\n");
      continue;
    }
    if (!stripped.empty()) {
      pending += *line;
      pending += '\n';
      continue;
    }
    if (pending.empty()) continue;
    std::string text;
    std::swap(text, pending);
    RunQuery(&socket, text, analyze);
  }
  std::lock_guard<std::mutex> lock(g_clients_mu);
  for (size_t i = 0; i < g_client_fds.size(); ++i) {
    if (g_client_fds[i] == socket.fd()) {
      g_client_fds.erase(g_client_fds.begin() + static_cast<int64_t>(i));
      break;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  skalla::obs::ObsSession obs_session(argc, argv);
  std::string data_dir;
  std::string endpoints_spec;
  std::string host = "127.0.0.1";
  int port = 0;
  std::string optimize = "all";
  bool shutdown_sites = false;
  skalla::serve::SessionOptions session_options;

  skalla::FlagSet flags;
  flags.String("--data", &data_dir, "saved warehouse dir (in-process sites)");
  flags.String("--endpoints", &endpoints_spec,
               "H:P,H:P,... running skalla-site processes");
  flags.String("--host", &host, "listen address");
  flags.Int("--port", &port, "listen port (0 = OS-assigned)");
  flags.String("--optimize", &optimize, "all|none (default all)");
  flags.SizeT("--max-concurrent",
              &session_options.scheduler.max_concurrent_queries,
              "admission width (concurrent queries)");
  flags.Uint64("--deadline-ms", &session_options.exec.query_deadline_ms,
               "default per-query deadline, counted from submission");
  flags.Uint64("--cache-bytes", &session_options.scheduler.cache_max_bytes,
               "sub-aggregate cache capacity (0 disables)");
  flags.Bool("--shutdown-sites", &shutdown_sites,
             "on exit, ask rpc-backed sites to exit too");
  flags.IgnorePrefix("--trace-out=");
  flags.IgnorePrefix("--metrics-out=");
  skalla::Status parsed_flags = flags.Parse(&argc, argv);
  if (!parsed_flags.ok() || (data_dir.empty() == endpoints_spec.empty())) {
    if (!parsed_flags.ok()) {
      std::fprintf(stderr, "%s\n", parsed_flags.ToString().c_str());
    } else {
      std::fprintf(stderr, "need exactly one of --data / --endpoints\n");
    }
    std::fputs(flags.Usage(argv[0]).c_str(), stderr);
    return 2;
  }
  session_options.optimize = optimize == "none"
                                 ? skalla::OptimizerOptions::None()
                                 : skalla::OptimizerOptions::All();

  std::optional<skalla::DistributedWarehouse> warehouse;
  std::optional<skalla::serve::QuerySession> session;
  if (!data_dir.empty()) {
    auto loaded = skalla::DistributedWarehouse::Load(data_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    warehouse.emplace(std::move(*loaded));
    g_sites_in_process = true;
    auto opened = skalla::serve::QuerySession::Open(&*warehouse,
                                                    std::move(session_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "open error: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    session.emplace(std::move(*opened));
  } else {
    auto opened = skalla::serve::QuerySession::Open(
        ParseEndpoints(endpoints_spec), std::move(session_options));
    if (!opened.ok()) {
      std::fprintf(stderr, "connect error: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    session.emplace(std::move(*opened));
  }
  g_session = &*session;

  auto listener = skalla::rpc::TcpListener::Bind(host, port);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind error: %s\n",
                 listener.status().ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%d sites=%zu\n", listener->port(),
              session->num_sites());
  std::fflush(stdout);

  // One handler thread per connection. A handler marks itself done as
  // its last act, and each accept-loop pass joins the done ones: an
  // exited thread keeps its stack mapped until it is joined. std::list
  // keeps each `done` flag in place while the list changes.
  struct Client {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Client> clients;
  while (!g_stop.load()) {
    for (auto it = clients.begin(); it != clients.end();) {
      if (!it->done.load()) {
        ++it;
        continue;
      }
      it->thread.join();
      it = clients.erase(it);
    }
    auto accepted = listener->Accept(/*timeout_s=*/0.2);
    if (!accepted.ok()) break;
    if (!accepted->has_value()) continue;  // timeout: poll the stop flag
    TcpSocket socket = std::move(**accepted);
    {
      std::lock_guard<std::mutex> lock(g_clients_mu);
      g_client_fds.push_back(socket.fd());
    }
    Client& client = clients.emplace_back();
    client.thread = std::thread(
        [&client](TcpSocket s) {
          HandleClient(std::move(s));
          client.done.store(true);
        },
        std::move(socket));
  }
  listener->Close();

  // Unblock handlers parked in a read so the drain below cannot hang on
  // an idle client.
  {
    std::lock_guard<std::mutex> lock(g_clients_mu);
    for (int fd : g_client_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (Client& client : clients) client.thread.join();

  // Only remote sites are shut down; in-process sites end with the
  // session.
  if (shutdown_sites && !endpoints_spec.empty()) {
    skalla::Status s = session->rpc_executor()->Shutdown();
    if (!s.ok()) {
      std::fprintf(stderr, "site shutdown: %s\n", s.ToString().c_str());
    }
  }
  return 0;
}
