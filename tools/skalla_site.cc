// skalla-site: one Skalla site as a standalone process. Loads its
// partition of a saved warehouse (see skalla-dataset / docs/RPC.md) and
// answers coordinator round requests over TCP until it receives a
// shutdown request.
//
//   skalla-site --data DIR --site N [--partition P] [--buffer-bytes B]
//               [--host 127.0.0.1] [--port 0] [--drop-request K]
//               [--chaos-seed S] [--chaos-drop P] [--chaos-corrupt P]
//               [--chaos-reset P] [--chaos-delay P] [--trace-out=F]
//               [--metrics-out=F]
//
// With --port 0 (the default) the OS picks a free port; the chosen one
// is announced on stdout as "LISTENING port=<p>" so launchers (and the
// multi-process tests) can scrape it. --drop-request K makes the server
// hang up instead of answering its K-th request — a fault-injection
// hook for exercising coordinator reconnect/retry.
//
// --partition P serves partition P's data under site id N — how a
// replica process hosts another site's partition (docs/FAULTS.md).
// Without it the site serves its own partition (P = N). The --chaos-*
// flags enable seeded transport chaos (see SiteServerOptions): drop
// responses, corrupt frame checksums, reset connections mid-frame, or
// delay responses, each with the given probability.
//
// The warehouse directory (skalla-dataset, or DistributedWarehouse::Save)
// loads lazily: the site registers paged providers and pages chunks
// through a BufferManager sized by --buffer-bytes (0 = unlimited), so it
// can serve a partition larger than memory.
//
// --trace-out=F / --metrics-out=F (obs/session.h) dump this process's
// local trace / metrics on clean shutdown — in addition to the per-round
// profile the site already ships back in every kRoundResult
// (docs/OBSERVABILITY.md).

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "dist/site.h"
#include "dist/warehouse.h"
#include "obs/session.h"
#include "rpc/server.h"
#include "rpc/site_service.h"

int main(int argc, char** argv) {
  skalla::obs::ObsSession obs_session(argc, argv);
  std::string data_dir;
  int site_index = -1;
  int partition = -1;
  uint64_t buffer_bytes = 0;
  skalla::rpc::SiteServerOptions options;

  skalla::FlagSet flags;
  flags.String("--data", &data_dir, "saved warehouse directory");
  flags.Int("--site", &site_index, "site id this process serves under");
  flags.Int("--partition", &partition,
            "partition to load (default: --site; a replica loads another "
            "site's)");
  flags.Uint64("--buffer-bytes", &buffer_bytes,
               "chunk buffer budget (0 = unlimited)");
  flags.String("--host", &options.host, "listen address");
  flags.Int("--port", &options.port, "listen port (0 = OS-assigned)");
  flags.Int("--drop-request", &options.drop_request_index,
            "hang up instead of answering the K-th request");
  flags.Uint64("--chaos-seed", &options.chaos.seed,
               "seed for the transport chaos RNG");
  flags.Double("--chaos-drop", &options.chaos.drop_response_prob,
               "probability of dropping a response");
  flags.Double("--chaos-corrupt", &options.chaos.corrupt_crc_prob,
               "probability of corrupting a frame checksum");
  flags.Double("--chaos-reset", &options.chaos.reset_midframe_prob,
               "probability of resetting the connection mid-frame");
  flags.Double("--chaos-delay", &options.chaos.delay_prob,
               "probability of delaying a response");
  flags.IgnorePrefix("--trace-out=");
  flags.IgnorePrefix("--metrics-out=");
  skalla::Status parsed = flags.Parse(&argc, argv);
  if (!parsed.ok() || data_dir.empty() || site_index < 0) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    }
    std::fputs(flags.Usage(argv[0]).c_str(), stderr);
    return 2;
  }
  if (partition < 0) partition = site_index;

  auto catalog = skalla::LoadSiteCatalog(
      data_dir, static_cast<size_t>(partition), buffer_bytes);
  if (!catalog.ok()) {
    std::fprintf(stderr, "cannot load partition %d from %s: %s\n", partition,
                 data_dir.c_str(), catalog.status().ToString().c_str());
    return 1;
  }

  skalla::rpc::SiteService service(
      skalla::Site(site_index, std::move(*catalog)));
  skalla::rpc::SiteServer server(&service, options);
  // Surface transport chaos injections in the RoundProfiles the site
  // ships back to the coordinator.
  service.set_chaos_faults_counter(server.chaos_faults_counter());
  skalla::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot listen on %s:%d: %s\n",
                 options.host.c_str(), options.port,
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING port=%d\n", server.port());
  std::fflush(stdout);

  skalla::Status served = server.Serve();
  if (!served.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", served.ToString().c_str());
    return 1;
  }
  return 0;
}
