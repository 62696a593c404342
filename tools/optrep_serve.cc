// optrep_serve — the epoll-driven optimistic-replication sync server.
//
// Hosts a ReplicaStore of rotating vectors and speaks the optrep.serve wire
// protocol (src/net/wire_stream.h): COMPARE, SYNCB/SYNCC/SYNCS push and pull
// sessions over persistent TCP connections, N reactor workers sharing the
// store through per-slot optimistic locks and whole-session write tickets.
// Runs until SIGINT/SIGTERM (or --max-seconds), then reports its counters.
//
//   optrep_serve [--host=A] [--port=N]        bind address (port 0 = ephemeral)
//                [--workers=N]                reactor threads (default 1)
//                [--kind=brv|crv|srv]         the store's sync algorithm
//                [--replicas=N]               replica slots (default 16)
//                [--capacity=N]               max sites per replica (default 1024)
//                [--prefill=N]                seeded local updates per replica
//                [--seed=N]
//                [--port-file=FILE]           write the bound port (CI handshake)
//                [--stats-out=FILE]           write optrep.serve.stats/v1 on exit
//                [--max-seconds=N]            exit by deadline (0 = run forever)
#include <signal.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "net/server.h"
#include "obs/export.h"
#include "tools/cli_util.h"

using namespace optrep;

namespace {

volatile sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(const char* msg) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: optrep_serve [--host=A] [--port=N] [--workers=N]\n"
               "       [--kind=brv|crv|srv] [--replicas=N] [--capacity=N]\n"
               "       [--prefill=N] [--seed=N]\n"
               "       [--port-file=FILE] [--stats-out=FILE] [--max-seconds=N]\n");
  std::exit(2);
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  std::fclose(f);
  return ok;
}

std::string stats_json(const net::Server& sv) {
  const net::ServerStats s = sv.stats();
  const net::ReplicaStore::Counters c = sv.store().counters();
  const rt::OLock::Counters oc = sv.store().olock_counters();
  obs::JsonWriter w;
  w.begin_object()
      .field("schema", "optrep.serve.stats/v1")
      .field("workers", std::uint64_t{sv.config().workers})
      .field("replicas", sv.store().replicas())
      .field("conns_accepted", s.conns_accepted)
      .field("conns_closed", s.conns_closed)
      .field("hellos", s.hellos)
      .field("bad_hellos", s.bad_hellos)
      .field("sessions_completed", s.sessions_completed)
      .field("sessions_aborted", s.sessions_aborted)
      .field("compare_sessions", s.compare_sessions)
      .field("push_sessions", s.push_sessions)
      .field("pull_sessions", s.pull_sessions)
      .field("commits", s.commits)
      .field("noops", s.noops)
      .field("capacity_rejects", s.capacity_rejects)
      .field("parked", s.parked)
      .field("bytes_rx", s.bytes_rx)
      .field("bytes_tx", s.bytes_tx)
      .field("decode_errors", s.decode_errors)
      .field("backpressure_pauses", s.backpressure_pauses)
      .field("store_snapshots", c.snapshots)
      .field("store_snapshot_retries", c.snapshot_retries)
      .field("store_snapshot_fallbacks", c.snapshot_fallbacks)
      .field("store_commits", c.commits)
      .field("store_capacity_rejects", c.capacity_rejects)
      .field("store_write_parks", c.write_parks)
      .field("olock_acquisitions", oc.acquisitions)
      .field("olock_opt_retries", oc.opt_retries)
      .field("olock_queue_waits", oc.queue_waits)
      .end_object();
  return w.take();
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerConfig cfg;
  std::string port_file;
  std::string stats_out;
  std::uint32_t max_seconds = 0;
  std::uint64_t seed = 1;
  std::uint32_t prefill = 0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (cli::take(argv[i], "--host", &v)) {
      if (v.empty()) usage("--host needs an address");
      cfg.host = v;
    } else if (cli::take(argv[i], "--port", &v)) {
      cfg.port = cli::parse_port(v, usage, "--port must be an integer in [0, 65535]");
    } else if (cli::take(argv[i], "--workers", &v)) {
      cfg.workers =
          cli::parse_positive_unsigned(v, usage, "--workers must be a positive integer worker count");
    } else if (cli::take(argv[i], "--kind", &v)) {
      cfg.store.kind = cli::parse_kind(v, usage, "--kind must be brv, crv or srv");
    } else if (cli::take(argv[i], "--replicas", &v)) {
      cfg.store.replicas =
          cli::parse_positive_u32(v, usage, "--replicas must be a positive integer");
    } else if (cli::take(argv[i], "--capacity", &v)) {
      cfg.store.site_capacity =
          cli::parse_positive_u32(v, usage, "--capacity must be a positive integer");
    } else if (cli::take(argv[i], "--prefill", &v)) {
      prefill = cli::parse_u32(v, usage, "--prefill must be a non-negative integer");
    } else if (cli::take(argv[i], "--seed", &v)) {
      seed = cli::parse_u64(v, usage, "--seed must be a non-negative integer");
    } else if (cli::take(argv[i], "--port-file", &v)) {
      if (v.empty()) usage("--port-file needs a file path");
      port_file = v;
    } else if (cli::take(argv[i], "--stats-out", &v)) {
      if (v.empty()) usage("--stats-out needs a file path");
      stats_out = v;
    } else if (cli::take(argv[i], "--max-seconds", &v)) {
      max_seconds = cli::parse_u32(v, usage, "--max-seconds must be a non-negative integer");
    } else {
      usage((std::string("unknown option: ") + argv[i]).c_str());
    }
  }
  if (cfg.store.site_capacity < cfg.store.replicas) {
    usage("--capacity must be >= --replicas (own sites must fit)");
  }
  cfg.store.seed = seed;
  cfg.store.prefill_updates = prefill;

  net::Server server(cfg);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "optrep_serve: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "optrep_serve: listening on %s:%u (%u worker%s)\n",
               cfg.host.c_str(), server.port(), cfg.workers, cfg.workers == 1 ? "" : "s");
  if (!port_file.empty() &&
      !write_file(port_file, std::to_string(server.port()) + "\n")) {
    std::fprintf(stderr, "optrep_serve: cannot write %s\n", port_file.c_str());
    server.stop();
    return 1;
  }

  struct sigaction sa {};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(max_seconds);
  while (g_stop == 0) {
    if (max_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  const std::string json = stats_json(server);
  if (!stats_out.empty() && !write_file(stats_out, json + "\n")) {
    std::fprintf(stderr, "optrep_serve: cannot write %s\n", stats_out.c_str());
    return 1;
  }
  const net::ServerStats s = server.stats();
  std::fprintf(stderr,
               "optrep_serve: %llu sessions (%llu aborted), %llu commits, "
               "%llu parked, %llu bytes rx, %llu bytes tx\n",
               static_cast<unsigned long long>(s.sessions_completed),
               static_cast<unsigned long long>(s.sessions_aborted),
               static_cast<unsigned long long>(s.commits),
               static_cast<unsigned long long>(s.parked),
               static_cast<unsigned long long>(s.bytes_rx),
               static_cast<unsigned long long>(s.bytes_tx));
  return 0;
}
