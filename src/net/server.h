// The epoll-driven async sync server.
//
// One process, N reactor workers on an rt::ThreadPool (worker 0 also owns
// the listener; accepted connections are dealt round-robin through per-worker
// inboxes + an eventfd wake). Each worker runs its own edge-triggered
// net::EpollLoop and owns its connections outright — no cross-worker
// connection state, so the only sharing is the ReplicaStore, which
// serializes writers per slot and serves readers optimistically.
//
// The session itself is net::SessionEngine (session_engine.h), the same
// engine the client runs; the server is the data receiver on a push or
// COMPARE session and the data sender on a pull. What the server adds is
// the I/O shell around it:
//
//   HELLO validation → [write ticket, push only] → snapshot into the
//   engine's clone → ACCEPT → engine session → ReplicaStore::commit at the
//   engine's commit point (push) → release the ticket
//
// Sessions run on a private snapshot and commit whole or not at all: any
// disconnect, decode error, or slow-client teardown before the commit point
// discards the clone, so a failed session leaves the receiver replica
// byte-identical by construction rather than by rollback. Slow readers exert
// backpressure on the sender pump through the engine's write-buffer
// watermark; partial records are the stream decoder's problem (frame_codec's
// resumable kTruncated contract).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/replica_store.h"
#include "net/socket.h"
#include "net/wire_stream.h"

namespace optrep::net {

struct ServerConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};  // 0 = ephemeral; see Server::port()
  unsigned workers{1};
  ReplicaStore::Config store{};
  int backlog{128};
};

// Monotonic server counters; snapshot() is exact once stop() returned.
struct ServerStats {
  std::uint64_t conns_accepted{0};
  std::uint64_t conns_closed{0};
  std::uint64_t hellos{0};
  std::uint64_t bad_hellos{0};  // rejected ACCEPTs (kind/replica mismatch)
  std::uint64_t sessions_completed{0};
  std::uint64_t sessions_aborted{0};  // disconnect/error mid-session
  std::uint64_t compare_sessions{0};
  std::uint64_t push_sessions{0};
  std::uint64_t pull_sessions{0};
  std::uint64_t commits{0};
  std::uint64_t noops{0};
  std::uint64_t capacity_rejects{0};
  std::uint64_t parked{0};
  std::uint64_t bytes_rx{0};
  std::uint64_t bytes_tx{0};
  std::uint64_t decode_errors{0};
  std::uint64_t backpressure_pauses{0};
};

class Server {
 public:
  explicit Server(const ServerConfig& cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Bind and launch the worker pool on a background thread. False + *err on
  // bind failure. Idempotent stop(); the destructor stops too.
  bool start(std::string* err);
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  std::uint16_t port() const { return port_; }
  const ServerConfig& config() const { return cfg_; }

  ServerStats stats() const;
  ReplicaStore& store() { return store_; }
  const ReplicaStore& store() const { return store_; }

 private:
  struct Conn;
  struct Worker;

  void worker_loop(unsigned w);
  void accept_ready();
  void adopt_conn(Worker& wk, int fd);
  void post_resume(ReplicaStore::Waiter next, std::uint32_t replica);
  void resume_parked(Worker& wk, std::uint64_t token, std::uint32_t replica);

  // Connection event handling (defined in server.cc). Handlers returning
  // bool report false when they closed the connection.
  bool on_readable(Worker& wk, Conn& c);
  bool on_writable(Worker& wk, Conn& c);
  bool flush_out(Conn& c);
  bool finish_io(Worker& wk, Conn& c);
  bool dispatch_items(Worker& wk, Conn& c);
  void handle_hello(Worker& wk, Conn& c, const StreamDecoder::Item& item);
  void begin_session(Conn& c);
  void end_session(Conn& c);
  void release_ticket(Conn& c);
  void close_conn(Worker& wk, Conn& c);

  ServerConfig cfg_;
  ReplicaStore store_;
  Fd listener_;
  std::uint16_t port_{0};
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread pool_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> running_{false};
  std::atomic<std::uint32_t> next_worker_{0};  // round-robin accept target

  // Stats (atomics; ServerStats is the plain snapshot).
  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace optrep::net
