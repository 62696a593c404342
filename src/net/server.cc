#include "net/server.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <unordered_map>

#include "common/check.h"
#include "net/epoll_loop.h"
#include "net/session_engine.h"
#include "rt/thread_pool.h"

namespace optrep::net {

namespace {
constexpr std::uint64_t kListenerToken = 0;  // conn tokens start at 1
constexpr int kWaitMs = 100;                 // stop() poll granularity
}  // namespace

struct Server::AtomicStats {
  std::atomic<std::uint64_t> conns_accepted{0};
  std::atomic<std::uint64_t> conns_closed{0};
  std::atomic<std::uint64_t> hellos{0};
  std::atomic<std::uint64_t> bad_hellos{0};
  std::atomic<std::uint64_t> sessions_completed{0};
  std::atomic<std::uint64_t> sessions_aborted{0};
  std::atomic<std::uint64_t> compare_sessions{0};
  std::atomic<std::uint64_t> push_sessions{0};
  std::atomic<std::uint64_t> pull_sessions{0};
  std::atomic<std::uint64_t> commits{0};
  std::atomic<std::uint64_t> noops{0};
  std::atomic<std::uint64_t> capacity_rejects{0};
  std::atomic<std::uint64_t> parked{0};
  std::atomic<std::uint64_t> bytes_rx{0};
  std::atomic<std::uint64_t> bytes_tx{0};
  std::atomic<std::uint64_t> decode_errors{0};
  std::atomic<std::uint64_t> backpressure_pauses{0};
};

// One connection, owned by exactly one worker: the engine plus the server's
// shell state around it. `session.work()` is the session-private replica
// clone that makes aborts free (drop it) and commits transactional (replay
// it); the HELLO fields outlive a parked ACCEPT.
struct Server::Conn final : SessionEngine::Host {
  explicit Conn(Server* s) : sv(s) {}

  Server* sv;
  Fd fd;
  std::uint64_t token{0};
  StreamDecoder in;
  SessionEngine session{this};
  bool want_write{false};
  bool eof{false};
  bool close_after_flush{false};  // rejected HELLO: flush the status, drop

  enum class State : std::uint8_t {
    kPreamble,  // awaiting the connection magic
    kIdle,      // between sessions, awaiting HELLO
    kParked,    // push HELLO waiting on the replica's write ticket
    kSession,   // ACCEPT sent; the engine runs the session
  };
  State state{State::kPreamble};

  SessionKind kind{SessionKind::kCompare};
  bool pull{false};
  bool saw{false};  // stop-and-wait flow control
  std::uint32_t replica{0};
  bool owns_write{false};

  // The push commit point: everything before it is a receiver no-op.
  DoneStatus commit(vv::RotatingVector& work) override {
    if (sv->store_.commit(replica, work)) {
      sv->stats_->commits.fetch_add(1, std::memory_order_relaxed);
      return DoneStatus::kCommitted;
    }
    sv->stats_->capacity_rejects.fetch_add(1, std::memory_order_relaxed);
    return DoneStatus::kCapacity;
  }
};

struct Server::Worker {
  explicit Worker(unsigned idx) : index(idx) {}

  unsigned index;
  EpollLoop loop;

  // Cross-thread inbox: new connections from the acceptor, write-ticket
  // resumes from releasing workers. Drained after every wait().
  struct Task {
    int fd{-1};
    std::uint64_t token{0};
    std::uint32_t replica{0};
    bool is_resume{false};
  };
  std::mutex mu;
  std::vector<Task> inbox;

  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_token{1};
};

Server::Server(const ServerConfig& cfg)
    : cfg_(cfg), store_(cfg.store), stats_(std::make_unique<AtomicStats>()) {
  if (cfg_.workers == 0) cfg_.workers = 1;
}

Server::~Server() { stop(); }

bool Server::start(std::string* err) {
  OPTREP_CHECK_MSG(!running_.load(), "server already started");
  listener_ = listen_tcp(cfg_.host, cfg_.port, cfg_.backlog, &port_, err);
  if (!listener_.valid()) return false;
  if (!set_nonblocking(listener_.get(), true)) {
    if (err) *err = "failed to set listener non-blocking";
    return false;
  }
  workers_.clear();
  for (unsigned w = 0; w < cfg_.workers; ++w) {
    workers_.push_back(std::make_unique<Worker>(w));
    if (!workers_.back()->loop.valid()) {
      if (err) *err = "failed to create epoll loop";
      workers_.clear();
      return false;
    }
  }
  workers_[0]->loop.add(listener_.get(), kListenerToken, /*want_read=*/true,
                        /*want_write=*/false);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  pool_thread_ = std::thread([this] {
    rt::ThreadPool pool(cfg_.workers);
    pool.for_each_index(cfg_.workers,
                        [this](std::size_t w) { worker_loop(static_cast<unsigned>(w)); });
  });
  return true;
}

void Server::stop() {
  if (!pool_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  for (auto& w : workers_) w->loop.wake();
  pool_thread_.join();
  running_.store(false, std::memory_order_release);
  listener_.reset();
}

ServerStats Server::stats() const {
  const AtomicStats& a = *stats_;
  ServerStats s;
  s.conns_accepted = a.conns_accepted.load(std::memory_order_relaxed);
  s.conns_closed = a.conns_closed.load(std::memory_order_relaxed);
  s.hellos = a.hellos.load(std::memory_order_relaxed);
  s.bad_hellos = a.bad_hellos.load(std::memory_order_relaxed);
  s.sessions_completed = a.sessions_completed.load(std::memory_order_relaxed);
  s.sessions_aborted = a.sessions_aborted.load(std::memory_order_relaxed);
  s.compare_sessions = a.compare_sessions.load(std::memory_order_relaxed);
  s.push_sessions = a.push_sessions.load(std::memory_order_relaxed);
  s.pull_sessions = a.pull_sessions.load(std::memory_order_relaxed);
  s.commits = a.commits.load(std::memory_order_relaxed);
  s.noops = a.noops.load(std::memory_order_relaxed);
  s.capacity_rejects = a.capacity_rejects.load(std::memory_order_relaxed);
  s.parked = a.parked.load(std::memory_order_relaxed);
  s.bytes_rx = a.bytes_rx.load(std::memory_order_relaxed);
  s.bytes_tx = a.bytes_tx.load(std::memory_order_relaxed);
  s.decode_errors = a.decode_errors.load(std::memory_order_relaxed);
  s.backpressure_pauses = a.backpressure_pauses.load(std::memory_order_relaxed);
  return s;
}

// ---- worker reactor --------------------------------------------------------

void Server::worker_loop(unsigned w) {
  Worker& wk = *workers_[w];
  std::vector<EpollLoop::Ready> ready;
  std::vector<Worker::Task> tasks;
  while (!stopping_.load(std::memory_order_acquire)) {
    wk.loop.wait(ready, kWaitMs);
    {
      std::lock_guard<std::mutex> g(wk.mu);
      tasks.swap(wk.inbox);
    }
    for (const auto& t : tasks) {
      if (t.is_resume) {
        resume_parked(wk, t.token, t.replica);
      } else {
        adopt_conn(wk, t.fd);
      }
    }
    tasks.clear();
    for (const auto& r : ready) {
      if (w == 0 && r.token == kListenerToken) {
        accept_ready();
        continue;
      }
      auto it = wk.conns.find(r.token);
      if (it == wk.conns.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if (r.error) {
        close_conn(wk, c);
        continue;
      }
      if (r.readable && !on_readable(wk, c)) continue;
      if (r.writable) {
        auto again = wk.conns.find(r.token);
        if (again != wk.conns.end()) on_writable(wk, *again->second);
      }
    }
  }
  wk.conns.clear();  // closes the fds; tickets die with the store
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or transient accept failure
    }
    set_nonblocking(fd, true);
    set_nodelay(fd);
    stats_->conns_accepted.fetch_add(1, std::memory_order_relaxed);
    const unsigned target =
        next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
    if (target == 0) {
      adopt_conn(*workers_[0], fd);
    } else {
      Worker& wk = *workers_[target];
      {
        std::lock_guard<std::mutex> g(wk.mu);
        wk.inbox.push_back(Worker::Task{.fd = fd});
      }
      wk.loop.wake();
    }
  }
}

void Server::adopt_conn(Worker& wk, int fd) {
  auto c = std::make_unique<Conn>(this);
  c->fd = Fd(fd);
  c->token = wk.next_token++;
  if (!wk.loop.add(fd, c->token, /*want_read=*/true, /*want_write=*/false)) {
    stats_->conns_closed.fetch_add(1, std::memory_order_relaxed);
    return;  // c's destructor closes the fd
  }
  wk.conns.emplace(c->token, std::move(c));
}

void Server::post_resume(ReplicaStore::Waiter next, std::uint32_t replica) {
  Worker& wk = *workers_[next.worker];
  {
    std::lock_guard<std::mutex> g(wk.mu);
    wk.inbox.push_back(
        Worker::Task{.token = next.token, .replica = replica, .is_resume = true});
  }
  wk.loop.wake();
}

void Server::resume_parked(Worker& wk, std::uint64_t token, std::uint32_t replica) {
  auto it = wk.conns.find(token);
  if (it == wk.conns.end() || it->second->state != Conn::State::kParked) {
    // The waiter died after ownership transfer (cancel_wait returned false at
    // close): we hold the ticket on its behalf — pass it on.
    if (const auto next = store_.release_write(replica)) post_resume(*next, replica);
    return;
  }
  Conn& c = *it->second;
  c.owns_write = true;
  begin_session(c);
  if (!dispatch_items(wk, c)) return;  // the HELLO-pipelined probe is queued
  finish_io(wk, c);
}

// ---- per-connection I/O ----------------------------------------------------

bool Server::on_readable(Worker& wk, Conn& c) {
  std::uint8_t buf[65536];
  for (;;) {  // drain to EAGAIN: required under edge triggering
    const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
    if (n > 0) {
      stats_->bytes_rx.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      c.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      c.eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_conn(wk, c);
    return false;
  }
  if (!dispatch_items(wk, c)) return false;
  if (c.eof) {
    close_conn(wk, c);
    return false;
  }
  return finish_io(wk, c);
}

bool Server::on_writable(Worker& wk, Conn& c) { return finish_io(wk, c); }

// Flush the write buffer to EAGAIN. False on a hard socket error.
bool Server::flush_out(Conn& c) {
  SessionEngine& s = c.session;
  while (s.out_size() > 0) {
    const ssize_t n = ::write(c.fd.get(), s.out_data(), s.out_size());
    if (n > 0) {
      s.consume(static_cast<std::size_t>(n));
      stats_->bytes_tx.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

// Run the sender pump / flush cycle until neither makes progress, then re-arm
// epoll write interest to match the remaining buffer.
bool Server::finish_io(Worker& wk, Conn& c) {
  for (;;) {
    if (c.session.can_pump()) {
      c.session.pump();
      if (c.session.pump_pending()) {  // stopped at the watermark
        stats_->backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (!flush_out(c)) {
      close_conn(wk, c);
      return false;
    }
    if (!c.session.can_pump()) break;
  }
  if (c.close_after_flush && c.session.out_size() == 0) {
    close_conn(wk, c);
    return false;
  }
  const bool ww = c.session.out_size() > 0;
  if (ww != c.want_write) {
    c.want_write = ww;
    wk.loop.mod(c.fd.get(), c.token, /*want_read=*/true, ww);
  }
  return true;
}

// ---- session shell ---------------------------------------------------------

bool Server::dispatch_items(Worker& wk, Conn& c) {
  using IT = StreamDecoder::ItemType;
  for (;;) {
    if (c.state == Conn::State::kParked || c.close_after_flush) return true;
    const StreamDecoder::Item item = c.in.next();
    switch (item.type) {
      case IT::kNeedMore:
        return true;
      case IT::kError:
        stats_->decode_errors.fetch_add(1, std::memory_order_relaxed);
        close_conn(wk, c);
        return false;
      case IT::kMagic:
        if (c.state != Conn::State::kPreamble) {
          close_conn(wk, c);
          return false;
        }
        c.state = Conn::State::kIdle;
        break;
      case IT::kHello:
        if (c.state != Conn::State::kIdle) {
          close_conn(wk, c);
          return false;
        }
        handle_hello(wk, c, item);
        break;
      default:  // messages, END, DONE — and ACCEPT, which the engine refuses
        if (!c.session.on_item(item)) {
          close_conn(wk, c);  // a protocol breach
          return false;
        }
        if (c.state == Conn::State::kSession && !c.session.active()) end_session(c);
        break;
    }
  }
}

void Server::handle_hello(Worker& wk, Conn& c, const StreamDecoder::Item& item) {
  stats_->hellos.fetch_add(1, std::memory_order_relaxed);
  c.kind = item.kind;
  c.pull = (item.flags & kHelloFlagPull) != 0;
  c.saw = (item.flags & kHelloFlagStopAndWait) != 0;
  c.replica = item.replica;

  AcceptStatus st = AcceptStatus::kOk;
  if (stopping_.load(std::memory_order_acquire)) {
    st = AcceptStatus::kShutdown;
  } else if (c.replica >= store_.replicas()) {
    st = AcceptStatus::kBadReplica;
  } else if (c.kind > SessionKind::kSyncS ||
             (c.kind != SessionKind::kCompare && vector_kind_of(c.kind) != store_.kind())) {
    st = AcceptStatus::kBadKind;
  }
  if (st != AcceptStatus::kOk) {
    stats_->bad_hellos.fetch_add(1, std::memory_order_relaxed);
    put_accept(c.session.out(), st);
    c.close_after_flush = true;
    return;
  }

  // Push sessions own the replica's write ticket from before the snapshot to
  // after the commit — whole-session serialization (replica_store.h).
  const bool is_push = c.kind != SessionKind::kCompare && !c.pull;
  if (is_push &&
      !store_.acquire_write(c.replica, ReplicaStore::Waiter{wk.index, c.token})) {
    stats_->parked.fetch_add(1, std::memory_order_relaxed);
    c.state = Conn::State::kParked;  // ACCEPT deferred to resume_parked
    return;
  }
  c.owns_write = is_push;
  begin_session(c);
}

void Server::begin_session(Conn& c) {
  store_.snapshot(c.replica, &c.session.work());
  put_accept(c.session.out(), AcceptStatus::kOk);
  c.state = Conn::State::kSession;
  c.session.begin(c.kind, /*data_sender=*/c.kind != SessionKind::kCompare && c.pull, c.saw,
                  store_.own_site(c.replica));
}

// The DONE exchange completed, in either direction.
void Server::end_session(Conn& c) {
  stats_->sessions_completed.fetch_add(1, std::memory_order_relaxed);
  if (c.session.done() == DoneStatus::kNoop) {
    stats_->noops.fetch_add(1, std::memory_order_relaxed);
  }
  switch (c.kind) {
    case SessionKind::kCompare:
      stats_->compare_sessions.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      (c.pull ? stats_->pull_sessions : stats_->push_sessions)
          .fetch_add(1, std::memory_order_relaxed);
      break;
  }
  release_ticket(c);
  c.state = Conn::State::kIdle;
}

void Server::release_ticket(Conn& c) {
  if (!c.owns_write) return;
  c.owns_write = false;
  if (const auto next = store_.release_write(c.replica)) post_resume(*next, c.replica);
}

void Server::close_conn(Worker& wk, Conn& c) {
  stats_->conns_closed.fetch_add(1, std::memory_order_relaxed);
  if (c.state == Conn::State::kParked || c.state == Conn::State::kSession) {
    stats_->sessions_aborted.fetch_add(1, std::memory_order_relaxed);
    if (c.state == Conn::State::kParked) {
      // cancel_wait false ⇒ a release already transferred the ticket to this
      // (now dead) waiter; its in-flight resume finds the token gone and
      // re-releases on our behalf (resume_parked).
      store_.cancel_wait(c.replica, ReplicaStore::Waiter{wk.index, c.token});
    } else {
      release_ticket(c);
    }
    // The private clone is simply dropped: the live replica never saw any of
    // this session.
  }
  wk.loop.del(c.fd.get());
  const std::uint64_t token = c.token;
  wk.conns.erase(token);  // destroys c — nothing may touch it past here
}

}  // namespace optrep::net
