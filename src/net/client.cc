#include "net/client.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "common/check.h"
#include "net/session_engine.h"

namespace optrep::net {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

bool SyncClient::connect(std::string* err) {
  fd_ = connect_tcp(opt_.host, opt_.port, err);
  if (!fd_.valid()) return false;
  std::size_t off = 0;  // blocking magic write, then the socket goes async
  while (off < sizeof kMagic) {
    const ssize_t n = ::write(fd_.get(), kMagic + off, sizeof kMagic - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (err) *err = "failed to send connection magic";
    fd_.reset();
    return false;
  }
  set_nonblocking(fd_.get(), true);
  in_ = StreamDecoder{};
  return true;
}

// One session's I/O shell around the engine. The gate runs the fault plan;
// the commit point replaces *spec.mine. Methods returning bool report false
// when the session is over early (fault kill or fatal error) — the caller
// unwinds straight out of the loop.
struct SyncClient::Session final : SessionEngine::Host {
  SyncClient& cl;
  const SessionSpec& spec;
  SessionResult res;
  SessionEngine engine{this};
  bool accepted{false};

  Session(SyncClient& c, const SessionSpec& s) : cl(c), spec(s) {}

  bool over() const {
    return res.accept != AcceptStatus::kOk || (accepted && !engine.active());
  }

  // Write up to `len` pending bytes. False on a hard socket error.
  bool write_some(std::size_t len) {
    const ssize_t n =
        ::write(cl.fd_.get(), engine.out_data(), std::min(len, engine.out_size()));
    if (n > 0) {
      engine.consume(static_cast<std::size_t>(n));
      res.bytes_tx += static_cast<std::uint64_t>(n);
      return true;
    }
    return n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK);
  }

  // Best-effort synchronous drain of the write buffer (bounded by the
  // session deadline's order of magnitude). The fault gate uses it so that
  // "kill before record k" puts records 1..k-1 on the wire first — the
  // server must observe a *mid-session* disconnect, not an empty one.
  void flush_pending() {
    const auto give_up = Clock::now() + std::chrono::seconds(2);
    while (engine.out_size() > 0 && cl.fd_.valid() && Clock::now() < give_up) {
      struct pollfd p {};
      p.fd = cl.fd_.get();
      p.events = POLLOUT;
      if (::poll(&p, 1, 100) > 0 && !write_some(engine.out_size())) break;
    }
  }

  // Records 1..4 exist in every session shape (HELLO, probe, verdict, then
  // END / DONE / first transfer record), so kill/stall points in that range
  // fire independently of server state — the load generator relies on this
  // for reproducible summaries.
  bool gate() override {
    ++res.records_out;
    if (spec.fault.kind == FaultPlan::Kind::kNone ||
        res.records_out != spec.fault.before_record) {
      return true;
    }
    flush_pending();  // the wire carries every record before the cut or stall
    if (spec.fault.kind == FaultPlan::Kind::kStall) {
      res.stalled = true;  // the server sees a genuinely slow client, not a batch
      std::this_thread::sleep_for(std::chrono::milliseconds(spec.fault.stall_ms));
      return true;
    }
    res.killed = true;
    cl.fd_.reset();  // abrupt disconnect: the partial session must be a no-op
    return false;
  }

  DoneStatus commit(vv::RotatingVector& work) override {
    *spec.mine = work;
    return DoneStatus::kCommitted;
  }

  bool fatal(const char* what) {
    res.error = what;
    cl.fd_.reset();
    return false;
  }

  bool process_items() {
    for (;;) {
      const StreamDecoder::Item item = cl.in_.next();
      switch (item.type) {
        case StreamDecoder::ItemType::kNeedMore:
          return true;
        case StreamDecoder::ItemType::kError:
          return fatal("stream decode error");
        case StreamDecoder::ItemType::kAccept:
          if (accepted) return fatal("unexpected ACCEPT");
          accepted = true;
          res.accept = static_cast<AcceptStatus>(item.status);
          break;  // a rejection ends the session: the server flushes it and closes
        default:
          if (!accepted) return fatal("record before ACCEPT");
          if (!engine.on_item(item)) return res.killed ? false : fatal(engine.breach());
          break;
      }
      if (over()) return true;
    }
  }

  SessionResult result() {
    res.relation = engine.relation();
    res.transfer = engine.transfer();
    res.done = engine.done();
    res.elems_sent = engine.elems_sent();
    res.elems_applied = engine.elems_applied();
    return res;
  }
};

SyncClient::SessionResult SyncClient::run_session(const SessionSpec& spec) {
  OPTREP_CHECK_MSG(spec.mine != nullptr, "run_session needs the client vector");
  Session s(*this, spec);
  if (!fd_.valid()) {
    s.res.error = "not connected";
    return s.res;
  }
  s.engine.work() = *spec.mine;

  // HELLO and our COMPARE probe leave in one batch.
  const std::uint8_t flags =
      static_cast<std::uint8_t>((spec.pull ? kHelloFlagPull : 0) |
                                (spec.stop_and_wait ? kHelloFlagStopAndWait : 0));
  if (!s.gate()) return s.result();
  put_hello(s.engine.out(), spec.kind, flags, spec.replica);
  const bool data_sender = spec.kind == SessionKind::kCompare || !spec.pull;
  if (!s.engine.begin(spec.kind, data_sender, spec.stop_and_wait, spec.own_site)) {
    return s.result();
  }

  const auto deadline = Clock::now() + std::chrono::milliseconds(opt_.timeout_ms);
  const std::size_t chunk = opt_.io_chunk == 0 ? 1 : opt_.io_chunk;
  std::vector<std::uint8_t> rbuf(std::min<std::size_t>(chunk, 65536));

  while (!(s.over() && s.engine.out_size() == 0)) {
    if (!s.engine.pump()) return s.result();

    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      s.fatal("session timeout");
      return s.result();
    }
    struct pollfd p {};
    p.fd = fd_.get();
    p.events = static_cast<short>(POLLIN | (s.engine.out_size() > 0 ? POLLOUT : 0));
    const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      s.fatal("poll failed");
      return s.result();
    }
    if (rc == 0) continue;  // re-check the deadline

    if ((p.revents & POLLOUT) != 0 && s.engine.out_size() > 0 && !s.write_some(chunk)) {
      s.fatal("write failed");
      return s.result();
    }
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t n = ::read(fd_.get(), rbuf.data(), rbuf.size());
      if (n > 0) {
        s.res.bytes_rx += static_cast<std::uint64_t>(n);
        in_.append(rbuf.data(), static_cast<std::size_t>(n));
        if (!s.process_items()) return s.result();
      } else if (n == 0) {
        if (s.over()) break;  // e.g. the bad-ACCEPT close
        s.fatal("server closed connection");
        return s.result();
      } else if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        s.fatal("read failed");
        return s.result();
      }
    }
  }

  if (s.res.accept != AcceptStatus::kOk) {
    fd_.reset();  // the server is closing this connection
  }
  s.res.ok = s.res.accept == AcceptStatus::kOk;
  return s.result();
}

}  // namespace optrep::net
