// Non-blocking epoll event loop — the reactor under one server worker.
//
// Edge-triggered: the server's read path drains to EAGAIN and its write path
// flushes to EAGAIN on every readiness report, which is the discipline ET
// requires.
//
// Each registered fd carries a caller token (connection id); readiness
// reports come back token-tagged. wake() is the only thread-safe entry point:
// it pokes an internal eventfd so a wait() parked in epoll_wait returns and
// the owning worker can drain its cross-thread inbox.
#pragma once

#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace optrep::net {

class EpollLoop {
 public:
  EpollLoop();
  ~EpollLoop() = default;
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  bool valid() const { return epfd_.valid() && wakefd_.valid(); }

  // Register / re-arm / remove an fd. `token` tags readiness reports.
  bool add(int fd, std::uint64_t token, bool want_read, bool want_write);
  bool mod(int fd, std::uint64_t token, bool want_read, bool want_write);
  void del(int fd);

  struct Ready {
    std::uint64_t token{0};
    bool readable{false};
    bool writable{false};
    bool error{false};  // EPOLLERR/EPOLLHUP: tear the connection down
  };

  // Block up to timeout_ms (-1 = forever) and fill `out` with readiness
  // reports; wake() pokes are absorbed internally (they just cause an early
  // return with whatever else was ready). Returns false on a fatal
  // epoll_wait error.
  bool wait(std::vector<Ready>& out, int timeout_ms);

  // Thread-safe: make a concurrent wait() return promptly.
  void wake();

 private:
  Fd epfd_;
  Fd wakefd_;
};

}  // namespace optrep::net
