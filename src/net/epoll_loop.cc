#include "net/epoll_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>

namespace optrep::net {

namespace {

// Reserved token for the internal wake eventfd; connection tokens are
// sequence numbers and never reach this value.
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

bool set_interest(int epfd, int op, int fd, std::uint64_t token, bool want_read,
                  bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u) | EPOLLRDHUP | EPOLLET;
  ev.data.u64 = token;
  return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

}  // namespace

EpollLoop::EpollLoop()
    : epfd_(::epoll_create1(EPOLL_CLOEXEC)), wakefd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  if (epfd_.valid() && wakefd_.valid()) {
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: stays readable until drained
    ev.data.u64 = kWakeToken;
    if (::epoll_ctl(epfd_.get(), EPOLL_CTL_ADD, wakefd_.get(), &ev) != 0) {
      epfd_.reset();
    }
  }
}

bool EpollLoop::add(int fd, std::uint64_t token, bool want_read, bool want_write) {
  return set_interest(epfd_.get(), EPOLL_CTL_ADD, fd, token, want_read, want_write);
}

bool EpollLoop::mod(int fd, std::uint64_t token, bool want_read, bool want_write) {
  return set_interest(epfd_.get(), EPOLL_CTL_MOD, fd, token, want_read, want_write);
}

void EpollLoop::del(int fd) {
  ::epoll_ctl(epfd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

bool EpollLoop::wait(std::vector<Ready>& out, int timeout_ms) {
  out.clear();
  epoll_event evs[64];
  int n;
  do {
    n = ::epoll_wait(epfd_.get(), evs, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return false;
  for (int i = 0; i < n; ++i) {
    if (evs[i].data.u64 == kWakeToken) {
      std::uint64_t drained = 0;
      while (::read(wakefd_.get(), &drained, sizeof(drained)) > 0) {
      }
      continue;
    }
    Ready r;
    r.token = evs[i].data.u64;
    r.readable = (evs[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    r.writable = (evs[i].events & EPOLLOUT) != 0;
    r.error = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(r);
  }
  return true;
}

void EpollLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wakefd_.get(), &one, sizeof(one));
}

}  // namespace optrep::net
