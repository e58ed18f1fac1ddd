#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "util/assert.hpp"

namespace msrp::net {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("event loop: epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("event loop: eventfd failed");
  }
  ::epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw std::runtime_error("event loop: cannot register wakeup fd");
  }
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  MSRP_CHECK(fd >= 0 && fd != wake_fd_, "event loop: bad fd");
  ::epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw std::runtime_error("event loop: epoll_ctl(ADD) failed");
  }
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  ::epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw std::runtime_error("event loop: epoll_ctl(MOD) failed");
  }
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);  // fd may already be closed
  handlers_.erase(fd);
}

void EventLoop::drain_wakeup() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof count) == sizeof count) {
  }
}

void EventLoop::run_posted() {
  // Swap the queue out under the lock, run outside it: a posted closure may
  // itself post (or stop) without deadlocking.
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::run() {
  loop_thread_ = std::this_thread::get_id();
  std::vector<::epoll_event> events(64);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      if (stop_requested_) {
        stop_requested_ = false;  // a later run() starts fresh
        return;
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events.data(), static_cast<int>(events.size()),
                               tick_interval_ms_);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("event loop: epoll_wait failed");
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == wake_fd_) {
        drain_wakeup();
        continue;
      }
      // Re-check per event: an earlier handler this round may have removed
      // this fd (e.g. closing a connection that was also writable).
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<FdHandler> handler = it->second;
      (*handler)(events[static_cast<std::size_t>(i)].events);
    }
    run_posted();
    if (tick_) tick_();
    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);
  }
}

void EventLoop::stop() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    stop_requested_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::set_tick(std::function<void()> fn, int interval_ms) {
  tick_ = std::move(fn);
  tick_interval_ms_ = tick_ ? interval_ms : -1;
}

}  // namespace msrp::net
