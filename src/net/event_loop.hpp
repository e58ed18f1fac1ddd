/// \file
/// Minimal epoll reactor for the network serving layer.
///
/// One EventLoop owns one epoll instance and runs on exactly one thread
/// (the thread that calls run()). File-descriptor handlers fire on that
/// thread, which is what lets the Server keep all per-connection state
/// lock-free: every mutation happens on the loop thread.
///
/// The bridge from other threads is post(): enqueue a closure under a
/// mutex and ring an eventfd doorbell registered with the epoll set —
/// epoll_wait wakes immediately and the loop runs the closure on its own
/// thread. This is how QueryService batch completions (which fire on pool
/// workers) hand replies back to the connection that asked. stop() is
/// post()-based too, so it is safe from any thread and from handlers.
///
/// add_fd/modify_fd/remove_fd are loop-thread-only (or before run()):
/// the handler table is deliberately unsynchronized. Removing an fd whose
/// events are already harvested is safe — dispatch re-checks the table per
/// event and skips entries removed by an earlier handler in the round.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace msrp::net {

class EventLoop {
 public:
  /// Called with the ready epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdHandler = std::function<void(std::uint32_t)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  void add_fd(int fd, std::uint32_t events, FdHandler handler);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  /// Runs until stop(); dispatches fd events, posted closures, and the
  /// periodic tick (if set). Call from exactly one thread.
  void run();

  /// Requests run() to return after the current dispatch round. Safe from
  /// any thread, including handlers and posted closures.
  void stop();

  /// Runs `fn` on the loop thread during the next dispatch round, waking
  /// the loop via the eventfd doorbell. Safe from any thread. Closures
  /// posted after stop() are destroyed unrun when the loop is destroyed.
  void post(std::function<void()> fn);

  /// Installs a callback invoked at least every `interval_ms` while the
  /// loop runs (epoll_wait timeout) — the Server's drain-deadline check.
  /// Loop-thread-only (or before run()).
  void set_tick(std::function<void()> fn, int interval_ms);

  bool in_loop_thread() const { return std::this_thread::get_id() == loop_thread_; }

 private:
  void drain_wakeup();
  void run_posted();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread::id loop_thread_;
  // Loop-thread-only. shared_ptr so a handler that removes (or replaces)
  // an fd mid-dispatch cannot free the std::function currently executing.
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
  std::function<void()> tick_;
  int tick_interval_ms_ = -1;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool stop_requested_ = false;  // under post_mu_
};

}  // namespace msrp::net
