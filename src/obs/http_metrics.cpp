#include "obs/http_metrics.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "net/event_loop.hpp"
#include "obs/exposition.hpp"

namespace msrp::obs {

namespace {

std::string http_response(int code, const char* reason, const std::string& body,
                          const char* content_type) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + ' ' + reason + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct MetricsHttpServer::Impl {
  MetricsRegistry& registry;
  TraceRing* traces;
  net::EventLoop loop;
  int listen_fd = -1;
  std::thread thread;

  struct Conn {
    std::string in;
    std::string out;
    std::size_t off = 0;
  };
  std::unordered_map<int, Conn> conns;  // loop-thread-only

  Impl(MetricsRegistry& reg, TraceRing* tr) : registry(reg), traces(tr) {}

  ~Impl() {
    loop.stop();
    if (thread.joinable()) thread.join();
    for (auto& [fd, c] : conns) ::close(fd);
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void close_conn(int fd) {
    loop.remove_fd(fd);
    ::close(fd);
    conns.erase(fd);
  }

  std::string respond(const std::string& request_line) {
    // "GET <path> HTTP/1.x" — anything else is a 400/404/405.
    const std::size_t sp1 = request_line.find(' ');
    if (sp1 == std::string::npos) return http_response(400, "Bad Request", "bad request\n", "text/plain");
    const std::string method = request_line.substr(0, sp1);
    const std::size_t sp2 = request_line.find(' ', sp1 + 1);
    const std::string path = request_line.substr(
        sp1 + 1, sp2 == std::string::npos ? std::string::npos : sp2 - sp1 - 1);
    if (method != "GET") {
      return http_response(405, "Method Not Allowed", "only GET is served here\n", "text/plain");
    }
    if (path == "/metrics") {
      return http_response(200, "OK", render_prometheus(registry.snapshot()),
                           "text/plain; version=0.0.4; charset=utf-8");
    }
    if (path == "/healthz") {
      return http_response(200, "OK", "ok\n", "text/plain");
    }
    if (path == "/traces") {
      const std::string body = traces == nullptr
                                   ? std::string("# tracing disabled (--trace-sample-n 0)\n")
                                   : format_trace_spans(traces->dump());
      return http_response(200, "OK", body, "text/plain");
    }
    return http_response(404, "Not Found", "try /metrics, /healthz or /traces\n", "text/plain");
  }

  void flush_conn(int fd, Conn& c) {
    while (c.off < c.out.size()) {
      const ssize_t n = ::write(fd, c.out.data() + c.off, c.out.size() - c.off);
      if (n > 0) {
        c.off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        loop.modify_fd(fd, EPOLLOUT);
        return;
      }
      break;  // peer gone — close below
    }
    close_conn(fd);
  }

  void on_conn_event(int fd, std::uint32_t events) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    Conn& c = it->second;
    if (!c.out.empty()) {  // response in flight; only flushing remains
      flush_conn(fd, c);
      return;
    }
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      close_conn(fd);
      return;
    }
    char buf[2048];
    for (;;) {
      const ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        if (c.in.size() > 16 * 1024) {  // no legitimate scrape request is this big
          close_conn(fd);
          return;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      close_conn(fd);  // EOF before a full request, or a hard error
      return;
    }
    const std::size_t eol = c.in.find("\r\n");
    if (eol == std::string::npos) return;  // request line not complete yet
    c.out = respond(c.in.substr(0, eol));
    flush_conn(fd, c);
  }

  void on_accept() {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN or transient error — epoll will re-arm
      conns.emplace(fd, Conn{});
      loop.add_fd(fd, EPOLLIN, [this, fd](std::uint32_t ev) { on_conn_event(fd, ev); });
    }
  }
};

MetricsHttpServer::MetricsHttpServer(MetricsRegistry& registry, TraceRing* traces,
                                     const Options& opts)
    : impl_(std::make_unique<Impl>(registry, traces)), host_(opts.host) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("metrics http: socket() failed");
  impl_->listen_fd = fd;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("metrics http: bad bind address " + opts.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw std::runtime_error("metrics http: bind " + opts.host + ':' +
                             std::to_string(opts.port) + " failed: " + std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    throw std::runtime_error("metrics http: listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  impl_->loop.add_fd(fd, EPOLLIN, [impl = impl_.get()](std::uint32_t) { impl->on_accept(); });
  impl_->thread = std::thread([impl = impl_.get()] { impl->loop.run(); });
}

MetricsHttpServer::~MetricsHttpServer() = default;

}  // namespace msrp::obs
