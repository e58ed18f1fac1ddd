/// \file
/// Minimal HTTP/1.0 observability listener: GET /metrics (Prometheus text
/// exposition), /healthz (liveness), /traces (sampled span dump).
///
/// Deliberately not a web server: one EventLoop (the same epoll reactor
/// the serving front end uses) on its own thread, request parsing limited
/// to the GET request line, every response `Connection: close`. That is
/// exactly what a scraper or a curl-wielding operator needs, and nothing a
/// request smuggler can get creative with. The listener is independent of
/// the serving listener so a wedged serving path can still be inspected.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace msrp::obs {

class MetricsHttpServer {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; bound port via port()
  };

  /// Binds, listens, and starts the loop thread. `traces` may be null
  /// (then /traces reports sampling disabled). Throws on bind failure.
  MetricsHttpServer(MetricsRegistry& registry, TraceRing* traces, const Options& opts);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  const std::string& host() const { return host_; }
  std::uint16_t port() const { return port_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::string host_;
  std::uint16_t port_ = 0;
};

}  // namespace msrp::obs
