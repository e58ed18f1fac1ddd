// The server under test: the shipped msrp_serve binary run as a child
// process, exactly as an operator would start it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class ServerProcess {
 public:
  /// Starts `argv` (argv[0] is the binary) with "--listen 0" appended and
  /// blocks until it prints its "listening on" line; stderr goes to
  /// `log_path`. Throws std::runtime_error if the child exits or stays
  /// silent for `timeout_s`. A non-empty `cpus` confines the server (every
  /// thread it will start) to those CPUs.
  ServerProcess(std::vector<std::string> argv, const std::string& log_path, double timeout_s,
                const std::vector<int>& cpus = {});
  /// Stops the child (SIGTERM, then SIGKILL) and reaps it.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  /// Stops and reaps the child; returns true if it exited cleanly.
  bool stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
