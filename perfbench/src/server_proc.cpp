#include "server_proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "support.hpp"

namespace perfbench {

ServerProcess::ServerProcess(std::vector<std::string> argv, const std::string& log_path,
                             double timeout_s, const std::vector<int>& cpus) {
  argv.push_back("--listen");
  argv.push_back("0");
  std::vector<char*> cargv;
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);

  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The server must not outlive the benchmark, even if it crashes.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    if (!cpus.empty()) pin_thread(0, cpus);
    dup2(pipefd[1], STDOUT_FILENO);
    if (log_fd >= 0) dup2(log_fd, STDERR_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  ::close(pipefd[1]);
  if (log_fd >= 0) ::close(log_fd);
  out_fd_ = pipefd[0];

  const std::string marker = "listening on ";
  std::string out;
  const std::uint64_t start = now_ns();
  while (port_ == 0) {
    const double left_ms = (timeout_s - seconds_since(start)) * 1e3;
    pollfd pfd{out_fd_, POLLIN, 0};
    if (left_ms <= 0 || ::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      stop();
      throw std::runtime_error("msrp_serve did not start listening in time");
    }
    char buf[512];
    const ssize_t got = ::read(out_fd_, buf, sizeof buf);
    if (got <= 0) {
      stop();
      throw std::runtime_error("msrp_serve exited before listening: " + out);
    }
    out.append(buf, static_cast<std::size_t>(got));
    const std::size_t at = out.find(marker);
    const std::size_t eol = at == std::string::npos ? at : out.find('\n', at);
    if (eol != std::string::npos) {
      const std::string addr = out.substr(at + marker.size(), eol - at - marker.size());
      port_ = static_cast<std::uint16_t>(std::stoul(addr.substr(addr.rfind(':') + 1)));
    }
  }
}

ServerProcess::~ServerProcess() { stop(); }

bool ServerProcess::stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {  // up to 5 s for a graceful drain
    reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace perfbench
