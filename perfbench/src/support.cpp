#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double midmean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t drop = v.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < v.size() - drop; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * drop);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Slices::Slices(std::uint64_t start_ns, double seconds, double slice_s)
    : start_ns_(start_ns),
      slice_s_(seconds / std::max(1.0, std::round(seconds / slice_s))),
      latencies_(static_cast<std::size_t>(std::max(1.0, std::round(seconds / slice_s)))),
      queries_(latencies_.size(), 0) {}

void Slices::add(std::uint64_t at_ns, double latency_ms, std::uint64_t queries) {
  if (at_ns < start_ns_) return;
  const auto k = static_cast<std::size_t>((at_ns - start_ns_) * 1e-9 / slice_s_);
  if (k >= queries_.size()) return;
  if (latency_ms >= 0) latencies_[k].push_back(latency_ms);
  queries_[k] += queries;
}

double Slices::latency_ms(double q) const {
  std::vector<double> per_slice;
  for (const auto& l : latencies_) {
    if (!l.empty()) per_slice.push_back(quantile(l, q));
  }
  return midmean(per_slice);
}

double Slices::queries_per_second() const {
  std::vector<double> per_slice;
  for (const std::uint64_t n : queries_) per_slice.push_back(static_cast<double>(n) / slice_s_);
  return midmean(per_slice);
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) { return tv.tv_sec + tv.tv_usec * 1e-6; };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) cpus.push_back(i);
  }
  return cpus;
}

bool pin_thread(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof set, &set) == 0;
}

void pin_process(pid_t pid, const std::vector<int>& cpus) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    pin_thread(static_cast<pid_t>(std::stol(entry.path().filename().string())), cpus);
  }
}

std::uint64_t process_cpu_ns(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The command name (field 2) may contain spaces; fields resume after ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  std::uint64_t utime = 0, stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return static_cast<std::uint64_t>(static_cast<double>(utime + stime) * ns_per_tick);
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const std::uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::uint64_t covered = it == child_ns.end() ? 0 : std::min(dur, it->second);
    out[s.layer] += (dur - covered) * 1e-9;
  }
  return out;
}

double mean_span_us(const std::vector<Span>& spans, const std::string& name) {
  double total = 0;
  std::size_t n = 0;
  for (const Span& s : spans) {
    if (name == s.name) {
      total += (s.end_ns - s.start_ns) * 1e-3;
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 s.name, s.layer, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fclose(f);
}

namespace {

void upsert(std::vector<std::pair<std::string, Report::Metric>>& list, const std::string& name,
            double value, const std::string& unit) {
  for (auto& [n, m] : list) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  list.push_back({name, {value, unit}});
}

}  // namespace

void Report::set(const std::string& name, double value, const std::string& unit) {
  upsert(metrics_, name, value, unit);
}

void Report::note(const std::string& name, double value, const std::string& unit) {
  upsert(notes_, name, value, unit);
}

void Report::count_failure(const std::string& what, std::uint64_t n) {
  if (failed_ < 10) std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failed_ += n;
}

void Report::print() const {
  for (const auto* list : {&notes_, &metrics_}) {
    for (const auto& [name, m] : *list) {
      std::printf("%-28s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  const double error_rate =
      attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);
  std::printf("%-28s %16.6g %s\n", "error_rate", error_rate, "fraction");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed_ == 0 && attempted_ > 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
