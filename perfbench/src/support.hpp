// Measurement plumbing for msrp_perfbench: clocks, order statistics,
// the span recorder behind --trace 1, the metric report, and the /proc
// readers used to observe the msrp_serve child from outside.
//
// Nothing here reaches into the library: every number is taken around a
// public call or read from the kernel, so the program under test carries no
// benchmark instrumentation.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

inline double seconds_since(std::uint64_t start_ns) { return (now_ns() - start_ns) * 1e-9; }

/// Median of the values (0 for an empty list).
double median(std::vector<double> v);

/// Interquartile mean: the mean of the values left after dropping the
/// lowest and the highest quarter (the plain mean below four values). The
/// host's speed flips between a fast and a slow mode every 0.1-2 s; the
/// median of samples drawn from both jumps from one mode to the other as
/// their mix shifts, while this mean moves with the mix.
double midmean(std::vector<double> v);

/// Nearest-rank quantile q in [0, 1] of the values (0 for an empty list).
double quantile(std::vector<double> v, double q);

/// User + system CPU seconds of this process (all threads).
double process_cpu_seconds();

/// Peak resident set (VmHWM) of a process in MiB; pid 0 means this process.
double peak_rss_mib(pid_t pid = 0);

/// utime + stime of a process in nanoseconds, from /proc/<pid>/stat.
std::uint64_t process_cpu_ns(pid_t pid);

/// CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

/// Restricts thread `tid` (0 = the calling thread) to `cpus`. Threads it
/// creates afterwards inherit the set. An empty set changes nothing.
/// Returns false if nothing was changed.
bool pin_thread(pid_t tid, const std::vector<int>& cpus);

/// Restricts every current thread of process `pid` to `cpus`.
void pin_process(pid_t pid, const std::vector<int>& cpus);

/// A measured phase cut into equal time slices. Latency quantiles and
/// rates are taken per slice and reported as the midmean over slices, so a
/// burst of host contention in one slice is dropped instead of dragging the
/// whole phase's tail.
class Slices {
 public:
  Slices(std::uint64_t start_ns, double seconds, double slice_s);

  /// Records an event finishing at `at_ns` (events outside the phase are
  /// ignored); `latency_ms` < 0 records a completion without a latency.
  void add(std::uint64_t at_ns, double latency_ms, std::uint64_t queries);

  /// Midmean over slices of each slice's latency quantile q.
  double latency_ms(double q) const;
  /// Median over slices of each slice's completed queries per second.
  double queries_per_second() const;

 private:
  std::uint64_t start_ns_;
  double slice_s_;
  std::vector<std::vector<double>> latencies_;
  std::vector<std::uint64_t> queries_;
};

// ---------------------------------------------------------------------------
// Tracing. A span brackets one public call into the library; spans of one
// request share its request id, and `parent` names the enclosing span.

struct Span {
  const char* name = "";   // e.g. "net.send"
  const char* layer = "";  // graph, core, service, net, check, bench
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Single-threaded span recorder. Disabled, every call is a branch and nothing
/// else, so the untraced run measures the same code path.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new request: spans opened until the next call share its id.
  void begin_request() { ++request_; }

  /// RAII span; records on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* layer, const char* name) : t_(t) {
      if (!t_.enabled_) return;
      span_.name = name;
      span_.layer = layer;
      span_.id = ++t_.next_id_;
      span_.parent = t_.open_.empty() ? 0 : t_.open_.back();
      span_.request = t_.request_;
      t_.open_.push_back(span_.id);
      span_.start_ns = now_ns();
    }
    ~Scope() {
      if (span_.id == 0) return;
      span_.end_ns = now_ns();
      t_.open_.pop_back();
      t_.spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Span span_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t next_id_ = 0;
  std::uint64_t request_ = 0;
  std::vector<std::uint64_t> open_;
  std::vector<Span> spans_;
};

/// Self time per layer: each span's duration minus the time its children
/// cover (children of one span run sequentially on its thread).
std::map<std::string, double> self_seconds_by_layer(const std::vector<Span>& spans);

/// Mean duration in microseconds of the spans with this name (0 if none).
double mean_span_us(const std::vector<Span>& spans, const std::string& name);

/// Writes one JSON object per span, one per line.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Report: named metrics with units, printed as aligned text lines and as the
// final JSON object the runner consumes. Notes are text-only lines (the
// end-to-end figures of a traced run, which are not that run's result).

class Report {
 public:
  struct Metric {
    double value;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  void note(const std::string& name, double value, const std::string& unit);
  void count_attempt(std::uint64_t n = 1) { attempted_ += n; }
  void count_failure(const std::string& what, std::uint64_t n = 1);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Text lines ("name value unit") on stdout, then the JSON line last.
  void print() const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  std::vector<std::pair<std::string, Metric>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
