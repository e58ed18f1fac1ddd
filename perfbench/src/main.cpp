// msrp_perfbench: runs one workload of the repository benchmark and
// prints its metrics, the last stdout line being one JSON object.
//
//   msrp_perfbench --workload build-grid|build-er|serve-point
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin path/to/msrp_serve --work-dir DIR
//                    [--toy] [--corrupt-expected]
//
// perfbench/README.md describes the workloads, the metrics and why each
// was chosen. --toy shrinks every input so the tests can run all three
// workloads through the same code in seconds; --corrupt-expected flips one
// expected answer so a test can see the check fail.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/msrp.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "server_proc.hpp"
#include "service/query_service.hpp"
#include "service/snapshot.hpp"
#include "support.hpp"

namespace perfbench {
namespace {

namespace svc = msrp::service;
using msrp::Config;
using msrp::MsrpStats;
using msrp::Rng;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  bool toy = false;
  bool corrupt = false;
};

struct Sizes {
  Vertex grid_side;          // build-grid
  Vertex er_n;               // build-er
  Vertex serve_side;         // serve-point
  std::size_t point_batch;   // unloaded point request
  std::size_t sat_batch;     // saturated point request
  std::size_t typed_pairs;   // (s, t) pairs per in-process typed cycle
  std::size_t referee;       // BFS-checked answers per build workload
  std::size_t distinct;      // pre-generated requests of each kind
};
constexpr Sizes kFull{70, 8192, 50, 1024, 4096, 128, 256, 16};
constexpr Sizes kToy{12, 256, 10, 64, 1024, 16, 32, 4};

// Thread budget (README "Thread budget"): at most 4 build threads; the
// server runs --threads 2 --loops 1; the load generator is this one thread,
// so server and client together fit the VM's 4 CPUs without oversubscribing
// them (a second connection thread made the throughput swing with the
// scheduler). In-process replays use the server's thread count.
constexpr unsigned kServeThreads = 2;
// Saturated pipeline: 64 point batches of 4096 queries keep ~16 ms of work
// queued at the server, which hides a descheduled client or loop thread on
// a busy host; 8 batches of 4096 let the pipeline drain and the throughput
// fall by up to 3x whenever the host got busy.
constexpr std::size_t kPointDepth = 64;
// setup_s is the midmean of this many server starts.
constexpr int kServerStarts = 25;
// serve-point builds its oracle for this share of --seconds before the
// server starts, and again after it stops. Fewer builds (5 of ~1.3 s)
// spread build_s by a quarter from run to run.
constexpr double kServeBuildShare = 0.3;
// Share of a wire pass spent unloaded. Its latency quantiles move more from
// run to run than the saturated throughput does, so they get more slices.
constexpr double kUnloadedShare = 2.0 / 3.0;

struct Ctx {
  Args args;
  Sizes sz;
  Report report;
  /// A file this run writes: one per workload, overwritten by the next run,
  /// so repeated runs do not pile up inputs and span dumps.
  std::string path(const std::string& name) const {
    return args.work_dir + "/" + args.workload + "." + name;
  }

  /// End-to-end metrics are the result of an untraced run and text-only
  /// notes in a traced one.
  void e2e(const std::string& name, double value, const std::string& unit) {
    if (args.trace) report.note(name, value, unit);
    else report.set(name, value, unit);
  }
};

// Every per-layer metric, in print order; workloads overwrite what they
// measure and the rest reads 0 ("this layer does no work here").
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"graph.load_s", "s"},
    {"core.sample_bfs_s", "s"},
    {"core.landmark_rp_s", "s"},
    {"core.near_small_s", "s"},
    {"core.assembly_s", "s"},
    {"core.cpu_s", "s"},
    {"core.parallel_eff", "fraction"},
    {"core.landmarks", "count"},
    {"core.output_cells", "count"},
    {"service.capture_s", "s"},
    {"service.encode_s", "s"},
    {"service.snapshot_bytes", "bytes"},
    {"service.load_s", "s"},
    {"service.point_qps", "queries/s"},
    {"service.typed_qps", "queries/s"},
    {"service.vitality_us", "us"},
    {"service.vickrey_us", "us"},
    {"service.kfail1_us", "us"},
    {"ftsub.kfail2_us", "us"},
    {"net.decode_us.p50", "us"},
    {"net.decode_us.p99", "us"},
    {"net.queue_us.p50", "us"},
    {"net.queue_us.p99", "us"},
    {"net.execute_us.p50", "us"},
    {"net.execute_us.p99", "us"},
    {"net.flush_us.p50", "us"},
    {"net.flush_us.p99", "us"},
    {"net.req_bytes_per_q", "bytes"},
    {"net.reply_bytes_per_q", "bytes"},
    {"net.wire_ratio", "ratio"},
    {"client.send_us", "us"},
    {"server.cpu_ns_per_q", "ns"},
    {"dispatch.busy_rejections", "count"},
    {"dispatch.deadline_expirations", "count"},
    {"self.graph_s", "s"},
    {"self.core_s", "s"},
    {"self.service_s", "s"},
    {"self.net_s", "s"},
    {"self.check_s", "s"},
    {"self.bench_s", "s"},
    {"trace.overhead", "ratio"},
};

// ----------------------------------------------------------------- build ---

struct Build {
  double seconds = 0;  // solve + capture + encode: what --build --save-snapshot pays
  double solve_s = 0;
  double cpu_s = 0;  // process CPU time across the solve
  double capture_s = 0;
  double encode_s = 0;
  MsrpStats stats;
  std::uint64_t cells = 0;
  std::shared_ptr<const svc::Snapshot> snap;
  std::vector<std::uint8_t> image;
};

Build build_oracle(const Graph& g, const std::vector<Vertex>& sources, const Config& cfg,
                   Tracer& tr) {
  tr.begin_request();
  Tracer::Scope root(tr, "bench", "bench.build");
  Build b;
  const double cpu0 = process_cpu_seconds();
  const std::uint64_t t0 = now_ns();
  std::optional<msrp::MsrpResult> res;
  {
    Tracer::Scope s(tr, "core", "core.solve_msrp");
    res.emplace(msrp::solve_msrp(g, sources, cfg));
  }
  b.solve_s = seconds_since(t0);
  b.cpu_s = process_cpu_seconds() - cpu0;
  const std::uint64_t t1 = now_ns();
  {
    Tracer::Scope s(tr, "service", "service.capture");
    b.snap = std::make_shared<const svc::Snapshot>(svc::Snapshot::capture(*res));
  }
  const std::uint64_t t2 = now_ns();
  {
    Tracer::Scope s(tr, "service", "service.encode");
    b.image = b.snap->encode(svc::SnapshotFormat::kV2);
  }
  const std::uint64_t t3 = now_ns();
  b.capture_s = (t2 - t1) * 1e-9;
  b.encode_s = (t3 - t2) * 1e-9;
  b.seconds = (t3 - t0) * 1e-9;
  b.stats = res->stats();
  for (std::uint32_t si = 0; si < res->num_sources(); ++si) b.cells += res->raw_rows(si).size();
  return b;
}

double build_seconds(const std::vector<Build>& builds) {
  std::vector<double> v;
  for (const Build& b : builds) v.push_back(b.seconds);
  return midmean(v);
}

double phase(const Build& b, const char* name) {
  const auto it = b.stats.phase_seconds.find(name);
  return it == b.stats.phase_seconds.end() ? 0.0 : it->second;
}

/// build_s (the midmean over the builds) and the core/service layer
/// metrics (medians).
void report_builds(Ctx& c, const std::vector<Build>& builds, unsigned threads, bool layers) {
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const Build& b : builds) v.push_back(field(b));
    return median(v);
  };
  c.e2e("build_s", build_seconds(builds), "s");
  if (!layers) return;
  const Build& last = builds.back();
  c.report.set("core.sample_bfs_s", med([](const Build& b) { return phase(b, "sample+bfs"); }), "s");
  c.report.set("core.landmark_rp_s",
               med([](const Build& b) { return phase(b, "landmark_rp_mmg"); }), "s");
  c.report.set("core.near_small_s",
               med([](const Build& b) { return phase(b, "near_small_dijkstra"); }), "s");
  c.report.set("core.assembly_s", med([](const Build& b) { return phase(b, "assembly"); }), "s");
  c.report.set("core.cpu_s", med([](const Build& b) { return b.cpu_s; }), "s");
  c.report.set("core.parallel_eff",
               med([&](const Build& b) { return b.cpu_s / (b.solve_s * threads); }), "fraction");
  c.report.set("core.landmarks", static_cast<double>(last.stats.num_landmarks), "count");
  c.report.set("core.output_cells", static_cast<double>(last.cells), "count");
  c.report.set("service.capture_s", med([](const Build& b) { return b.capture_s; }), "s");
  c.report.set("service.encode_s", med([](const Build& b) { return b.encode_s; }), "s");
  c.report.set("service.snapshot_bytes", static_cast<double>(last.image.size()), "bytes");
}

/// Every build of one instance must produce the same oracle.
void check_same_oracle(Ctx& c, const std::vector<Build>& builds) {
  for (const Build& b : builds) {
    c.report.count_attempt();
    if (b.snap->content_digest() != builds.front().snap->content_digest()) {
      c.report.count_failure("two builds of one instance differ");
    }
  }
}

/// The library's default solver seed on every run, so a workload samples
/// the same landmarks whatever its seed and core.landmarks repeats exactly.
Config solver_config(unsigned threads) {
  Config cfg;
  cfg.build_threads = threads;
  return cfg;
}

// ------------------------------------------------------------ point sets ---

struct PointSet {
  std::vector<std::vector<svc::Query>> unloaded, saturated;
  std::vector<std::vector<Dist>> unloaded_expected, saturated_expected;
};

PointSet make_point_set(const Ctx& c, const svc::Snapshot& snap) {
  Rng rng(c.args.seed * 0x9E3779B97F4A7C15ull + 1);
  PointSet ps;
  auto fill = [&](auto& batches, auto& expected, std::size_t size) {
    for (std::size_t i = 0; i < c.sz.distinct; ++i) {
      batches.push_back(on_path_batch(snap, size, rng));
      std::vector<Dist> ans;
      for (const svc::Query& q : batches.back()) ans.push_back(snap.avoiding(q.s, q.t, q.e));
      expected.push_back(std::move(ans));
    }
  };
  fill(ps.unloaded, ps.unloaded_expected, c.sz.point_batch);
  fill(ps.saturated, ps.saturated_expected, c.sz.sat_batch);
  if (c.args.corrupt) ps.unloaded_expected[0][0] ^= 1;
  return ps;
}

/// Replays point batches through QueryService::query_batch in this process
/// for `seconds`; returns queries per second. Checks every answer.
double replay_points(Ctx& c, svc::QueryService& qs, const svc::Snapshot& snap,
                     const std::vector<std::vector<svc::Query>>& batches,
                     const std::vector<std::vector<Dist>>& expected, double seconds,
                     Tracer& tr) {
  std::uint64_t queries = 0;
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
    const std::size_t k = i % batches.size();
    tr.begin_request();
    Tracer::Scope root(tr, "bench", "bench.request");
    std::vector<Dist> ans;
    {
      Tracer::Scope s(tr, "service", "service.query_batch");
      ans = qs.query_batch(snap, batches[k]);
    }
    queries += ans.size();
    Tracer::Scope s(tr, "check", "check.compare");
    c.report.count_attempt();
    if (ans != expected[k]) c.report.count_failure("in-process point batch answer mismatch");
  }
  return static_cast<double>(queries) / seconds_since(start);
}

// ------------------------------------------------------- build workloads ---

/// Answers of the built oracle, decoded back from its encoded image,
/// against a plain BFS of G - e for a fixed sample of on-path queries, and
/// every base distance against a BFS of G.
void referee(Ctx& c, const Graph& g, const Build& b) {
  const svc::Snapshot served = svc::Snapshot::attach(
      b.image.data(), b.image.size(), std::shared_ptr<const void>(), {});
  c.report.count_attempt();
  if (served.content_digest() != b.snap->content_digest()) {
    c.report.count_failure("encoded image decodes to a different oracle");
  }
  std::printf("oracle_digest %016llx\n", static_cast<unsigned long long>(served.content_digest()));
  for (const Vertex s : served.sources()) {
    const std::vector<Dist> dist = bfs_all(g, s);
    c.report.count_attempt();
    for (Vertex t = 0; t < g.num_vertices(); ++t) {
      if (served.shortest(s, t) != dist[t]) {
        c.report.count_failure("d(s, t) differs from BFS");
        break;
      }
    }
  }
  Rng rng(c.args.seed + 0xC0FFEE);
  const auto sample = on_path_batch(served, c.sz.referee, rng);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const svc::Query& q = sample[i];
    Dist want = bfs_avoiding(g, q.s, q.t, q.e);
    if (c.args.corrupt && i == 0) want ^= 1;
    c.report.count_attempt();
    if (served.avoiding(q.s, q.t, q.e) != want) {
      c.report.count_failure("d(" + std::to_string(q.s) + ", " + std::to_string(q.t) + ", e" +
                             std::to_string(q.e) + ") differs from BFS of G - e");
    }
  }
}

/// One measured pass: builds until 80% of `seconds` is spent, with at
/// least `min_builds`, calling `after_build` after each one. On the build
/// workloads a request is one build.
std::vector<Build> build_pass(const Graph& g, const std::vector<Vertex>& sources,
                              const Config& cfg, double seconds, unsigned min_builds,
                              double* peak_rss, const std::function<void()>& after_build,
                              Tracer& tr) {
  std::vector<Build> builds;
  std::vector<double> times;
  const std::uint64_t start = now_ns();
  do {
    builds.push_back(build_oracle(g, sources, cfg, tr));
    times.push_back(builds.back().seconds);
    // Read after the first build, before repeats can fragment the heap.
    if (builds.size() == 1 && peak_rss != nullptr) *peak_rss = peak_rss_mib();
    after_build();
  } while (builds.size() < min_builds || seconds_since(start) + median(times) <= 0.8 * seconds);
  return builds;
}

void run_build(Ctx& c, bool er) {
  Rng rng(c.args.seed);
  const Graph generated = er ? msrp::gen::connected_avg_degree(c.sz.er_n, 8.0, rng)
                             : msrp::gen::grid(c.sz.grid_side, c.sz.grid_side);
  std::vector<Vertex> sources;
  if (er) {
    for (const auto v : rng.sample_without_replacement(c.sz.er_n, 4)) sources.push_back(v);
  } else {
    sources = grid_sources(c.sz.grid_side, c.args.seed);
  }
  const unsigned threads = er ? 4 : 1;
  const Config cfg = solver_config(threads);
  const std::string file = c.path("edges");
  msrp::io::save_edge_list(file, generated);

  // Set-up: read the graph the way msrp_serve --build does. One read takes
  // milliseconds, and the host ran the same read 1.7x faster or slower in
  // spells of 0.1-2 s. So setup_s is the midmean of reads spread over the
  // run: 9 reads 40 ms apart before the first build and after every build.
  // Reads bunched together fell in one spell and moved setup_s by a third
  // between sets of runs.
  Tracer tr(c.args.trace);
  std::vector<double> loads;
  auto read_graph = [&] {
    std::optional<Graph> g;
    for (int i = 0; i < 9; ++i) {
      if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
      tr.begin_request();
      Tracer::Scope s(tr, "graph", "graph.load_edge_list");
      const std::uint64_t t0 = now_ns();
      g.emplace(msrp::io::load_edge_list(file));
      loads.push_back(seconds_since(t0));
    }
    return std::move(*g);
  };
  const Graph g = read_graph();
  c.report.count_attempt();
  if (g.edges() != generated.edges()) c.report.count_failure("edge list did not round-trip");

  std::vector<Build> all;
  auto times_ms = [](const std::vector<Build>& builds) {
    std::vector<double> v;
    for (const Build& b : builds) v.push_back(b.seconds * 1e3);
    return v;
  };
  if (!c.args.trace) {
    double peak = 0;
    all = build_pass(g, sources, cfg, c.args.seconds, 2, &peak, read_graph, tr);
    report_builds(c, all, threads, false);
    c.e2e("peak_rss_mb", peak, "MiB");
  } else {
    tr.set_enabled(false);
    all = build_pass(g, sources, cfg, c.args.seconds / 2, 1, nullptr, read_graph, tr);
    const double untraced_ms = median(times_ms(all));
    tr.set_enabled(true);
    std::vector<Build> traced =
        build_pass(g, sources, cfg, c.args.seconds / 2, 1, nullptr, read_graph, tr);
    report_builds(c, traced, threads, true);
    c.report.set("graph.load_s", midmean(loads), "s");
    c.report.set("trace.overhead", median(times_ms(traced)) / untraced_ms, "ratio");
    for (Build& b : traced) all.push_back(std::move(b));
  }
  // A request is one build: its latency percentiles, and the answers
  // (output cells) it produces per second of build_s.
  const std::vector<double> ms = times_ms(all);
  c.e2e("p50_ms", median(ms), "ms");
  c.e2e("p99_ms", quantile(ms, 0.99), "ms");
  c.e2e("throughput_qps", all.back().cells / build_seconds(all), "queries/s");
  c.e2e("setup_s", midmean(loads), "s");
  check_same_oracle(c, all);
  referee(c, g, all.back());
  if (c.args.trace) {
    for (const auto& [layer, secs] : self_seconds_by_layer(tr.spans())) {
      c.report.set("self." + layer + "_s", secs, "s");
    }
    write_spans(c.path("spans.jsonl"), tr.spans());
  }
}

// ------------------------------------------------------ serve-point ---

/// Server-side counters and stage histograms, read over the wire (STATS).
struct ServerStats {
  std::map<std::string, std::vector<std::uint64_t>> stage;  // query_latency{stage}
  std::map<std::string, std::uint64_t> counters;
};

ServerStats read_stats(msrp::net::Client& cl, Tracer& tr) {
  Tracer::Scope s(tr, "net", "net.stats");
  const msrp::net::StatsSnapshotFrame f = cl.stats();
  ServerStats out;
  for (const auto& h : f.histograms) {
    if (h.name != "query_latency") continue;
    auto& dense = out.stage[h.label];
    dense.resize(msrp::obs::kHistogramBuckets);
    for (const auto& [idx, count] : h.buckets) {
      if (idx < dense.size()) dense[idx] += count;
    }
  }
  for (const auto& ctr : f.counters) out.counters[ctr.name] = ctr.value;
  return out;
}

void report_stats_delta(Ctx& c, const ServerStats& before, const ServerStats& after) {
  for (const char* stage : {"decode", "queue", "execute", "flush"}) {
    std::vector<std::uint64_t> delta(msrp::obs::kHistogramBuckets, 0);
    const auto a = after.stage.find(stage);
    const auto b = before.stage.find(stage);
    for (std::size_t i = 0; i < delta.size(); ++i) {
      const std::uint64_t hi = a == after.stage.end() ? 0 : a->second[i];
      const std::uint64_t lo = b == before.stage.end() ? 0 : b->second[i];
      delta[i] = hi - lo;
    }
    for (const auto& [q, suffix] : {std::pair{0.50, "p50"}, std::pair{0.99, "p99"}}) {
      const double us = msrp::obs::quantile_ns(delta.data(), delta.size(), q) * 1e-3;
      c.report.set(std::string("net.") + stage + "_us." + suffix, us, "us");
    }
  }
  for (const char* name : {"dispatch.busy_rejections", "dispatch.deadline_expirations"}) {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    const std::uint64_t hi = a == after.counters.end() ? 0 : a->second;
    const std::uint64_t lo = b == before.counters.end() ? 0 : b->second;
    c.report.set(name, static_cast<double>(hi - lo), "count");
  }
}

msrp::net::ClientOptions client_options(std::uint16_t port) {
  msrp::net::ClientOptions o;
  o.port = port;
  return o;
}

/// One point batch on the wire and the answers it must get back.
struct Pending {
  std::uint64_t id;
  const std::vector<Dist>* expected;
};

Pending send_batch(msrp::net::Client& cl, const PointSet& ps, bool saturated, std::size_t i,
                   Tracer& tr) {
  const auto& batches = saturated ? ps.saturated : ps.unloaded;
  const auto& expected = saturated ? ps.saturated_expected : ps.unloaded_expected;
  const std::size_t k = i % batches.size();
  Tracer::Scope s(tr, "net", "net.send");
  return {cl.send(batches[k]), &expected[k]};
}

std::vector<Dist> wait_batch(msrp::net::Client& cl, const Pending& p, Tracer& tr) {
  Tracer::Scope s(tr, "net", "net.wait");
  return cl.wait(p.id);
}

/// Where the server and the load generator run. The server gets every
/// allowed CPU but the last, the client the last one. The unloaded phase
/// puts both on one CPU, another one every slice (README "Thread budget").
/// Empty sets (fewer than two allowed CPUs) pin nothing.
struct Placement {
  std::vector<int> all, server, client;
};

Placement placement() {
  Placement p;
  p.all = allowed_cpus();
  if (p.all.size() >= 2) {
    p.server.assign(p.all.begin(), p.all.end() - 1);
    p.client = {p.all.back()};
  }
  return p;
}

struct WirePass {
  double p50_ms = 0, p99_ms = 0, qps = 0;
  std::uint64_t queries = 0;  // all answered queries, both phases
  double server_cpu_ns = 0;
  ServerStats before, after;
};

/// Saturated phase: one connection keeps kPointDepth batches in flight
/// until `end_ns`; each reply is logged into `window` by its arrival time.
void saturate(Ctx& c, const PointSet& ps, std::uint16_t port, std::uint64_t end_ns,
              Slices& window, WirePass& p, Tracer& tr) {
  try {
    msrp::net::Client cl(client_options(port));
    std::deque<Pending> inflight;
    std::size_t next = 0;
    for (std::size_t d = 0; d < kPointDepth; ++d) {
      inflight.push_back(send_batch(cl, ps, true, next++, tr));
    }
    while (!inflight.empty()) {
      const Pending pending = inflight.front();
      inflight.pop_front();
      tr.begin_request();
      Tracer::Scope root(tr, "bench", "bench.request");
      const std::vector<Dist> reply = wait_batch(cl, pending, tr);
      const std::uint64_t done = now_ns();
      window.add(done, -1, reply.size());
      p.queries += reply.size();
      {
        Tracer::Scope s(tr, "check", "check.compare");
        c.report.count_attempt();
        if (reply != *pending.expected) c.report.count_failure("saturated reply mismatch");
      }
      if (done < end_ns) inflight.push_back(send_batch(cl, ps, true, next++, tr));
    }
  } catch (const std::exception& ex) {
    c.report.count_attempt();
    c.report.count_failure(std::string("saturated phase: ") + ex.what());
  }
}

/// One measured pass against a running server: an unloaded phase (one
/// connection, one batch outstanding) for kUnloadedShare of `seconds`, then
/// a saturated phase on a second connection for the rest.
WirePass wire_pass(Ctx& c, const PointSet& ps, const ServerProcess& server,
                   const Placement& place, double seconds, Tracer& tr) {
  WirePass p;
  msrp::net::Client cl(client_options(server.port()));
  p.before = read_stats(cl, tr);
  const std::uint64_t cpu0 = process_cpu_ns(server.pid());

  // Server and client share one CPU here, so each handoff of a request is
  // a local context switch. Across CPUs each handoff waits for the host to
  // wake an idle vCPU, which took milliseconds whenever the host was busy.
  // The shared CPU changes with every 1 s slice: each vCPU's speed swings
  // on its own, and the slices then sample all of them.
  const std::uint64_t start = now_ns();
  const double unloaded_s = seconds * kUnloadedShare;
  Slices unloaded(start, unloaded_s, 1.0);
  std::size_t slice = SIZE_MAX;
  for (std::size_t i = 0; seconds_since(start) < unloaded_s; ++i) {
    if (!place.client.empty() && static_cast<std::size_t>(seconds_since(start)) != slice) {
      slice = static_cast<std::size_t>(seconds_since(start));
      const std::vector<int> cpu{place.all[slice % place.all.size()]};
      pin_thread(0, cpu);
      pin_process(server.pid(), cpu);
    }
    tr.begin_request();
    Tracer::Scope root(tr, "bench", "bench.request");
    const std::uint64_t t0 = now_ns();
    const Pending pending = send_batch(cl, ps, false, i, tr);
    const std::vector<Dist> reply = wait_batch(cl, pending, tr);
    const std::uint64_t t1 = now_ns();
    unloaded.add(t1, (t1 - t0) * 1e-6, reply.size());
    p.queries += reply.size();
    Tracer::Scope s(tr, "check", "check.compare");
    c.report.count_attempt();
    if (reply != *pending.expected) c.report.count_failure("unloaded reply mismatch");
  }
  p.p50_ms = unloaded.latency_ms(0.50);
  p.p99_ms = unloaded.latency_ms(0.99);
  if (!place.client.empty()) {
    pin_thread(0, place.client);
    pin_process(server.pid(), place.server);
  }

  const std::uint64_t sat_start = now_ns();
  const double saturated_s = seconds - unloaded_s;
  Slices saturated(sat_start, saturated_s, 1.0);
  saturate(c, ps, server.port(), sat_start + static_cast<std::uint64_t>(saturated_s * 1e9),
           saturated, p, tr);
  p.qps = saturated.queries_per_second();
  p.server_cpu_ns = static_cast<double>(process_cpu_ns(server.pid()) - cpu0);
  p.after = read_stats(cl, tr);
  return p;
}

/// Starts msrp_serve `starts` times, timing each start until its first
/// reply (one checked point query); returns the last server, still up.
std::unique_ptr<ServerProcess> start_servers(Ctx& c, const std::vector<std::string>& argv,
                                             const svc::Snapshot& snap,
                                             const Placement& place, int starts, Tracer& tr) {
  Rng rng(c.args.seed + 17);
  const auto probe = on_path_batch(snap, 1, rng);
  const Dist want = snap.avoiding(probe[0].s, probe[0].t, probe[0].e);
  std::vector<double> times;
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < starts; ++i) {
    server.reset();
    // Spaced out, like the graph reads of build-*, to span the host's spells.
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(40));
    tr.begin_request();
    Tracer::Scope root(tr, "bench", "bench.server_start");
    const std::uint64_t t0 = now_ns();
    server = std::make_unique<ServerProcess>(argv, c.path("serve.log"), 120.0, place.server);
    msrp::net::Client cl(client_options(server->port()));
    std::vector<Dist> got;
    {
      Tracer::Scope s(tr, "net", "net.query_batch");
      got = cl.query_batch(probe);
    }
    times.push_back(seconds_since(t0));
    c.report.count_attempt();
    if (cl.hello().oracle_digest != snap.content_digest()) {
      c.report.count_failure("server serves a different oracle than the local build");
    } else if (got.size() != 1 || got[0] != want) {
      c.report.count_failure("first reply mismatch");
    }
  }
  c.e2e("setup_s", midmean(times), "s");
  // The oracle's resident cost, read once it is loaded and serving. Read
  // after the load phases it also counted reply buffers, which grew by a
  // third whenever a busy host slowed the client's reads.
  c.e2e("peak_rss_mb", peak_rss_mib(server->pid()), "MiB");
  return server;
}

/// The wire phases: untraced, or an untraced and a traced half.
/// Returns the saturated throughput of the reported pass.
double run_wire(Ctx& c, const PointSet& ps, const ServerProcess& server,
                const Placement& place, Tracer& tr) {
  if (!c.args.trace) {
    const WirePass p = wire_pass(c, ps, server, place, c.args.seconds, tr);
    c.e2e("throughput_qps", p.qps, "queries/s");
    c.e2e("p50_ms", p.p50_ms, "ms");
    c.e2e("p99_ms", p.p99_ms, "ms");
    return p.qps;
  }
  tr.set_enabled(false);
  const WirePass base = wire_pass(c, ps, server, place, c.args.seconds / 2, tr);
  tr.set_enabled(true);
  const WirePass p = wire_pass(c, ps, server, place, c.args.seconds / 2, tr);
  c.report.note("throughput_qps", p.qps, "queries/s");
  c.report.note("p50_ms", p.p50_ms, "ms");
  c.report.note("p99_ms", p.p99_ms, "ms");
  c.report.set("trace.overhead", p.p50_ms / base.p50_ms, "ratio");
  report_stats_delta(c, p.before, p.after);
  c.report.set("server.cpu_ns_per_q", p.server_cpu_ns / static_cast<double>(p.queries), "ns");
  c.report.set("client.send_us", mean_span_us(tr.spans(), "net.send"), "us");
  return p.qps;
}

/// Builds the served oracle, the 50x50 grid, in process on one thread until
/// `seconds` are spent, at least once (build_s, and the reference for every
/// answer). One thread keeps
/// build_s free of the pool's scheduling noise; the oracle is bit-identical
/// to the server's two-thread build. The builds are not on the served
/// path, so they stay out of the traced spans and the core.* layers.
std::vector<Build> serve_builds(Ctx& c, const Graph& g, const std::vector<Vertex>& sources,
                                double seconds, Tracer& tr) {
  tr.set_enabled(false);
  std::vector<Build> builds;
  const std::uint64_t start = now_ns();
  do {
    builds.push_back(build_oracle(g, sources, solver_config(1), tr));
  } while (seconds_since(start) < seconds);
  tr.set_enabled(c.args.trace);
  return builds;
}

struct TypedExpected {
  std::vector<svc::VitalityResult> vitality;
  std::vector<svc::VickreyResult> vickrey;
  std::vector<Dist> kfail;
  friend bool operator==(const TypedExpected&, const TypedExpected&) = default;
};

struct TypedSet {
  std::vector<TypedCycle> cycles;
  std::vector<TypedExpected> expected;
};

/// Typed cycles and their answers from the same commit's oracle, in
/// process. K_FAIL with |F| = 2 needs the graph attached to `qs`.
TypedSet make_typed_set(const Ctx& c, svc::QueryService& qs, const svc::Snapshot& snap) {
  Rng rng(c.args.seed * 0x9E3779B97F4A7C15ull + 2);
  TypedSet ts;
  for (std::size_t i = 0; i < c.sz.distinct; ++i) {
    ts.cycles.push_back(typed_cycle(snap, c.sz.typed_pairs, rng));
    const TypedCycle& cy = ts.cycles.back();
    ts.expected.push_back({qs.vitality_batch(snap, cy.vitality), qs.vickrey_batch(snap, cy.vickrey),
                           qs.kfail_batch(snap, cy.kfail)});
  }
  return ts;
}

/// Traced-run layer metrics of the typed opcodes: the cycles replayed
/// through the QueryService entry points one opcode at a time, with the
/// server's thread count.
void typed_layers(Ctx& c, svc::QueryService& qs, const svc::Snapshot& snap,
                    const TypedSet& ts, Tracer& tr) {
  std::vector<double> vit, vic, kf1, kf2;
  std::uint64_t queries = 0;
  const std::uint64_t start = now_ns();
  const double budget = std::max(0.25, 0.1 * c.args.seconds);
  for (std::size_t i = 0; i == 0 || seconds_since(start) < budget; ++i) {
    const std::size_t k = i % ts.cycles.size();
    const TypedCycle& cy = ts.cycles[k];
    const double pairs = static_cast<double>(cy.vickrey.size());
    tr.begin_request();
    Tracer::Scope root(tr, "bench", "bench.request");
    TypedExpected got;
    std::uint64_t t0 = now_ns();
    {
      Tracer::Scope s(tr, "service", "service.vitality_batch");
      got.vitality = qs.vitality_batch(snap, cy.vitality);
    }
    std::uint64_t t1 = now_ns();
    vit.push_back((t1 - t0) * 1e-3 / pairs);
    {
      Tracer::Scope s(tr, "service", "service.vickrey_batch");
      got.vickrey = qs.vickrey_batch(snap, cy.vickrey);
    }
    t0 = now_ns();
    vic.push_back((t0 - t1) * 1e-3 / pairs);
    // Query 0 is the |F| = 2 one (a BFS of G - F); the rest fail one edge.
    const std::span<const svc::KFailQuery> two(cy.kfail.data(), 1);
    const std::span<const svc::KFailQuery> one(cy.kfail.data() + 1, cy.kfail.size() - 1);
    {
      Tracer::Scope s(tr, "service", "service.kfail_batch");
      got.kfail = qs.kfail_batch(snap, two);
    }
    t1 = now_ns();
    kf2.push_back((t1 - t0) * 1e-3);
    std::vector<Dist> d1;
    {
      Tracer::Scope s(tr, "service", "service.kfail_batch");
      d1 = qs.kfail_batch(snap, one);
    }
    kf1.push_back((now_ns() - t1) * 1e-3 / (pairs - 1));
    queries += 3 * cy.vickrey.size();
    got.kfail.insert(got.kfail.end(), d1.begin(), d1.end());
    Tracer::Scope s(tr, "check", "check.compare");
    c.report.count_attempt();
    if (!(got == ts.expected[k])) c.report.count_failure("in-process typed cycle mismatch");
  }
  c.report.set("service.typed_qps", static_cast<double>(queries) / seconds_since(start),
               "queries/s");
  c.report.set("service.vitality_us", median(vit), "us");
  c.report.set("service.vickrey_us", median(vic), "us");
  c.report.set("service.kfail1_us", median(kf1), "us");
  c.report.set("ftsub.kfail2_us", median(kf2), "us");
}

void run_serve_point(Ctx& c) {
  Tracer tr(c.args.trace);
  const Graph g = msrp::gen::grid(c.sz.serve_side, c.sz.serve_side);
  const auto sources = grid_sources(c.sz.serve_side, c.args.seed);
  // build_s is the midmean of the builds made in kServeBuildShare of
  // --seconds before the server starts and as long again after it stops, so
  // the samples span the run and not one spell of the host's speed.
  const double build_budget = kServeBuildShare * c.args.seconds;
  std::vector<Build> builds = serve_builds(c, g, sources, build_budget, tr);
  const std::shared_ptr<const svc::Snapshot> snap = builds.front().snap;
  const std::string snap_file = c.path("snap");
  {
    const std::vector<std::uint8_t>& image = builds.front().image;
    std::ofstream out(snap_file, std::ios::binary);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
    if (!out) throw std::runtime_error("cannot write " + snap_file);
  }
  const PointSet ps = make_point_set(c, *snap);

  const Placement place = placement();
  pin_thread(0, place.client);
  auto server = start_servers(c,
                              {c.args.serve_bin, "--load-snapshot", snap_file, "--threads",
                               std::to_string(kServeThreads), "--loops", "1"},
                              *snap, place, kServerStarts, tr);
  const double wire_qps = run_wire(c, ps, *server, place, tr);
  pin_thread(0, place.all);

  if (c.args.trace) {
    std::vector<double> loads;
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope s(tr, "service", "service.load");
      const std::uint64_t t0 = now_ns();
      const svc::Snapshot loaded = svc::Snapshot::load(snap_file);
      loads.push_back(seconds_since(t0));
      c.report.count_attempt();
      if (loaded.content_digest() != snap->content_digest()) {
        c.report.count_failure("snapshot file loads a different oracle");
      }
    }
    c.report.set("service.load_s", median(loads), "s");
    svc::QueryService qs(svc::QueryService::Options{.threads = kServeThreads});
    const double qps = replay_points(c, qs, *snap, ps.saturated, ps.saturated_expected,
                                     std::max(0.25, 0.1 * c.args.seconds), tr);
    c.report.set("service.point_qps", qps, "queries/s");
    c.report.set("net.wire_ratio", qps / wire_qps, "ratio");
    // The typed opcodes' in-process layers, measured here because the
    // benchmark serves only point queries over the wire (README).
    qs.attach_graph(snap->content_digest(), std::make_shared<const Graph>(g));
    typed_layers(c, qs, *snap, make_typed_set(c, qs, *snap), tr);
    std::vector<std::uint8_t> req, rep;
    msrp::net::append_query_batch(req, 1, ps.saturated[0]);
    msrp::net::append_answer_batch(rep, 1, ps.saturated_expected[0]);
    const double n = static_cast<double>(ps.saturated[0].size());
    c.report.set("net.req_bytes_per_q", req.size() / n, "bytes");
    c.report.set("net.reply_bytes_per_q", rep.size() / n, "bytes");
  }
  c.report.count_attempt();
  if (!server->stop()) c.report.count_failure("msrp_serve did not shut down cleanly");
  for (Build& b : serve_builds(c, g, sources, build_budget, tr)) builds.push_back(std::move(b));
  check_same_oracle(c, builds);
  report_builds(c, builds, 1, false);
  if (c.args.trace) {
    for (const auto& [layer, secs] : self_seconds_by_layer(tr.spans())) {
      c.report.set("self." + layer + "_s", secs, "s");
    }
    write_spans(c.path("spans.jsonl"), tr.spans());
  }
}

// ------------------------------------------------------------------ main ---

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "msrp_perfbench: %s\n"
               "usage: msrp_perfbench --workload build-grid|build-er|serve-point\n"
               "       --seed N --seconds S --trace 0|1 --serve-bin PATH --work-dir DIR\n"
               "       [--toy] [--corrupt-expected]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--seconds") a.seconds = std::stod(next());
    else if (arg == "--trace") a.trace = next() == "1";
    else if (arg == "--serve-bin") a.serve_bin = next();
    else if (arg == "--work-dir") a.work_dir = next();
    else if (arg == "--toy") a.toy = true;
    else if (arg == "--corrupt-expected") a.corrupt = true;
    else usage(("unknown argument " + arg).c_str());
  }
  if (a.workload.empty() || a.serve_bin.empty() || a.work_dir.empty() || !(a.seconds > 0)) {
    usage("--workload, --seconds, --serve-bin and --work-dir are required");
  }
  return a;
}

int run(int argc, char** argv) {
  Ctx c{parse(argc, argv), kFull, {}};
  if (c.args.toy) c.sz = kToy;
  if (c.args.trace) {
    for (const auto& [name, unit] : kLayerMetrics) c.report.set(name, 0.0, unit);
  }
  if (c.args.workload == "build-grid") run_build(c, false);
  else if (c.args.workload == "build-er") run_build(c, true);
  else if (c.args.workload == "serve-point") run_serve_point(c);
  else usage(("unknown workload " + c.args.workload).c_str());
  c.report.print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "msrp_perfbench: %s\n", ex.what());
    return 1;
  }
}
