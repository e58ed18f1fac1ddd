/// \file
/// Client side of the wire protocol: a blocking-socket library for callers
/// and load generators.
///
/// One Client owns one TCP connection: connect() dials, performs the HELLO
/// handshake (version check, oracle identity capture), and then batches
/// flow. Two call shapes share the connection:
///
///   * query_batch() — the synchronous round trip: send one batch, block
///     until its answer arrives;
///   * send() / wait_any() / wait(id) — explicit pipelining: send() writes a
///     batch and returns its request id immediately, any number may be in
///     flight, and the waits collect completed batches in whatever order
///     the server finishes them (answers for other ids are buffered, never
///     lost). This is the shape the msrp_client load generator drives.
///
/// Protocol v2 adds registry control: register_graph() /
/// register_snapshot_path() upload or name a graph and block until the
/// server's oracle is built (minutes for big graphs — size the socket's
/// patience accordingly), list_oracles() enumerates what is resident, and
/// unregister() retires a digest. Batches may target any registered oracle
/// by passing its digest to send()/query_batch(); without one the
/// connection's HELLO default answers. Control calls interleave freely
/// with pipelined batches — answers arriving during a control wait are
/// buffered for their own wait() to find.
///
/// A server-reported batch failure (ERROR frame with our id) surfaces as a
/// thrown std::runtime_error from the wait that collects it; an
/// admission-control rejection (BUSY frame) surfaces as BusyError — the
/// batch did not run and an identical resend is safe after backing off. A
/// connection-level ERROR (id 0) or any framing violation additionally
/// marks the connection dead. reconnect() re-dials and re-handshakes —
/// in-flight ids are lost (their batches die with the old socket) — and
/// with ClientOptions::auto_reconnect a send() on a dead connection does
/// this transparently when nothing is in flight.
///
/// ClientOptions::resend_on_reconnect goes further: every batch frame is
/// idempotent (same oracle, same queries, same answers), so when the
/// connection drops with batches in flight the client re-dials and replays
/// every uncollected batch frame verbatim — same ids — and the waits
/// proceed as if nothing happened. Control frames are never replayed
/// (REGISTER_GRAPH is not idempotent); a drop during a control call is an
/// error.
///
/// Every workload (service/workloads.hpp) travels the same path:
/// send<W>() / wait<W>() / batch<W>() / batch_retry<W>() pipeline exactly
/// like the point-query names — same ids, same digest targeting, same wire
/// deadlines, same BUSY/ERROR surface — and return W's answer type.
/// Replies pair by request id AND frame kind (a reply of the wrong kind for
/// an id is a protocol violation).
///
/// Protocol v4 adds observability: stats() performs a STATS_REQUEST /
/// STATS_SNAPSHOT control round trip and returns the server's typed
/// metrics dump — every counter, gauge, and latency histogram in its
/// process registry, histograms as sparse (bucket index, count) pairs over
/// the fixed obs/metrics.hpp geometry, so percentiles are derivable
/// client-side without shipping 136 buckets per series. Like the other
/// control calls it interleaves freely with pipelined batches.
///
/// Instances are not thread-safe; give each thread its own Client (the
/// load generator opens one per connection by design).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "net/protocol.hpp"
#include "service/query.hpp"
#include "util/deadline.hpp"
#include "util/distance.hpp"

namespace msrp::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-dial connect timeout.
  unsigned connect_timeout_ms = 5000;
  /// Extra dial attempts before connect() gives up — lets a client start
  /// before its server finishes binding (CI does exactly this).
  unsigned connect_retries = 0;
  unsigned retry_delay_ms = 200;
  /// Re-dial transparently when send() finds the connection dead and no
  /// batches are in flight.
  bool auto_reconnect = false;
  /// On connection loss with batches in flight: re-dial and replay every
  /// uncollected batch frame with its original id (idempotent, so answers
  /// are identical). Implies nothing for control calls — those fail.
  bool resend_on_reconnect = false;
  /// Local wait bound for batches sent with a deadline: a wait gives up
  /// (DeadlineError, socket closed — the orphaned reply could never be
  /// reconciled) this many ms after the batch's own deadline passes with
  /// no reply, so a dead or wedged server cannot park the client forever.
  /// Batches sent without a deadline keep the unbounded legacy wait.
  unsigned deadline_grace_ms = 500;
};

/// One completed batch collected by wait_any().
struct BatchAnswer {
  std::uint64_t request_id = 0;
  std::vector<Dist> answers;
};

/// The server refused a batch or a registration under admission control
/// (BUSY frame). Nothing ran; retry after a backoff.
class BusyError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The server answered DEADLINE_EXCEEDED: the batch's end-to-end budget
/// ran out somewhere in the pipeline (dispatch queue, service, or shard
/// router). The batch produced no answers; a resend with a fresh budget is
/// safe.
class DeadlineError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retry schedule for batch_retry(): exponential backoff with
/// deterministic jitter, bounded by attempts and an overall deadline.
struct RetryPolicy {
  /// Overall budget for the call, across every attempt and backoff
  /// (0 = unbounded). Each attempt's wire deadline is the time remaining.
  std::uint32_t deadline_ms = 0;
  /// Total attempts, first try included (clamped up to 1).
  unsigned max_attempts = 3;
  unsigned initial_backoff_ms = 10;
  double multiplier = 2.0;
  unsigned max_backoff_ms = 1000;
  /// +/- fraction applied to each backoff, derived deterministically from
  /// (seed, attempt) — no global RNG, so tests can pin exact schedules.
  double jitter = 0.2;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// The pause before attempt `attempt` (1-based; attempt 0 is the first
  /// try and never waits). Pure function of the policy fields.
  std::chrono::milliseconds backoff_for(unsigned attempt) const;
};

class Client {
 public:
  /// Dials and handshakes; throws std::runtime_error when the server is
  /// unreachable (after retries) or announces a protocol version other
  /// than kProtocolVersion.
  explicit Client(ClientOptions opts);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Server identity from the handshake (oracle digest, n, m, sources).
  const HelloInfo& hello() const { return hello_; }

  /// The protocol version the server announced (always kProtocolVersion).
  std::uint32_t server_version() const { return hello_.version; }

  /// True when the server advertises registry support (HELLO flag).
  bool registry_enabled() const { return (hello_.flags & kHelloRegistryEnabled) != 0; }

  bool connected() const { return fd_ >= 0; }

  /// Batches sent but not yet collected by a wait.
  std::size_t inflight() const {
    return inflight_.size() + ready_.size() + failed_.size() + busy_.size();
  }

  /// Drops the current socket (in-flight ids are lost) and dials fresh.
  void reconnect();

  /// Writes one batch of workload W and returns its request id without
  /// waiting. `digest` targets a registered oracle; nullopt is answered by
  /// the HELLO default oracle. `deadline_ms` is the batch's end-to-end
  /// budget, carried on the wire; the server answers DEADLINE_EXCEEDED
  /// instead of running past it.
  template <class W>
  std::uint64_t send(std::span<const typename W::Request> queries,
                     std::optional<std::uint64_t> digest = std::nullopt,
                     std::optional<std::uint32_t> deadline_ms = std::nullopt);

  /// Blocks until the batch with this id completes (others are buffered);
  /// one answer per query, in query order. Throws std::runtime_error if
  /// the server reported that batch failed (DeadlineError when it reported
  /// DEADLINE_EXCEEDED), BusyError if it was rejected by admission control.
  template <class W>
  std::vector<typename W::Answer> wait(std::uint64_t request_id);

  /// send<W>() + wait<W>(): the synchronous round trip.
  template <class W>
  std::vector<typename W::Answer> batch(std::span<const typename W::Request> queries,
                                        std::optional<std::uint64_t> digest = std::nullopt,
                                        std::optional<std::uint32_t> deadline_ms = std::nullopt);

  /// batch<W> with a retry loop: BUSY rejections, connection loss, and
  /// DEADLINE_EXCEEDED replies are retried on the policy's backoff
  /// schedule (every batch frame is idempotent, so a resend is always
  /// safe); any other server-reported failure rethrows immediately. The
  /// policy's deadline bounds the whole call, backoffs included, and each
  /// attempt carries the remaining budget on the wire.
  template <class W>
  std::vector<typename W::Answer> batch_retry(std::span<const typename W::Request> queries,
                                              const RetryPolicy& policy,
                                              std::optional<std::uint64_t> digest = std::nullopt);

  /// Blocks for the next completed point batch, in server-completion order
  /// (typed batches are collected by their own waits). Same throw surface
  /// as wait().
  BatchAnswer wait_any();

  // Point-query names, kept as forwards.
  std::uint64_t send(std::span<const service::Query> queries,
                     std::optional<std::uint64_t> digest = std::nullopt,
                     std::optional<std::uint32_t> deadline_ms = std::nullopt) {
    return send<service::PointWorkload>(queries, digest, deadline_ms);
  }
  std::vector<Dist> wait(std::uint64_t request_id) {
    return wait<service::PointWorkload>(request_id);
  }
  std::vector<Dist> query_batch(std::span<const service::Query> queries,
                                std::optional<std::uint64_t> digest = std::nullopt,
                                std::optional<std::uint32_t> deadline_ms = std::nullopt) {
    return batch<service::PointWorkload>(queries, digest, deadline_ms);
  }
  std::vector<Dist> query_batch_retry(std::span<const service::Query> queries,
                                      const RetryPolicy& policy,
                                      std::optional<std::uint64_t> digest = std::nullopt) {
    return batch_retry<service::PointWorkload>(queries, policy, digest);
  }

  // ----- registry control (protocol v2) -----------------------------------

  /// Uploads an edge list and blocks until the server's oracle is ready.
  /// `seed` is the solver Config::seed for the build; nullopt uses the
  /// library default, which is what local differential tests build with.
  /// Returns the ack carrying the oracle's content digest — the handle
  /// every subsequent batch targets. Throws std::runtime_error when the
  /// server rejects or the build fails, BusyError when admission says no.
  RegisterAckFrame register_graph(std::uint32_t num_vertices,
                                  std::span<const std::pair<Vertex, Vertex>> edges,
                                  std::span<const Vertex> sources,
                                  std::optional<std::uint64_t> seed = std::nullopt);

  /// Asks the server to load a snapshot from its own filesystem (the path
  /// is resolved server-side). Same blocking contract as register_graph.
  RegisterAckFrame register_snapshot_path(const std::string& path);

  /// Enumerates the server's resident oracles (sorted by digest).
  std::vector<OracleListEntry> list_oracles();

  /// Retires a digest. The returned state is kUnregistered (gone now) or
  /// kExpiring (draining in-flight batches, gone when they finish).
  RegisterAckFrame unregister(std::uint64_t digest);

  // ----- observability (protocol v4) ---------------------------------------

  /// Dumps the server's metrics registry: a STATS_REQUEST / STATS_SNAPSHOT
  /// round trip. Counters and gauges carry their registry names verbatim
  /// ("server.batches_received"); histogram buckets are sparse over the
  /// shared obs geometry.
  StatsSnapshotFrame stats();

 private:
  void dial();
  void close_socket();
  /// True when a dropped connection was successfully re-dialed and every
  /// uncollected batch replayed; the caller restarts its read/write.
  bool try_resend();
  void write_all(std::span<const std::uint8_t> bytes);
  /// Reads socket bytes into the decoder until one frame is complete.
  Frame read_frame();
  /// Reads one frame and routes it. Batch traffic (ANSWER_BATCH, per-id
  /// ERROR/BUSY for an in-flight batch) lands in ready_/failed_/busy_ and
  /// returns nullopt; a control reply carrying `control_id` (nonzero) is
  /// returned to the caller. Control-shaped frames with no control call
  /// pending are protocol violations.
  std::optional<Frame> route_one(std::uint64_t control_id);
  /// Performs one control round trip: writes `bytes`, blocks for the reply
  /// to `control_id`, decodes ERROR/BUSY into the documented throws.
  Frame control_round_trip(std::uint64_t control_id, std::vector<std::uint8_t> bytes);
  /// Shared auto_reconnect gate used by send() and the control calls.
  void ensure_connected();
  /// Shared tail of every send: registers the already-encoded frame under
  /// `id` (expecting `count` replies of `expect`'s kind), arms the wire
  /// deadline, writes — rolling all of it back when the write fails.
  std::uint64_t track_and_write(std::uint64_t id, std::vector<std::uint8_t> bytes,
                                FrameType expect, std::size_t count,
                                std::optional<std::uint32_t> deadline_ms);
  /// Common per-pass body of the waits: throws the buffered failure
  /// for `request_id` if one arrived, else blocks for one more frame.
  void wait_step(std::uint64_t request_id);
  /// On a reply frame: looks up `request_id` expecting `got`-typed replies
  /// owing `answered` entries; erases the in-flight record on match, fails
  /// the connection on any mismatch.
  void settle_inflight(std::uint64_t request_id, FrameType got, std::size_t answered);

  ClientOptions opts_;
  int fd_ = -1;
  FrameDecoder decoder_;
  HelloInfo hello_;
  std::uint64_t next_id_ = 1;
  bool control_pending_ = false;  // a control round trip is on the wire
  bool dialing_ = false;          // inside dial(); resend must not recurse
  /// One batch on the wire: which reply frame kind must answer it and how
  /// many entries that reply owes us.
  struct Inflight {
    FrameType expect = FrameType::kAnswerBatch;
    std::size_t count = 0;
  };
  // Ids on the wire — a reply whose id, frame kind, or size does not match
  // something we sent is treated as a protocol violation, never returned
  // to the caller.
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  // Verbatim frame bytes of in-flight batches, kept only when
  // resend_on_reconnect is set; ordered so a replay preserves send order.
  std::map<std::uint64_t, std::vector<std::uint8_t>> pending_frames_;
  // One answer vector per workload tag, by service::workload_index.
  template <class L>
  struct AnswersOf;
  template <class... Ws>
  struct AnswersOf<service::WorkloadList<Ws...>> {
    using type = std::variant<std::vector<typename Ws::Answer>...>;
  };
  using AnyAnswers = AnswersOf<service::Workloads>::type;
  // Answers (or server-reported errors / busy rejections) that arrived
  // while waiting for a different id. The variant index records the reply
  // kind, so a wait can never hand back the wrong result type.
  std::unordered_map<std::uint64_t, AnyAnswers> ready_;
  std::unordered_map<std::uint64_t, std::string> failed_;
  std::unordered_map<std::uint64_t, std::string> busy_;
  // Local give-up instant (wire deadline + grace) per in-flight batch that
  // was sent with a deadline; bounds the waits via recv_bound_.
  std::unordered_map<std::uint64_t, Deadline> wire_deadlines_;
  // The bound the current wait imposes on read_frame (kNoDeadline = wait
  // forever); set by wait()/wait_any() per pass, cleared for control calls.
  Deadline recv_bound_ = kNoDeadline;
};

}  // namespace msrp::net
