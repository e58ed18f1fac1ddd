/// \file
/// Binary wire protocol for remote replacement-path serving.
///
/// Everything on the socket is a *frame*: a fixed 24-byte header (magic,
/// payload length, type, checksum) followed by the payload. Frames are
/// self-delimiting, so a TCP stream of them can be cut anywhere — the
/// incremental FrameDecoder reassembles frames across arbitrary read
/// boundaries — and every payload travels under an FNV-1a checksum, so a
/// corrupted or desynchronized stream is detected at the first bad frame
/// instead of being served as garbage answers.
///
/// The conversation (byte-exact layouts in docs/NETWORK_PROTOCOL.md):
///
///   * on accept the server sends one HELLO frame: protocol version,
///     oracle identity (content digest, n, m) and the source vertex list.
///     A client that sees an unknown version (or no HELLO as the first
///     frame) must disconnect — version negotiation is "take it or leave
///     it", which keeps old clients from silently mis-decoding new frames;
///   * the client then sends QUERY_BATCH frames, each carrying a caller-
///     chosen request id and a run of (s, t, e) queries. Ids exist for
///     pipelining: a client may have any number of batches in flight, and
///     the server answers each batch as its QueryService completion fires
///     — NOT necessarily in submission order;
///   * the server replies per batch with ANSWER_BATCH (same request id,
///     one u32 distance per query, kInfDist = unreachable) or ERROR (same
///     request id, human-readable message) when the batch failed
///     validation. An ERROR with request id 0 is connection-level — a
///     protocol violation — and is followed by the server closing.
///
/// Protocol v2 (docs/NETWORK_PROTOCOL.md §v2) adds the multi-tenant
/// registry conversation on top of v1:
///
///   * REGISTER_GRAPH uploads an edge list (or names a server-side
///     snapshot path); the server answers REGISTER_ACK with the oracle's
///     digest and build state, or ERROR with the same request id when the
///     registration was rejected;
///   * LIST_ORACLES / ORACLE_LIST enumerate the registered oracles with
///     state and per-tenant counters; UNREGISTER retires a digest;
///   * QUERY_BATCH grows an optional target digest (flag bit 0): a client
///     can aim any batch at any registered oracle; a batch without one
///     targets the HELLO default;
///   * BUSY (same payload shape as ERROR) rejects a batch that admission
///     control will not queue; the connection stays healthy and the
///     client may retry.
///
/// Protocol v3 (docs/NETWORK_PROTOCOL.md §v3) promotes the dormant
/// workloads to first-class opcodes, one request/reply frame pair each:
///
///   * VITALITY_BATCH / VITALITY_ANSWER — top-k most-vital edges of the
///     canonical s->t path, per query (s, t, k);
///   * VICKREY_BATCH / VICKREY_ANSWER — per-edge Vickrey payments along
///     the canonical s->t path, per query (s, t);
///   * KFAIL_BATCH / KFAIL_ANSWER — d(s, t) avoiding an explicit edge set
///     F with |F| <= kMaxKFailEdges, per query (s, t, F).
///
/// The three request frames share QUERY_BATCH's envelope — request id,
/// count, flag word with the same digest (bit 0) and deadline (bit 1)
/// meanings — so digest targeting, admission control, deadlines, BUSY,
/// and the ERROR path all apply unchanged; only the per-query record
/// differs (one codec per workload tag, service/workloads.hpp). The
/// decoders reject malformed requests (k == 0 or k > kMaxTopKVital,
/// |F| > kMaxKFailEdges, duplicate edges in F) as ProtocolError before any
/// allocation.
///
/// Protocol v4 (docs/NETWORK_PROTOCOL.md §v4) adds the observability
/// conversation:
///
///   * STATS_REQUEST / STATS_SNAPSHOT — a typed dump of the server's
///     metrics registry (src/obs/): named monotonic counters, gauges, and
///     log-linear latency histograms with sparse nonzero buckets, so
///     `msrp_client --stats` sees exactly the series a Prometheus scrape
///     of `--metrics-addr` sees. The frame carries registry names
///     ("server.batches_received"); exposition naming ("msrp_..._total")
///     is a renderer concern, not a wire concern.
///
/// All integers are little-endian. A frame's payload is capped
/// (max_frame_bytes, default 64 MiB); an oversized length in the header is
/// a protocol error — the decoder refuses it *before* buffering, so a
/// malicious or corrupt length cannot balloon memory.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "registry/oracle_state.hpp"
#include "service/query.hpp"
#include "service/workloads.hpp"
#include "util/distance.hpp"

namespace msrp::net {

/// First bytes of every frame, little-endian "MRPC".
inline constexpr std::uint32_t kFrameMagic = 0x4350524du;
/// Wire protocol version announced in the server HELLO.
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Fixed byte size of the frame header.
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Default payload cap; both sides reject frames claiming more.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

enum class FrameType : std::uint32_t {
  kHello = 1,        ///< server -> client, once, first frame on the wire
  kQueryBatch = 2,   ///< client -> server, pipelined
  kAnswerBatch = 3,  ///< server -> client, one per QUERY_BATCH
  kError = 4,        ///< server -> client; id 0 = fatal protocol error
  // ----- v2 (registry) -----
  kRegisterGraph = 5,  ///< client -> server: upload edge list / name a snapshot
  kRegisterAck = 6,    ///< server -> client: digest + build state
  kListOracles = 7,    ///< client -> server: enumerate registered oracles
  kOracleList = 8,     ///< server -> client: reply to LIST_ORACLES
  kUnregister = 9,     ///< client -> server: retire a digest
  kBusy = 10,          ///< server -> client: batch rejected by admission control
  // ----- v3 (workload opcodes) -----
  kVitalityBatch = 11,   ///< client -> server: top-k most-vital-edge queries
  kVitalityAnswer = 12,  ///< server -> client: one per VITALITY_BATCH
  kVickreyBatch = 13,    ///< client -> server: Vickrey pricing queries
  kVickreyAnswer = 14,   ///< server -> client: one per VICKREY_BATCH
  kKFailBatch = 15,      ///< client -> server: k-edge-failure queries
  kKFailAnswer = 16,     ///< server -> client: one per KFAIL_BATCH
  // ----- v4 (observability) -----
  kStatsRequest = 17,   ///< client -> server: dump the metrics registry
  kStatsSnapshot = 18,  ///< server -> client: one per STATS_REQUEST
};

/// Batch request flag bits (every workload's request envelope).
inline constexpr std::uint32_t kQueryBatchHasDigest = 1u << 0;
/// Bit 1: the frame carries a u32 relative deadline in milliseconds (after
/// the optional digest). Absent = wait forever — the pre-deadline shape,
/// byte-identical to what older clients emit. A batch whose deadline passes
/// anywhere in the pipeline is answered with an ERROR frame whose message
/// starts with "DEADLINE_EXCEEDED" (util/deadline.hpp) rather than a new
/// frame type, so deadline-unaware peers still parse the reply.
inline constexpr std::uint32_t kQueryBatchHasDeadline = 1u << 1;

/// HELLO flag bits.
inline constexpr std::uint32_t kHelloRegistryEnabled = 1u << 0;

/// A malformed byte stream (bad magic, oversized length, checksum
/// mismatch, truncated or inconsistent payload). Connection-fatal: the
/// stream cannot be resynchronized past it.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Frame {
  FrameType type{};
  std::vector<std::uint8_t> payload;
};

/// Server identity sent on accept. A registry server with no default
/// oracle announces digest 0, n = m = 0 and an empty source list; clients
/// must then name a digest per batch.
struct HelloInfo {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t flags = 0;          ///< kHelloRegistryEnabled, ...
  std::uint64_t oracle_digest = 0;  ///< Snapshot::content_digest(); 0 = none
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;  ///< valid query sources, in oracle order
};

/// How REGISTER_GRAPH names the graph to build.
enum class RegisterMode : std::uint32_t {
  kEdgeList = 1,      ///< inline upload: n, m, sources, edge endpoints
  kSnapshotPath = 2,  ///< path to a snapshot readable by the server
};

struct RegisterGraphFrame {
  std::uint64_t request_id = 0;
  RegisterMode mode = RegisterMode::kEdgeList;
  // kEdgeList payload:
  std::uint64_t seed = 0;  ///< solver Config::seed for the build
  std::uint32_t num_vertices = 0;
  std::vector<Vertex> sources;
  std::vector<std::pair<Vertex, Vertex>> edges;
  // kSnapshotPath payload:
  std::string snapshot_path;
};

struct RegisterAckFrame {
  std::uint64_t request_id = 0;
  std::uint64_t digest = 0;
  registry::OracleState state = registry::OracleState::kUnknown;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::vector<Vertex> sources;
};

/// One oracle in an ORACLE_LIST reply.
struct OracleListEntry {
  std::uint64_t digest = 0;
  registry::OracleState state = registry::OracleState::kUnknown;
  std::uint32_t num_vertices = 0;
  std::uint32_t num_edges = 0;
  std::uint32_t inflight_batches = 0;
  std::uint64_t queries_answered = 0;
  std::uint64_t footprint_bytes = 0;
  std::vector<Vertex> sources;
  /// Failure reason for kFailed entries ("" otherwise); travels after the
  /// source list, length in the entry's previously-reserved u32.
  std::string error;
};

struct OracleListFrame {
  std::uint64_t request_id = 0;
  std::vector<OracleListEntry> oracles;
};

struct UnregisterFrame {
  std::uint64_t request_id = 0;
  std::uint64_t digest = 0;
};

// ----- batch frames (one shape per workload tag) ------------------------------
// Every workload's request frame shares QUERY_BATCH's envelope (request id,
// count, flag word, optional digest, optional deadline); only the
// per-query record differs. Every reply frame is (request id, count,
// reserved) then one record per query, in query order.

/// The request/reply FrameType pair a workload travels under.
template <class W>
struct WorkloadFrames;

template <>
struct WorkloadFrames<service::PointWorkload> {
  static constexpr FrameType kRequest = FrameType::kQueryBatch;
  static constexpr FrameType kAnswer = FrameType::kAnswerBatch;
};

template <>
struct WorkloadFrames<service::VitalityWorkload> {
  static constexpr FrameType kRequest = FrameType::kVitalityBatch;
  static constexpr FrameType kAnswer = FrameType::kVitalityAnswer;
};

template <>
struct WorkloadFrames<service::VickreyWorkload> {
  static constexpr FrameType kRequest = FrameType::kVickreyBatch;
  static constexpr FrameType kAnswer = FrameType::kVickreyAnswer;
};

/// KFAIL_ANSWER carries ANSWER_BATCH's payload shape under its own frame
/// type, so a pipelined client can pair replies to request kinds.
template <>
struct WorkloadFrames<service::KFailWorkload> {
  static constexpr FrameType kRequest = FrameType::kKFailBatch;
  static constexpr FrameType kAnswer = FrameType::kKFailAnswer;
};

template <class W>
struct BatchFrame {
  std::uint64_t request_id = 0;
  /// Target oracle; nullopt = the connection's HELLO default.
  std::optional<std::uint64_t> digest;
  /// Relative deadline budget in ms; nullopt = no deadline. The receiver
  /// pins it to an absolute instant at decode time.
  std::optional<std::uint32_t> deadline_ms;
  std::vector<typename W::Request> queries;
};

template <class W>
struct AnswerFrame {
  std::uint64_t request_id = 0;
  std::vector<typename W::Answer> answers;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;  ///< 0 = connection-level, close follows
  std::string message;
};

// ----- v4 observability frames ---------------------------------------------
// STATS_SNAPSHOT is a typed dump of an obs::MetricsSnapshot: counter and
// gauge samples by registry name, histograms by (name, stage label) with
// only the nonzero buckets on the wire (bucket geometry is fixed — see
// obs/metrics.hpp bucket_index/bucket_upper_ns — so indices suffice).

struct StatsCounter {
  std::string name;
  std::uint64_t value = 0;
};

struct StatsGauge {
  std::string name;
  std::int64_t value = 0;
};

struct StatsHistogram {
  std::string name;   ///< registry base name, e.g. "query_latency"
  std::string label;  ///< stage label value; "" = unlabelled
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  /// (bucket index, count) for every nonzero bucket, ascending index.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
};

struct StatsSnapshotFrame {
  std::uint64_t request_id = 0;
  std::vector<StatsCounter> counters;
  std::vector<StatsGauge> gauges;
  std::vector<StatsHistogram> histograms;
};

// ----- encoding ------------------------------------------------------------
// Each encoder appends one complete frame (header + payload) to `out`, so
// several frames can be gathered into one write.

void append_hello(std::vector<std::uint8_t>& out, const HelloInfo& hello);
/// Encodes one request frame of workload W. `digest` targets a specific
/// registered oracle (flag bit 0); nullopt emits the default-oracle shape.
/// `deadline_ms` adds a relative deadline (flag bit 1).
template <class W>
void append_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::span<const typename W::Request> queries,
                  std::optional<std::uint64_t> digest = std::nullopt,
                  std::optional<std::uint32_t> deadline_ms = std::nullopt);
/// Encodes one reply frame of workload W.
template <class W>
void append_answer(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                   std::span<const typename W::Answer> answers);

inline void append_query_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                               std::span<const service::Query> queries,
                               std::optional<std::uint64_t> digest = std::nullopt,
                               std::optional<std::uint32_t> deadline_ms = std::nullopt) {
  append_batch<service::PointWorkload>(out, request_id, queries, digest, deadline_ms);
}
inline void append_answer_batch(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                                std::span<const Dist> answers) {
  append_answer<service::PointWorkload>(out, request_id, answers);
}
void append_error(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                  std::string_view message);
void append_register_graph(std::vector<std::uint8_t>& out, const RegisterGraphFrame& reg);
void append_register_ack(std::vector<std::uint8_t>& out, const RegisterAckFrame& ack);
void append_list_oracles(std::vector<std::uint8_t>& out, std::uint64_t request_id);
void append_oracle_list(std::vector<std::uint8_t>& out, const OracleListFrame& list);
void append_unregister(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                       std::uint64_t digest);
/// BUSY shares the ERROR payload shape (request id + message).
void append_busy(std::vector<std::uint8_t>& out, std::uint64_t request_id,
                 std::string_view message);
// v4 observability frames. STATS_REQUEST carries just the request id.
void append_stats_request(std::vector<std::uint8_t>& out, std::uint64_t request_id);
void append_stats_snapshot(std::vector<std::uint8_t>& out, const StatsSnapshotFrame& stats);

// ----- payload decoding ----------------------------------------------------
// Throw ProtocolError when the payload size does not match its own counts.

HelloInfo decode_hello(std::span<const std::uint8_t> payload);
/// Beyond size consistency the request decoders validate the records
/// themselves: k == 0 or k > service::kMaxTopKVital, a failure set larger
/// than service::kMaxKFailEdges, and duplicate edges within one failure set
/// are all ProtocolError — rejected before any allocation.
template <class W>
BatchFrame<W> decode_batch(std::span<const std::uint8_t> payload);
template <class W>
AnswerFrame<W> decode_answer(std::span<const std::uint8_t> payload);
ErrorFrame decode_error(std::span<const std::uint8_t> payload);
RegisterGraphFrame decode_register_graph(std::span<const std::uint8_t> payload);
RegisterAckFrame decode_register_ack(std::span<const std::uint8_t> payload);
/// LIST_ORACLES carries just the request id.
std::uint64_t decode_list_oracles(std::span<const std::uint8_t> payload);
OracleListFrame decode_oracle_list(std::span<const std::uint8_t> payload);
UnregisterFrame decode_unregister(std::span<const std::uint8_t> payload);
/// STATS_REQUEST carries just the request id.
std::uint64_t decode_stats_request(std::span<const std::uint8_t> payload);
StatsSnapshotFrame decode_stats_snapshot(std::span<const std::uint8_t> payload);

/// Incremental frame reassembly over a byte stream.
///
/// feed() whatever the socket produced — any split, down to one byte at a
/// time — then call next() until it returns nullopt. Validation order per
/// frame: magic, length cap, completeness, checksum; the first violation
/// throws ProtocolError and the decoder must be discarded with its
/// connection (a checksummed stream cannot be re-synchronized reliably).
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(std::span<const std::uint8_t> data);

  /// Next complete frame, or nullopt until more bytes arrive.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
};

}  // namespace msrp::net
