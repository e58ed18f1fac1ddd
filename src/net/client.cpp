#include "net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/config.hpp"
#include "util/assert.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"

namespace msrp::net {

std::chrono::milliseconds RetryPolicy::backoff_for(unsigned attempt) const {
  if (attempt == 0) return std::chrono::milliseconds(0);
  double ms = static_cast<double>(initial_backoff_ms);
  for (unsigned i = 1; i < attempt; ++i) ms *= multiplier;
  ms = std::min(ms, static_cast<double>(max_backoff_ms));
  if (jitter > 0.0) {
    // splitmix64-style hash of (seed, attempt): deterministic jitter, so a
    // pinned seed gives a reproducible schedule while distinct clients
    // (distinct seeds) still decorrelate their retries.
    std::uint64_t h = seed + 0x9e3779b97f4a7c15ull * (attempt + 1);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    const double unit = static_cast<double>(h % 10000) / 10000.0;  // [0, 1)
    ms *= 1.0 + jitter * (2.0 * unit - 1.0);
  }
  if (ms < 0.0) ms = 0.0;
  return std::chrono::milliseconds(static_cast<long long>(ms));
}

namespace {

/// connect() with a timeout: non-blocking dial, poll for writability, then
/// back to blocking mode for the plain read/write loops.
int dial_once(const std::string& host, std::uint16_t port, unsigned timeout_ms) {
  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("net client: bad host address " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("net client: socket() failed");
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINPROGRESS) {
    ::pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (rc == 1) {
      int err = 0;
      ::socklen_t len = sizeof err;
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      rc = err == 0 ? 0 : -1;
    } else {
      rc = -1;  // timeout or poll failure
    }
  }
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

Client::Client(ClientOptions opts)
    : opts_(std::move(opts)), decoder_(opts_.max_frame_bytes) {
  dial();
}

Client::~Client() { close_socket(); }

void Client::close_socket() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::dial() {
  dialing_ = true;
  recv_bound_ = kNoDeadline;  // the handshake reads are not batch waits
  for (unsigned attempt = 0;; ++attempt) {
    fd_ = dial_once(opts_.host, opts_.port, opts_.connect_timeout_ms);
    if (fd_ >= 0) break;
    if (attempt >= opts_.connect_retries) {
      dialing_ = false;
      throw std::runtime_error("net client: cannot connect to " + opts_.host + ":" +
                               std::to_string(opts_.port));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(opts_.retry_delay_ms));
  }
  decoder_ = FrameDecoder(opts_.max_frame_bytes);
  ready_.clear();
  failed_.clear();
  busy_.clear();
  inflight_.clear();
  pending_frames_.clear();
  wire_deadlines_.clear();

  // The handshake: the first frame on the wire must be a HELLO we can
  // speak. The version is checked from the leading u32 BEFORE the payload
  // is decoded — a different version is allowed to change the HELLO
  // layout, so a mismatch must surface as the version diagnostic, not as a
  // decode error. Every failure path closes the socket (the constructor
  // may be about to propagate, with no destructor coming).
  try {
    Frame frame = read_frame();
    if (frame.type != FrameType::kHello) {
      close_socket();
      throw std::runtime_error("net client: server did not start with HELLO");
    }
    if (frame.payload.size() < 4) {
      close_socket();
      throw std::runtime_error("net client: HELLO frame too short");
    }
    const std::uint32_t version = std::uint32_t{frame.payload[0]} |
                                  (std::uint32_t{frame.payload[1]} << 8) |
                                  (std::uint32_t{frame.payload[2]} << 16) |
                                  (std::uint32_t{frame.payload[3]} << 24);
    if (version != kProtocolVersion) {
      close_socket();
      throw std::runtime_error("net client: server speaks protocol version " +
                               std::to_string(version) + ", this client speaks " +
                               std::to_string(kProtocolVersion));
    }
    try {
      hello_ = decode_hello(frame.payload);
    } catch (const ProtocolError& ex) {
      close_socket();
      throw std::runtime_error(std::string("net client: malformed HELLO: ") + ex.what());
    }
  } catch (...) {
    dialing_ = false;
    throw;
  }
  dialing_ = false;
}

void Client::reconnect() {
  close_socket();
  dial();
}

bool Client::try_resend() {
  // Only idempotent batch traffic (the request frame of any workload) can
  // be replayed: every in-flight id must have its frame bytes stored,
  // and no control call may be pending (REGISTER_GRAPH replayed twice
  // would build twice — and worse, a replay that half-succeeded is
  // unobservable).
  if (!opts_.resend_on_reconnect || control_pending_ || dialing_) return false;
  if (pending_frames_.size() != inflight_.size()) return false;
  // dial() resets every per-connection map — save the batch state across
  // it. Buffered answers survive too: reconnecting must never destroy
  // results the caller has yet to wait() for.
  auto frames = std::move(pending_frames_);
  auto inflight = std::move(inflight_);
  auto ready = std::move(ready_);
  auto failed = std::move(failed_);
  auto busy = std::move(busy_);
  auto deadlines = std::move(wire_deadlines_);
  try {
    dial();
  } catch (...) {
    return false;  // the caller reports the original connection loss
  }
  pending_frames_ = std::move(frames);
  inflight_ = std::move(inflight);
  ready_ = std::move(ready);
  failed_ = std::move(failed);
  busy_ = std::move(busy);
  wire_deadlines_ = std::move(deadlines);  // absolute instants survive a re-dial
  // Replay in send order (the map is id-ordered and ids are monotonic).
  // A loss during the replay recurses — bounded by connect_retries per
  // dial, and each recursion starts from a fresh socket.
  for (const auto& [id, bytes] : pending_frames_) {
    write_all(bytes);
    if (fd_ < 0) return false;
  }
  return true;
}

void Client::write_all(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // A server that closed on us must fail the send with EPIPE, not SIGPIPE.
    const ::ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      close_socket();
      // A successful resend already rewrote these bytes from
      // pending_frames_ (the caller registered them before writing), so
      // this call's job is done.
      if (try_resend()) return;
      throw std::runtime_error("net client: connection lost during send");
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame Client::read_frame() {
  // Capture the wait's bound: dial() (inside a mid-read resend) resets the
  // member, but this read must stay bounded across the reconnect too.
  const Deadline bound = recv_bound_;
  for (;;) {
    try {
      if (auto frame = decoder_.next()) return std::move(*frame);
    } catch (const ProtocolError&) {
      close_socket();  // a corrupt stream cannot be resynchronized
      throw;
    }
    if (bound != kNoDeadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          bound - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        // No reply inside the batch's budget plus grace. The server may
        // still answer on this socket eventually, but the wait is over and
        // the reply could never be reconciled — the connection goes too.
        close_socket();
        throw DeadlineError("net client: " + std::string(kDeadlineExceededPrefix) +
                            ": no reply within the batch deadline");
      }
      ::pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr == 0) continue;  // timed out: re-check the clock above
      if (pr < 0) {
        if (errno == EINTR) continue;
        close_socket();
        if (try_resend()) continue;
        throw std::runtime_error("net client: connection lost during receive");
      }
    }
    std::uint8_t buf[65536];
    const ::ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n == 0) {
      close_socket();
      if (try_resend()) continue;  // fresh socket, batches replayed
      throw std::runtime_error("net client: server closed the connection");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      close_socket();
      if (try_resend()) continue;
      throw std::runtime_error("net client: connection lost during receive");
    }
    if (MSRP_FAILPOINT("client.recv_truncate")) {
      // Drop these bytes and the socket: the connection dies mid-frame,
      // exactly as a peer reset between two reads would look.
      close_socket();
      if (try_resend()) continue;
      throw std::runtime_error("net client: connection lost during receive");
    }
    decoder_.feed({buf, static_cast<std::size_t>(n)});
  }
}

void Client::ensure_connected() {
  if (fd_ >= 0) return;
  // inflight() (not inflight_) on purpose: dial() clears the buffered
  // ready_/failed_/busy_ results too, and reconnecting must never destroy
  // answers the caller has yet to wait() for.
  if (!opts_.auto_reconnect || inflight() != 0) {
    throw std::runtime_error("net client: not connected");
  }
  dial();
}

std::uint64_t Client::track_and_write(std::uint64_t id, std::vector<std::uint8_t> bytes,
                                      FrameType expect, std::size_t count,
                                      std::optional<std::uint32_t> deadline_ms) {
  // Reject a frame the server's decoder would refuse anyway — before
  // shipping tens of megabytes just to learn that.
  if (bytes.size() > kFrameHeaderBytes + opts_.max_frame_bytes) {
    throw std::runtime_error("net client: batch exceeds the maximum frame size (" +
                             std::to_string(bytes.size() - kFrameHeaderBytes) + " > " +
                             std::to_string(opts_.max_frame_bytes) + " payload bytes)");
  }
  // Register before writing: a connection loss inside write_all resends
  // from pending_frames_, and this frame must be part of that replay.
  inflight_.emplace(id, Inflight{expect, count});
  if (opts_.resend_on_reconnect) pending_frames_.emplace(id, bytes);
  if (deadline_ms) {
    wire_deadlines_[id] =
        deadline_after_ms(*deadline_ms) + std::chrono::milliseconds(opts_.deadline_grace_ms);
  }
  try {
    write_all(bytes);
  } catch (...) {
    inflight_.erase(id);
    pending_frames_.erase(id);
    wire_deadlines_.erase(id);
    throw;
  }
  return id;
}

void Client::settle_inflight(std::uint64_t request_id, FrameType got, std::size_t answered) {
  // The reply must answer a batch we actually sent, with the frame kind
  // that batch's opcode owes us, in full — an unknown id, a reply of the
  // wrong kind, or a short answer vector is a server defect the caller
  // must never index into.
  const auto it = inflight_.find(request_id);
  if (it == inflight_.end()) {
    close_socket();
    throw std::runtime_error("net client: answer for a request that is not in flight");
  }
  if (it->second.expect != got) {
    close_socket();
    throw std::runtime_error("net client: answer kind does not match the request's opcode");
  }
  if (it->second.count != answered) {
    close_socket();
    throw std::runtime_error("net client: answer count does not match the batch");
  }
  inflight_.erase(it);
  pending_frames_.erase(request_id);
  wire_deadlines_.erase(request_id);
}

std::optional<Frame> Client::route_one(std::uint64_t control_id) {
  Frame frame = read_frame();
  // Every workload's reply frame takes this one branch.
  const bool answer = service::any_workload([&]<class W>() {
    if (frame.type != WorkloadFrames<W>::kAnswer) return false;
    AnswerFrame<W> fa = decode_answer<W>(frame.payload);
    settle_inflight(fa.request_id, frame.type, fa.answers.size());
    ready_.emplace(fa.request_id, AnyAnswers(std::in_place_index<service::workload_index<W>>,
                                             std::move(fa.answers)));
    return true;
  });
  if (answer) return std::nullopt;
  switch (frame.type) {
    case FrameType::kError: {
      ErrorFrame err = decode_error(frame.payload);
      if (err.request_id == 0) {
        // Connection-level: the server is about to close on us.
        close_socket();
        throw std::runtime_error("net client: server error: " + err.message);
      }
      if (err.request_id == control_id) return frame;
      const auto it = inflight_.find(err.request_id);
      if (it == inflight_.end()) {
        close_socket();
        throw std::runtime_error("net client: error for a request that is not in flight");
      }
      inflight_.erase(it);
      pending_frames_.erase(err.request_id);
      wire_deadlines_.erase(err.request_id);
      failed_.emplace(err.request_id, std::move(err.message));
      return std::nullopt;
    }
    case FrameType::kBusy: {
      ErrorFrame busy = decode_error(frame.payload);  // BUSY shares the shape
      if (busy.request_id == control_id && control_id != 0) return frame;
      const auto it = inflight_.find(busy.request_id);
      if (it == inflight_.end()) {
        close_socket();
        throw std::runtime_error("net client: BUSY for a request that is not in flight");
      }
      inflight_.erase(it);
      pending_frames_.erase(busy.request_id);
      wire_deadlines_.erase(busy.request_id);
      busy_.emplace(busy.request_id, std::move(busy.message));
      return std::nullopt;
    }
    case FrameType::kRegisterAck: {
      const RegisterAckFrame ack = decode_register_ack(frame.payload);
      if (control_id != 0 && ack.request_id == control_id) return frame;
      close_socket();
      throw std::runtime_error("net client: REGISTER_ACK with no registration in flight");
    }
    case FrameType::kOracleList: {
      const OracleListFrame list = decode_oracle_list(frame.payload);
      if (control_id != 0 && list.request_id == control_id) return frame;
      close_socket();
      throw std::runtime_error("net client: ORACLE_LIST with no list request in flight");
    }
    case FrameType::kStatsSnapshot: {
      const StatsSnapshotFrame stats = decode_stats_snapshot(frame.payload);
      if (control_id != 0 && stats.request_id == control_id) return frame;
      close_socket();
      throw std::runtime_error("net client: STATS_SNAPSHOT with no stats request in flight");
    }
    default:
      close_socket();
      throw std::runtime_error("net client: unexpected frame type from server");
  }
}

BatchAnswer Client::wait_any() {
  for (;;) {
    constexpr std::size_t kPoint = service::workload_index<service::PointWorkload>;
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (it->second.index() != kPoint) continue;
      BatchAnswer out{it->first, std::get<kPoint>(std::move(it->second))};
      ready_.erase(it);
      return out;
    }
    if (!failed_.empty()) {
      auto it = failed_.begin();
      const std::string message = std::move(it->second);
      failed_.erase(it);
      if (is_deadline_exceeded_message(message)) {
        throw DeadlineError("net client: batch failed: " + message);
      }
      throw std::runtime_error("net client: batch failed: " + message);
    }
    if (!busy_.empty()) {
      auto it = busy_.begin();
      const std::string message = std::move(it->second);
      busy_.erase(it);
      throw BusyError("net client: batch rejected: " + message);
    }
    MSRP_REQUIRE(!inflight_.empty(), "net client: wait_any with nothing in flight");
    // The earliest give-up instant across the deadlined batches bounds the
    // read: once it passes, that batch can never complete acceptably.
    Deadline bound = kNoDeadline;
    for (const auto& [id, d] : wire_deadlines_) bound = std::min(bound, d);
    recv_bound_ = bound;
    route_one(0);
  }
}

void Client::wait_step(std::uint64_t request_id) {
  if (const auto it = failed_.find(request_id); it != failed_.end()) {
    const std::string message = std::move(it->second);
    failed_.erase(it);
    if (is_deadline_exceeded_message(message)) {
      throw DeadlineError("net client: batch failed: " + message);
    }
    throw std::runtime_error("net client: batch failed: " + message);
  }
  if (const auto it = busy_.find(request_id); it != busy_.end()) {
    const std::string message = std::move(it->second);
    busy_.erase(it);
    throw BusyError("net client: batch rejected: " + message);
  }
  MSRP_REQUIRE(inflight_.count(request_id) != 0,
               "net client: waiting for an id that is not in flight");
  const auto dl = wire_deadlines_.find(request_id);
  recv_bound_ = dl == wire_deadlines_.end() ? kNoDeadline : dl->second;
  route_one(0);
}


Frame Client::control_round_trip(std::uint64_t control_id, std::vector<std::uint8_t> bytes) {
  ensure_connected();
  recv_bound_ = kNoDeadline;  // control calls keep the unbounded wait
  MSRP_REQUIRE(!control_pending_, "net client: nested control call");
  control_pending_ = true;
  try {
    write_all(bytes);
    for (;;) {
      if (auto reply = route_one(control_id)) {
        control_pending_ = false;
        return std::move(*reply);
      }
    }
  } catch (...) {
    control_pending_ = false;
    throw;
  }
}

RegisterAckFrame Client::register_graph(std::uint32_t num_vertices,
                                        std::span<const std::pair<Vertex, Vertex>> edges,
                                        std::span<const Vertex> sources,
                                        std::optional<std::uint64_t> seed) {
  RegisterGraphFrame reg;
  reg.request_id = next_id_++;
  reg.mode = RegisterMode::kEdgeList;
  reg.seed = seed ? *seed : Config{}.seed;
  reg.num_vertices = num_vertices;
  reg.sources.assign(sources.begin(), sources.end());
  reg.edges.assign(edges.begin(), edges.end());
  std::vector<std::uint8_t> bytes;
  append_register_graph(bytes, reg);
  Frame reply = control_round_trip(reg.request_id, std::move(bytes));
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("net client: registration failed: " +
                             decode_error(reply.payload).message);
  }
  if (reply.type == FrameType::kBusy) {
    throw BusyError("net client: registration rejected: " +
                    decode_error(reply.payload).message);
  }
  return decode_register_ack(reply.payload);
}

RegisterAckFrame Client::register_snapshot_path(const std::string& path) {
  RegisterGraphFrame reg;
  reg.request_id = next_id_++;
  reg.mode = RegisterMode::kSnapshotPath;
  reg.snapshot_path = path;
  std::vector<std::uint8_t> bytes;
  append_register_graph(bytes, reg);
  Frame reply = control_round_trip(reg.request_id, std::move(bytes));
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("net client: registration failed: " +
                             decode_error(reply.payload).message);
  }
  if (reply.type == FrameType::kBusy) {
    throw BusyError("net client: registration rejected: " +
                    decode_error(reply.payload).message);
  }
  return decode_register_ack(reply.payload);
}

std::vector<OracleListEntry> Client::list_oracles() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> bytes;
  append_list_oracles(bytes, id);
  Frame reply = control_round_trip(id, std::move(bytes));
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("net client: list failed: " +
                             decode_error(reply.payload).message);
  }
  return decode_oracle_list(reply.payload).oracles;
}

RegisterAckFrame Client::unregister(std::uint64_t digest) {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> bytes;
  append_unregister(bytes, id, digest);
  Frame reply = control_round_trip(id, std::move(bytes));
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("net client: unregister failed: " +
                             decode_error(reply.payload).message);
  }
  return decode_register_ack(reply.payload);
}

StatsSnapshotFrame Client::stats() {
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> bytes;
  append_stats_request(bytes, id);
  Frame reply = control_round_trip(id, std::move(bytes));
  if (reply.type == FrameType::kError) {
    throw std::runtime_error("net client: stats failed: " +
                             decode_error(reply.payload).message);
  }
  return decode_stats_snapshot(reply.payload);
}

namespace {

/// The retry loop shared by every idempotent round trip: BUSY rejections,
/// connection loss, and DEADLINE_EXCEEDED replies retry on the policy's
/// backoff schedule; any other server-reported failure rethrows. `attempt`
/// runs one synchronous round trip with the remaining wire budget.
template <class Attempt>
auto run_with_retry(Client& client, const RetryPolicy& policy, Attempt attempt)
    -> decltype(attempt(std::optional<std::uint32_t>{})) {
  const Deadline overall =
      policy.deadline_ms != 0 ? deadline_after_ms(policy.deadline_ms) : kNoDeadline;
  const unsigned attempts = std::max(1u, policy.max_attempts);
  for (unsigned round = 0;; ++round) {
    // Each attempt carries whatever budget remains, so the server stops
    // working on an attempt the client has already given up on.
    std::optional<std::uint32_t> wire_ms;
    if (overall != kNoDeadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          overall - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw DeadlineError("net client: " + std::string(kDeadlineExceededPrefix) +
                            ": retry budget exhausted after " + std::to_string(round) +
                            " attempts");
      }
      wire_ms = static_cast<std::uint32_t>(left.count());
    }
    try {
      if (!client.connected()) client.reconnect();
      return attempt(wire_ms);
    } catch (const BusyError&) {
      if (round + 1 >= attempts) throw;
    } catch (const DeadlineError&) {
      if (round + 1 >= attempts) throw;
    } catch (const std::runtime_error&) {
      // Connection loss closes the socket; a server-reported batch error
      // leaves it open and is never retried (same bytes, same verdict).
      if (client.connected() || round + 1 >= attempts) throw;
    }
    auto pause = policy.backoff_for(round + 1);
    if (overall != kNoDeadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          overall - std::chrono::steady_clock::now());
      if (left.count() <= 0) {
        throw DeadlineError("net client: " + std::string(kDeadlineExceededPrefix) +
                            ": retry budget exhausted after " + std::to_string(round + 1) +
                            " attempts");
      }
      pause = std::min(pause, std::chrono::milliseconds(left.count()));
    }
    if (pause.count() > 0) std::this_thread::sleep_for(pause);
  }
}

}  // namespace

// ------------------------------------------------- one path per workload ---
// Generic over the tag, and built only from the private helpers above.

template <class W>
std::uint64_t Client::send(std::span<const typename W::Request> queries,
                           std::optional<std::uint64_t> digest,
                           std::optional<std::uint32_t> deadline_ms) {
  ensure_connected();
  const std::uint64_t id = next_id_++;
  std::vector<std::uint8_t> bytes;
  append_batch<W>(bytes, id, queries, digest, deadline_ms);
  return track_and_write(id, std::move(bytes), WorkloadFrames<W>::kAnswer, queries.size(),
                         deadline_ms);
}

template <class W>
std::vector<typename W::Answer> Client::wait(std::uint64_t request_id) {
  constexpr std::size_t kIndex = service::workload_index<W>;
  for (;;) {
    if (const auto it = ready_.find(request_id); it != ready_.end()) {
      MSRP_REQUIRE(it->second.index() == kIndex,
                   "net client: waiting for a batch of a different workload");
      std::vector<typename W::Answer> out = std::get<kIndex>(std::move(it->second));
      ready_.erase(it);
      return out;
    }
    wait_step(request_id);
  }
}

template <class W>
std::vector<typename W::Answer> Client::batch(std::span<const typename W::Request> queries,
                                              std::optional<std::uint64_t> digest,
                                              std::optional<std::uint32_t> deadline_ms) {
  return wait<W>(send<W>(queries, digest, deadline_ms));
}

template <class W>
std::vector<typename W::Answer> Client::batch_retry(std::span<const typename W::Request> queries,
                                                    const RetryPolicy& policy,
                                                    std::optional<std::uint64_t> digest) {
  return run_with_retry(*this, policy, [&](std::optional<std::uint32_t> wire_ms) {
    return batch<W>(queries, digest, wire_ms);
  });
}

#define MSRP_INSTANTIATE_WORKLOAD(W)                                                      \
  template std::uint64_t Client::send<W>(std::span<const W::Request>,                     \
                                         std::optional<std::uint64_t>,                    \
                                         std::optional<std::uint32_t>);                   \
  template std::vector<W::Answer> Client::wait<W>(std::uint64_t);                         \
  template std::vector<W::Answer> Client::batch<W>(                                       \
      std::span<const W::Request>, std::optional<std::uint64_t>, std::optional<std::uint32_t>); \
  template std::vector<W::Answer> Client::batch_retry<W>(                                 \
      std::span<const W::Request>, const RetryPolicy&, std::optional<std::uint64_t>)
MSRP_INSTANTIATE_WORKLOAD(service::PointWorkload);
MSRP_INSTANTIATE_WORKLOAD(service::VitalityWorkload);
MSRP_INSTANTIATE_WORKLOAD(service::VickreyWorkload);
MSRP_INSTANTIATE_WORKLOAD(service::KFailWorkload);
#undef MSRP_INSTANTIATE_WORKLOAD

}  // namespace msrp::net
