#include "campaign/transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define DAV_TRANSPORT_POSIX 1
#include <csignal>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "campaign/driver.h"
#include "campaign/serialize.h"
#include "util/bits.h"

namespace dav {

namespace {

// ---- message codec --------------------------------------------------------

std::string with_type(TransportMsgType type, const std::string& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(body);
  return w.take();
}

}  // namespace

std::string msg_hello(std::uint64_t fingerprint, std::uint64_t clock_ns) {
  ByteWriter w;
  w.u32(kTransportProtocolVersion);
  w.u64(fingerprint);
  w.u64(clock_ns);
  return with_type(TransportMsgType::kHello, w.bytes());
}

std::string msg_hello_ack(std::uint32_t slots, std::uint64_t clock_ns) {
  ByteWriter w;
  w.u32(kTransportProtocolVersion);
  w.u32(slots);
  w.u64(clock_ns);
  return with_type(TransportMsgType::kHelloAck, w.bytes());
}

std::string msg_hello_reject(const std::string& reason) {
  ByteWriter w;
  w.str(reason);
  return with_type(TransportMsgType::kHelloReject, w.bytes());
}

std::string msg_run_request(std::uint64_t index,
                            const std::string& cfg_bytes) {
  ByteWriter w;
  w.u64(index);
  w.raw(cfg_bytes);
  return with_type(TransportMsgType::kRunRequest, w.bytes());
}

std::string msg_run_result(std::uint64_t index,
                           const std::string& result_payload) {
  ByteWriter w;
  w.u64(index);
  w.raw(result_payload);
  return with_type(TransportMsgType::kRunResult, w.bytes());
}

std::string msg_heartbeat() {
  return with_type(TransportMsgType::kHeartbeat, std::string());
}

TransportMsg parse_transport_msg(const std::string& payload) {
  ByteReader r(payload);
  TransportMsg msg;
  msg.type = static_cast<TransportMsgType>(r.u8());
  switch (msg.type) {
    case TransportMsgType::kHello:
      msg.proto_version = r.u32();
      msg.fingerprint = r.u64();
      msg.clock_ns = r.u64();
      break;
    case TransportMsgType::kHelloAck:
      msg.proto_version = r.u32();
      msg.slots = r.u32();
      msg.clock_ns = r.u64();
      break;
    case TransportMsgType::kHelloReject:
      msg.reason = r.str();
      break;
    case TransportMsgType::kRunRequest:
    case TransportMsgType::kRunResult:
      msg.index = r.u64();
      msg.body = payload.substr(payload.size() - r.remaining());
      return msg;  // body consumes the rest; skip the done() check below
    case TransportMsgType::kTelemetry:
      msg.body = payload.substr(payload.size() - r.remaining());
      return msg;  // sub-typed body consumes the rest
    case TransportMsgType::kHeartbeat:
      break;
    default:
      throw std::runtime_error("transport: unknown message type " +
                               std::to_string(static_cast<int>(msg.type)));
  }
  if (!r.done()) {
    throw std::runtime_error("transport: trailing bytes after message");
  }
  return msg;
}

// ---- telemetry codec ------------------------------------------------------

namespace {

// Histograms go on the wire sparsely: per stage, only the non-empty buckets
// (u8 bucket index, u64 count). A traced run touches a handful of buckets
// per stage, so this keeps a capture blob in the low hundreds of bytes.
void put_histograms(ByteWriter& w, const obs::StageHistogramSet& hist) {
  for (const obs::StageHistogram& h : hist.stages) {
    std::uint8_t nonzero = 0;
    for (std::uint64_t b : h.buckets) {
      if (b != 0) ++nonzero;
    }
    w.u8(nonzero);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      w.u8(static_cast<std::uint8_t>(i));
      w.u64(h.buckets[i]);
    }
  }
}

void get_histograms(ByteReader& r, obs::StageHistogramSet& hist) {
  for (obs::StageHistogram& h : hist.stages) {
    const std::uint8_t nonzero = r.u8();
    for (std::uint8_t i = 0; i < nonzero; ++i) {
      const std::uint8_t bucket = r.u8();
      if (bucket >= h.buckets.size()) {
        throw std::runtime_error("telemetry: histogram bucket out of range");
      }
      h.buckets[bucket] = r.u64();
    }
  }
}

/// A u32 element count read off the wire. Each element takes at least
/// `elem_bytes`, so a count past the remaining bytes is corruption — caught
/// here instead of in a giant reserve().
std::uint32_t get_count(ByteReader& r, std::size_t elem_bytes) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / elem_bytes) {
    throw std::runtime_error("telemetry: implausible element count");
  }
  return n;
}

// Wire sizes of one capture instant and one aggregate span (see encoders).
constexpr std::size_t kInstantBytes = 4 + 4 + 1 + 8;
constexpr std::size_t kSpanBytes = 8 + 4 + 4 + 8 + 8;

}  // namespace

std::uint8_t telemetry_subtype(const std::string& body) {
  if (body.empty()) {
    throw std::runtime_error("telemetry: empty body");
  }
  return static_cast<std::uint8_t>(body[0]);
}

std::string encode_run_capture(const RunTraceCapture& cap) {
  ByteWriter w;
  w.u64(cap.plan_index);
  w.u64(cap.capture.dropped);
  w.f64(cap.capture.dt);
  put_histograms(w, cap.capture.histograms);
  w.u32(static_cast<std::uint32_t>(cap.capture.instants.size()));
  for (const obs::TraceEvent& ev : cap.capture.instants) {
    w.u32(ev.tick);
    w.u32(ev.id);
    w.u8(static_cast<std::uint8_t>(ev.track));
    w.f64(ev.value);
  }
  return w.take();
}

RunTraceCapture decode_run_capture(const std::string& blob) {
  ByteReader r(blob);
  RunTraceCapture cap;
  cap.capture.valid = true;
  cap.plan_index = r.u64();
  cap.capture.dropped = r.u64();
  cap.capture.dt = r.f64();
  get_histograms(r, cap.capture.histograms);
  const std::uint32_t n = get_count(r, kInstantBytes);
  cap.capture.instants.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    obs::TraceEvent ev;
    ev.tick = r.u32();
    ev.id = static_cast<std::uint16_t>(r.u32());
    ev.kind = obs::EventKind::kInstant;
    ev.track = static_cast<std::int8_t>(r.u8());
    ev.value = r.f64();
    cap.capture.instants.push_back(ev);
  }
  if (!r.done()) {
    throw std::runtime_error("telemetry: trailing bytes after run capture");
  }
  return cap;
}

std::string msg_telemetry_capture(const std::string& capture_blob) {
  ByteWriter w;
  w.u8(kTelemetryRunCapture);
  w.raw(capture_blob);
  return with_type(TransportMsgType::kTelemetry, w.bytes());
}

std::string msg_telemetry_aggregate(const TelemetryAggregate& agg) {
  ByteWriter w;
  w.u8(kTelemetryAggregate);
  w.u64(agg.base_ns);
  w.u64(agg.launched);
  w.u64(agg.respawns);
  w.u64(agg.timeouts);
  w.u64(agg.signal_deaths);
  w.u64(agg.checkpoint_hits);
  w.u64(agg.checkpoint_misses);
  w.u64(agg.checkpoint_evictions);
  w.u64(agg.trace_dropped);
  put_histograms(w, agg.histograms);
  w.u32(static_cast<std::uint32_t>(agg.spans.size()));
  for (const WorkerSpan& s : agg.spans) {
    w.u64(static_cast<std::uint64_t>(s.index));
    w.u32(static_cast<std::uint32_t>(s.slot));
    w.u32(static_cast<std::uint32_t>(s.attempt));
    w.f64(s.start_sec);
    w.f64(s.dur_sec);
  }
  return with_type(TransportMsgType::kTelemetry, w.bytes());
}

TelemetryAggregate decode_telemetry_aggregate(const std::string& body) {
  ByteReader r(body);
  if (r.u8() != kTelemetryAggregate) {
    throw std::runtime_error("telemetry: not an aggregate body");
  }
  TelemetryAggregate agg;
  agg.base_ns = r.u64();
  agg.launched = r.u64();
  agg.respawns = r.u64();
  agg.timeouts = r.u64();
  agg.signal_deaths = r.u64();
  agg.checkpoint_hits = r.u64();
  agg.checkpoint_misses = r.u64();
  agg.checkpoint_evictions = r.u64();
  agg.trace_dropped = r.u64();
  get_histograms(r, agg.histograms);
  const std::uint32_t n = get_count(r, kSpanBytes);
  agg.spans.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WorkerSpan s;
    s.index = static_cast<std::size_t>(r.u64());
    s.slot = static_cast<int>(r.u32());
    s.attempt = static_cast<int>(r.u32());
    s.start_sec = r.f64();
    s.dur_sec = r.f64();
    agg.spans.push_back(s);
  }
  if (!r.done()) {
    throw std::runtime_error("telemetry: trailing bytes after aggregate");
  }
  return agg;
}

RunTraceCapture decode_telemetry_capture(const std::string& body) {
  if (telemetry_subtype(body) != kTelemetryRunCapture) {
    throw std::runtime_error("telemetry: not a run-capture body");
  }
  return decode_run_capture(body.substr(1));
}

// ---- addressing -----------------------------------------------------------

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  ep.spec = spec;
  if (spec.rfind("unix:", 0) == 0) {
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = spec.substr(5);
    if (ep.path.empty()) {
      throw std::invalid_argument("endpoint '" + spec +
                                  "': empty unix socket path");
    }
    return ep;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument("endpoint '" + spec +
                                "': expected host:port or unix:/path");
  }
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = spec.substr(0, colon);
  const std::string port_text = spec.substr(colon + 1);
  if (port_text.empty() ||
      port_text.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("endpoint '" + spec + "': bad port '" +
                                port_text + "'");
  }
  long port = 0;
  try {
    port = std::stol(port_text);
  } catch (const std::exception&) {
    port = 0;
  }
  if (port < 1 || port > 65535) {
    throw std::invalid_argument("endpoint '" + spec +
                                "': port must be in 1..65535");
  }
  ep.port = static_cast<int>(port);
  return ep;
}

std::vector<std::string> split_worker_list(const std::string& csv) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    std::string item = csv.substr(pos, comma - pos);
    const std::size_t first = item.find_first_not_of(" \t");
    if (first == std::string::npos) {
      item.clear();
    } else {
      item = item.substr(first, item.find_last_not_of(" \t") - first + 1);
    }
    if (item.empty()) {
      throw std::invalid_argument("worker list '" + csv +
                                  "' has an empty entry");
    }
    specs.push_back(std::move(item));
    pos = comma + 1;
    if (comma == csv.size()) break;
  }
  if (specs.empty()) {
    throw std::invalid_argument("worker list is empty");
  }
  return specs;
}

// ---- backoff --------------------------------------------------------------

double backoff_delay_sec(double base_sec, int attempt, std::uint64_t salt,
                         double cap_sec) {
  // `1 << attempt` is UB for attempt >= 31; a quarantine-bound run can cross
  // that with a generous max_retries. Clamp the exponent (the cap saturates
  // the delay long before 2^16 anyway).
  const int shift = std::min(std::max(attempt, 0), 16);
  const double raw = base_sec * static_cast<double>(1u << shift);
  const double capped = std::min(raw, cap_sec);
  // Deterministic jitter in [0.75, 1.25): hash (salt, attempt) and map the
  // top 53 bits onto the unit interval.
  ByteWriter w;
  w.u64(salt);
  w.u32(static_cast<std::uint32_t>(shift));
  w.u32(static_cast<std::uint32_t>(attempt));
  const std::uint64_t h = fnv1a64(w.bytes().data(), w.bytes().size());
  const double unit =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
  return capped * (0.75 + 0.5 * unit);
}

// ---- sockets --------------------------------------------------------------

#if DAV_TRANSPORT_POSIX

namespace {

bool fill_unix_addr(const Endpoint& ep, sockaddr_un& addr,
                    std::string* err) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (ep.path.size() >= sizeof(addr.sun_path)) {
    if (err != nullptr) {
      *err = "unix socket path too long: " + ep.path;
    }
    return false;
  }
  std::memcpy(addr.sun_path, ep.path.c_str(), ep.path.size() + 1);
  return true;
}

/// getaddrinfo for a TCP endpoint; returns nullptr + *err on failure.
addrinfo* resolve_tcp(const Endpoint& ep, bool passive, std::string* err) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port = std::to_string(ep.port);
  const int rc = ::getaddrinfo(ep.host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    if (err != nullptr) {
      *err = "resolve " + ep.spec + ": " + ::gai_strerror(rc);
    }
    return nullptr;
  }
  return res;
}

void set_errno_err(const char* what, const Endpoint& ep, std::string* err) {
  if (err != nullptr) {
    *err = std::string(what) + " " + ep.spec + ": " + std::strerror(errno);
  }
}

}  // namespace

int listen_endpoint(const Endpoint& ep, std::string* err) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!fill_unix_addr(ep, addr, err)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      set_errno_err("socket", ep, err);
      return -1;
    }
    // A stale socket file from a dead daemon would make bind fail forever.
    ::unlink(ep.path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 16) != 0) {
      set_errno_err("bind/listen", ep, err);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo* res = resolve_tcp(ep, /*passive=*/true, err);
  if (res == nullptr) return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 16) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
  }
  if (fd < 0) set_errno_err("bind/listen", ep, err);
  ::freeaddrinfo(res);
  return fd;
}

int connect_endpoint(const Endpoint& ep, std::string* err) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr;
    if (!fill_unix_addr(ep, addr, err)) return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      set_errno_err("socket", ep, err);
      return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      set_errno_err("connect", ep, err);
      ::close(fd);
      return -1;
    }
    return fd;
  }
  addrinfo* res = resolve_tcp(ep, /*passive=*/false, err);
  if (res == nullptr) return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      break;
    }
    ::close(fd);
    fd = -1;
  }
  if (fd < 0) set_errno_err("connect", ep, err);
  ::freeaddrinfo(res);
  return fd;
}

bool send_frame(int fd, const std::string& payload) {
  const std::string frame = frame_message(payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::write(fd, frame.data() + off, frame.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// ---- worker daemon --------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// Set by SIGINT/SIGTERM; the accept and serve loops poll it. The handler
/// only stores a flag (async-signal-safe by construction).
volatile std::sig_atomic_t g_serve_stop = 0;

void serve_stop_handler(int) { g_serve_stop = 1; }

/// SIGPIPE -> EPIPE for the daemon's lifetime (coordinator sockets and pool
/// pipes both bite otherwise). Mirrors the executor's guard.
struct ServeSigpipeGuard {
  struct sigaction previous {};
  ServeSigpipeGuard() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous);
  }
  ~ServeSigpipeGuard() { ::sigaction(SIGPIPE, &previous, nullptr); }
};

/// Serve one coordinator session on `cfd`. Requests are fed to a fresh
/// PoolSupervisor (fork-isolated pool workers, watchdog, per-worker
/// CheckpointStore); each completion streams back as a kRunResult frame.
/// Returns when the coordinator disconnects, breaks protocol, or the stop
/// flag rises — the supervisor teardown kills whatever was still in flight,
/// and the coordinator's dead-endpoint path requeues those runs elsewhere.
void serve_session(int cfd, const ExecutorOptions& eopts,
                   const CampaignExecutor::CheckpointRunFn& fn,
                   double heartbeat_sec) {
  const Clock::time_point session_epoch = Clock::now();
  PoolSupervisor sup(eopts, fn, session_epoch);
  // Configs in flight, by plan index: keeps each RunConfigRecord's LUT
  // storage alive for the pool worker round-trip, and lets a worker death be
  // reported as a kHarnessError payload for the exact config that died.
  std::map<std::uint64_t, RunConfigRecord> inflight;
  std::deque<std::pair<std::uint64_t, RunConfigRecord>> queue;
  std::string rbuf;
  Clock::time_point last_tx = Clock::now();
  const auto send = [&](const std::string& payload) {
    last_tx = Clock::now();
    return send_frame(cfd, payload);
  };

  // Telemetry accumulators. Histograms and the drop count are cumulative for
  // the session; spans buffer up and flush incrementally with each aggregate.
  const std::uint64_t session_base_ns =
      static_cast<std::uint64_t>(std::chrono::duration_cast<
                                     std::chrono::nanoseconds>(
                                     session_epoch.time_since_epoch())
                                     .count());
  obs::StageHistogramSet cum_hist;
  std::uint64_t cum_dropped = 0;
  std::vector<WorkerSpan> pending_spans;
  std::uint64_t flushed_counter_sig = 0;
  const auto make_aggregate = [&]() {
    const PoolSupervisor::Telemetry& t = sup.telemetry();
    TelemetryAggregate agg;
    agg.base_ns = session_base_ns;
    agg.launched = static_cast<std::uint64_t>(t.launched);
    agg.respawns = static_cast<std::uint64_t>(t.respawns);
    agg.timeouts = static_cast<std::uint64_t>(t.timeouts);
    agg.signal_deaths = static_cast<std::uint64_t>(t.signal_deaths);
    agg.checkpoint_hits = t.checkpoint_hits;
    agg.checkpoint_misses = t.checkpoint_misses;
    agg.checkpoint_evictions = t.checkpoint_evictions;
    agg.trace_dropped = cum_dropped;
    agg.histograms = cum_hist;
    agg.spans = std::move(pending_spans);
    pending_spans.clear();
    flushed_counter_sig = agg.launched + agg.respawns + agg.timeouts +
                          agg.signal_deaths + agg.checkpoint_hits +
                          agg.checkpoint_misses + agg.checkpoint_evictions;
    return msg_telemetry_aggregate(agg);
  };

  for (;;) {
    if (g_serve_stop != 0) return;

    // Feed queued requests to idle pool slots.
    while (!queue.empty() && sup.can_dispatch()) {
      auto& [index, record] = queue.front();
      sup.dispatch(static_cast<std::size_t>(index), 0, record.cfg);
      inflight.emplace(index, std::move(record));
      queue.pop_front();
    }

    std::vector<PoolSupervisor::Completion> comps;
    bool socket_readable = false;
    sup.pump(/*max_wait_ms=*/200, comps, cfd, &socket_readable);

    // Telemetry goes out BEFORE the results it describes: captures, then an
    // aggregate carrying these completions' slot spans, then the results.
    // The stream is ordered, so by the time the coordinator sees the final
    // kRunResult of the campaign it already holds every capture and span —
    // nothing is lost when it disconnects immediately after.
    std::vector<std::pair<std::uint64_t, std::string>> out_results;
    for (const PoolSupervisor::Completion& c : comps) {
      const std::uint64_t index = static_cast<std::uint64_t>(c.index);
      const auto it = inflight.find(index);
      if (it == inflight.end()) continue;  // unreachable: dispatch recorded it
      std::string payload =
          c.ok ? c.result_payload
               : make_result_payload(false, c.what,
                                     harness_error_result(it->second.cfg));
      inflight.erase(it);
      if (!c.capture_payload.empty()) {
        try {
          const RunTraceCapture cap = decode_run_capture(c.capture_payload);
          cum_dropped += cap.capture.dropped;
          cum_hist.merge(cap.capture.histograms);
        } catch (const std::exception&) {
          // A malformed capture is observability loss, not a protocol error.
        }
        if (!send(msg_telemetry_capture(c.capture_payload))) return;
      }
      WorkerSpan span;
      span.index = c.index;
      span.slot = c.slot;
      span.attempt = c.attempt;
      span.start_sec = c.start_sec;
      span.dur_sec = c.dur_sec;
      pending_spans.push_back(span);
      out_results.emplace_back(index, std::move(payload));
    }
    if (!pending_spans.empty() && !send(make_aggregate())) return;
    for (const auto& [index, payload] : out_results) {
      if (!send(msg_run_result(index, payload))) return;
    }

    if (socket_readable) {
      char chunk[65536];
      const ssize_t n = ::read(cfd, chunk, sizeof(chunk));
      if (n == 0) return;  // coordinator hung up
      if (n < 0) {
        if (errno != EINTR) return;
      } else {
        rbuf.append(chunk, static_cast<std::size_t>(n));
      }
      for (;;) {
        const FrameSplit fs = try_unframe(rbuf);
        if (fs.status == FrameSplit::Status::kNeedMore) break;
        if (fs.status == FrameSplit::Status::kCorrupt) return;
        rbuf.erase(0, fs.consumed);
        TransportMsg msg;
        try {
          msg = parse_transport_msg(fs.payload);
        } catch (const std::exception&) {
          return;
        }
        if (msg.type != TransportMsgType::kRunRequest) return;
        try {
          RunConfigRecord record = deserialize_run_config(msg.body);
          queue.emplace_back(msg.index, std::move(record));
        } catch (const std::exception& e) {
          // The frame was intact, so this is a codec mismatch, not line
          // noise: report it as a harness failure the coordinator can
          // quarantine instead of retrying forever.
          RunConfig empty;
          if (!send(msg_run_result(
                  msg.index,
                  make_result_payload(
                      false,
                      std::string("daemon: undecodable config: ") + e.what(),
                      harness_error_result(empty))))) {
            return;
          }
        }
      }
    }

    // Idle beacon so the coordinator can tell "slow run" from "dead daemon".
    // Telemetry piggybacks on this cadence: counter movement with no
    // completion to carry it (respawns, checkpoint-store churn) flushes here.
    if (heartbeat_sec > 0.0) {
      const double idle =
          std::chrono::duration<double>(Clock::now() - last_tx).count();
      if (idle >= heartbeat_sec) {
        const PoolSupervisor::Telemetry& t = sup.telemetry();
        const std::uint64_t sig =
            static_cast<std::uint64_t>(t.launched) +
            static_cast<std::uint64_t>(t.respawns) +
            static_cast<std::uint64_t>(t.timeouts) +
            static_cast<std::uint64_t>(t.signal_deaths) + t.checkpoint_hits +
            t.checkpoint_misses + t.checkpoint_evictions;
        if (sig != flushed_counter_sig && !send(make_aggregate())) return;
        if (!send(msg_heartbeat())) return;
      }
    }
  }
}

}  // namespace

int serve_campaign(const ServeOptions& sopts, const ExecutorOptions& eopts,
                   CampaignExecutor::CheckpointRunFn fn) {
  const Endpoint ep = parse_endpoint(sopts.listen_spec);
  std::string err;
  const int lfd = listen_endpoint(ep, &err);
  if (lfd < 0) {
    throw std::runtime_error("serve: " + err);
  }

  if (!fn) {
    fn = [](const RunConfig& c, CheckpointStore* s) {
      return run_experiment(c, s);
    };
  }
  // The daemon runs configs through the pool; campaign plumbing (journal,
  // remote workers) belongs to the coordinator side only.
  ExecutorOptions pool_opts = eopts;
  pool_opts.jobs = std::max(1, eopts.jobs);
  pool_opts.workers.clear();
  pool_opts.journal_path.clear();

  ServeSigpipeGuard sigpipe_guard;
  g_serve_stop = 0;
  struct sigaction stop_action {};
  struct sigaction prev_int {};
  struct sigaction prev_term {};
  stop_action.sa_handler = serve_stop_handler;
  ::sigaction(SIGINT, &stop_action, &prev_int);
  ::sigaction(SIGTERM, &stop_action, &prev_term);

  std::fprintf(stderr, "davcamp serve: listening on %s (%d slot%s)\n",
               ep.spec.c_str(), pool_opts.jobs,
               pool_opts.jobs == 1 ? "" : "s");

  std::uint64_t pinned_fingerprint = sopts.expected_fingerprint;
  int sessions = 0;
  while (g_serve_stop == 0 &&
         (sopts.max_sessions <= 0 || sessions < sopts.max_sessions)) {
    pollfd pfd{lfd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0 || pfd.revents == 0) continue;
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) continue;

    // Handshake: expect exactly one kHello within 5 s, pin/enforce the
    // campaign fingerprint, then serve run requests.
    std::string buf;
    bool accepted = false;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(5);
    while (Clock::now() < deadline && g_serve_stop == 0) {
      pollfd cpfd{cfd, POLLIN, 0};
      if (::poll(&cpfd, 1, 100) <= 0 || cpfd.revents == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(cfd, chunk, sizeof(chunk));
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      const FrameSplit fs = try_unframe(buf);
      if (fs.status == FrameSplit::Status::kNeedMore) continue;
      if (fs.status == FrameSplit::Status::kCorrupt) break;
      TransportMsg hello;
      try {
        hello = parse_transport_msg(fs.payload);
      } catch (const std::exception&) {
        break;
      }
      if (hello.type != TransportMsgType::kHello) break;
      if (hello.proto_version != kTransportProtocolVersion) {
        send_frame(cfd, msg_hello_reject(
                            "protocol version " +
                            std::to_string(hello.proto_version) +
                            ", daemon speaks " +
                            std::to_string(kTransportProtocolVersion)));
        break;
      }
      if (pinned_fingerprint != 0 &&
          hello.fingerprint != pinned_fingerprint) {
        send_frame(cfd,
                   msg_hello_reject("campaign fingerprint mismatch: this "
                                    "daemon is serving a different campaign"));
        break;
      }
      if (pinned_fingerprint == 0) pinned_fingerprint = hello.fingerprint;
      // The ack carries this daemon's steady clock so the coordinator can
      // align our telemetry onto its own timeline (see header comment).
      const std::uint64_t now_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count());
      accepted = send_frame(
          cfd,
          msg_hello_ack(static_cast<std::uint32_t>(pool_opts.jobs), now_ns));
      break;
    }

    if (accepted) {
      ++sessions;
      std::fprintf(stderr, "davcamp serve: session %d started\n", sessions);
      try {
        serve_session(cfd, pool_opts, fn, sopts.heartbeat_sec);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "davcamp serve: session %d failed: %s\n",
                     sessions, e.what());
      }
      std::fprintf(stderr, "davcamp serve: session %d ended\n", sessions);
    }
    ::close(cfd);
  }

  ::sigaction(SIGINT, &prev_int, nullptr);
  ::sigaction(SIGTERM, &prev_term, nullptr);
  ::close(lfd);
  if (ep.kind == Endpoint::Kind::kUnix) ::unlink(ep.path.c_str());
  std::fprintf(stderr, "davcamp serve: stopped after %d session%s\n",
               sessions, sessions == 1 ? "" : "s");
  return 0;
}

#else  // !DAV_TRANSPORT_POSIX

int listen_endpoint(const Endpoint&, std::string* err) {
  if (err != nullptr) *err = "sockets unsupported on this platform";
  return -1;
}

int connect_endpoint(const Endpoint&, std::string* err) {
  if (err != nullptr) *err = "sockets unsupported on this platform";
  return -1;
}

bool send_frame(int, const std::string&) { return false; }

int serve_campaign(const ServeOptions&, const ExecutorOptions&,
                   CampaignExecutor::CheckpointRunFn) {
  throw std::runtime_error("serve: sockets unsupported on this platform");
}

#endif

}  // namespace dav
