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

// ---- message codec --------------------------------------------------------

template <class A>
void io(A& a, TransportMsg& m) {
  a.u8(m.type);
  switch (m.type) {
    case TransportMsgType::kHello:
      a.u32(m.proto_version);
      a.u64(m.fingerprint);
      a.u64(m.clock_ns);
      break;
    case TransportMsgType::kHelloAck:
      a.u32(m.proto_version);
      a.u32(m.slots);
      a.u64(m.clock_ns);
      break;
    case TransportMsgType::kHelloReject:
      a.str(m.reason);
      break;
    case TransportMsgType::kRunRequest:
    case TransportMsgType::kRunResult:
      a.u64(m.index);
      a.rest(m.body);
      break;
    case TransportMsgType::kTelemetry:  // a sub-typed body
      a.rest(m.body);
      break;
    case TransportMsgType::kHeartbeat:
      break;
    default:
      throw std::runtime_error("transport: unknown message type " +
                               std::to_string(static_cast<int>(m.type)));
  }
}

std::string msg_hello(std::uint64_t fingerprint, std::uint64_t clock_ns) {
  return encode_fields(TransportMsg{.type = TransportMsgType::kHello,
                                    .proto_version = kTransportProtocolVersion,
                                    .fingerprint = fingerprint,
                                    .clock_ns = clock_ns});
}

std::string msg_hello_ack(std::uint32_t slots, std::uint64_t clock_ns) {
  return encode_fields(TransportMsg{.type = TransportMsgType::kHelloAck,
                                    .proto_version = kTransportProtocolVersion,
                                    .slots = slots,
                                    .clock_ns = clock_ns});
}

std::string msg_hello_reject(const std::string& reason) {
  return encode_fields(
      TransportMsg{.type = TransportMsgType::kHelloReject, .reason = reason});
}

std::string msg_run_request(std::uint64_t index,
                            const std::string& cfg_bytes) {
  return encode_fields(TransportMsg{.type = TransportMsgType::kRunRequest,
                                    .index = index,
                                    .body = cfg_bytes});
}

std::string msg_run_result(std::uint64_t index,
                           const std::string& result_payload) {
  return encode_fields(TransportMsg{.type = TransportMsgType::kRunResult,
                                    .index = index,
                                    .body = result_payload});
}

std::string msg_heartbeat() {
  return encode_fields(TransportMsg{.type = TransportMsgType::kHeartbeat});
}

TransportMsg parse_transport_msg(const std::string& payload) {
  return decode_fields<TransportMsg>(payload, "transport");
}

// ---- telemetry codec ------------------------------------------------------

// Histograms go on the wire sparsely: per stage, the number of non-empty
// buckets, then (u8 bucket index, u64 count) for each. A traced run touches a
// handful of buckets per stage, so this keeps a capture blob in the low
// hundreds of bytes. Encoding walks the non-empty buckets in order; decoding
// starts from empty histograms and takes both numbers from the wire.
template <class A>
void io(A& a, obs::StageHistogramSet& hist) {
  for (obs::StageHistogram& h : hist.stages) {
    auto nonzero = static_cast<std::uint8_t>(std::count_if(
        h.buckets.begin(), h.buckets.end(),
        [](std::uint64_t b) { return b != 0; }));
    a.u8(nonzero);
    std::size_t next = 0;
    for (std::uint8_t k = 0; k < nonzero; ++k, ++next) {
      while (next < h.buckets.size() && h.buckets[next] == 0) ++next;
      auto bucket = static_cast<std::uint8_t>(next);
      a.u8(bucket);
      if (bucket >= h.buckets.size()) {
        throw std::runtime_error("telemetry: histogram bucket out of range");
      }
      a.u64(h.buckets[bucket]);
    }
  }
}

template <class A>
void io(A& a, RunTraceCapture& cap) {
  a.u64(cap.plan_index);
  a.u64(cap.capture.dropped);
  a.f64(cap.capture.dt);
  io(a, cap.capture.histograms);
  a.vec32(cap.capture.instants, [&](obs::TraceEvent& ev) {
    a.u32(ev.tick);
    a.u32(ev.id);
    a.u8(ev.track);
    a.f64(ev.value);
  });
}

template <class A>
void io(A& a, TelemetryAggregate& agg) {
  a.u64(agg.base_ns);
  a.u64(agg.launched);
  a.u64(agg.respawns);
  a.u64(agg.timeouts);
  a.u64(agg.signal_deaths);
  a.u64(agg.checkpoint_hits);
  a.u64(agg.checkpoint_misses);
  a.u64(agg.checkpoint_evictions);
  a.u64(agg.trace_dropped);
  io(a, agg.histograms);
  a.vec32(agg.spans, [&](WorkerSpan& s) {
    a.u64(s.index);
    a.u32(s.slot);
    a.u32(s.attempt);
    a.f64(s.start_sec);
    a.f64(s.dur_sec);
  });
}

std::uint8_t telemetry_subtype(const std::string& body) {
  if (body.empty()) {
    throw std::runtime_error("telemetry: empty body");
  }
  return static_cast<std::uint8_t>(body[0]);
}

std::string encode_run_capture(const RunTraceCapture& cap) {
  return encode_fields(cap);
}

RunTraceCapture decode_run_capture(const std::string& blob) {
  RunTraceCapture cap = decode_fields<RunTraceCapture>(blob, "telemetry");
  cap.capture.valid = true;
  for (obs::TraceEvent& ev : cap.capture.instants) {
    ev.kind = obs::EventKind::kInstant;
  }
  return cap;
}

std::string msg_telemetry_capture(const std::string& capture_blob) {
  return encode_fields(
      TransportMsg{.type = TransportMsgType::kTelemetry,
                   .body = static_cast<char>(kTelemetryRunCapture) +
                           capture_blob});
}

std::string msg_telemetry_aggregate(const TelemetryAggregate& agg) {
  return encode_fields(
      TransportMsg{.type = TransportMsgType::kTelemetry,
                   .body = static_cast<char>(kTelemetryAggregate) +
                           encode_fields(agg)});
}

TelemetryAggregate decode_telemetry_aggregate(const std::string& body) {
  if (telemetry_subtype(body) != kTelemetryAggregate) {
    throw std::runtime_error("telemetry: not an aggregate body");
  }
  return decode_fields<TelemetryAggregate>(body.substr(1), "telemetry");
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
