// Socket transport for distributed campaign execution.
//
// The executor already ships RunConfig/RunResult records between processes as
// checksummed length-prefixed frames over pipes (serialize.h). This layer
// lifts the exact same framing and payload codecs onto stream sockets — TCP
// ("host:port") or Unix-domain ("unix:/path") — so a campaign can span
// worker daemons. Because the frame and payload bytes are unchanged, a
// journal record produced by a remote worker is byte-identical to one
// produced in-process or by the local pool, and resume works across all of
// them.
//
// Protocol (every message is one frame_message()-wrapped payload):
//   coordinator -> worker : kHello(version, fingerprint, coordinator clock)
//   worker -> coordinator : kHelloAck(version, slots, worker clock)
//                           | kHelloReject(reason)
//   coordinator -> worker : kRunRequest(plan index, serialized RunConfig)*
//   worker -> coordinator : kRunResult(plan index, result payload)*
//                           kTelemetry(run capture | aggregate snapshot)
//                           kHeartbeat (idle-timer liveness)
// A worker pins the campaign fingerprint of its first coordinator (or the
// one given up front) and rejects mismatched campaigns — the same binding
// the journal header enforces on disk.
//
// Clock alignment: kHello and kHelloAck exchange steady-clock readings so
// the coordinator can place a worker's wall-clock telemetry (slot spans) on
// its own timeline. With t0 = coordinator send time, t1 = worker reply time,
// t2 = coordinator receive time (all monotonic ns since each host's own
// epoch), offset = t1 - (t0 + t2) / 2 maps worker time onto the coordinator
// clock assuming symmetric transit — the classic NTP estimate, plenty for
// trace visualization. Telemetry is observability-only: none of it enters
// the journal or the deterministic campaign summary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/executor.h"
#include "util/trace.h"

namespace dav {

/// Bumped whenever the message set or a message layout changes; a daemon
/// rejects a coordinator speaking a different version instead of misdecoding
/// its requests.
inline constexpr std::uint32_t kTransportProtocolVersion = 3;

enum class TransportMsgType : std::uint8_t {
  kHello = 1,       ///< coordinator handshake: version + fingerprint + clock
  kHelloAck = 2,    ///< worker accepts: version + worker slots + clock
  kHelloReject = 3, ///< worker refuses: human-readable reason
  kRunRequest = 4,  ///< plan index + serialized RunConfig
  kRunResult = 5,   ///< plan index + result payload (serialize.h)
  kHeartbeat = 6,   ///< idle-timer liveness beacon, no body
  kTelemetry = 7,   ///< worker observability batch (run capture / aggregate)
};

/// A decoded transport message; only the fields for its type are meaningful.
struct TransportMsg {
  TransportMsgType type = TransportMsgType::kHeartbeat;
  std::uint32_t proto_version = 0;  ///< kHello / kHelloAck
  std::uint64_t fingerprint = 0;    ///< kHello
  std::uint32_t slots = 0;          ///< kHelloAck
  std::uint64_t clock_ns = 0;       ///< kHello / kHelloAck: sender steady ns
  std::string reason{};             ///< kHelloReject
  std::uint64_t index = 0;          ///< kRunRequest / kRunResult
  std::string body{};               ///< config / result / telemetry payload
};

// Message encoders; wrap the returned payload in frame_message() to put it
// on the wire.
std::string msg_hello(std::uint64_t fingerprint, std::uint64_t clock_ns);
std::string msg_hello_ack(std::uint32_t slots, std::uint64_t clock_ns);
std::string msg_hello_reject(const std::string& reason);
std::string msg_run_request(std::uint64_t index, const std::string& cfg_bytes);
std::string msg_run_result(std::uint64_t index,
                           const std::string& result_payload);
std::string msg_heartbeat();

/// Decode one unframed transport payload. Throws std::runtime_error on an
/// unknown type or truncated body — callers treat that like a corrupt frame
/// (the peer is broken; drop the connection).
TransportMsg parse_transport_msg(const std::string& payload);

// --- Telemetry payloads -----------------------------------------------------
// A kTelemetry body is one sub-typed blob. Two kinds exist:
//   kTelemetryRunCapture — the deterministic residue of one finished run
//     (plan index, instant events, per-stage histograms, ring drop count),
//     flushed immediately BEFORE the matching kRunResult so the coordinator
//     holds every completed run's capture by the time the campaign drains.
//   kTelemetryAggregate — the daemon's cumulative pool picture (slot spans
//     since the last flush, worker counters, cumulative histograms), flushed
//     on the heartbeat cadence and once at session teardown.

inline constexpr std::uint8_t kTelemetryRunCapture = 1;
inline constexpr std::uint8_t kTelemetryAggregate = 2;

/// A daemon's cumulative pool telemetry. `spans` is incremental (only spans
/// completed since the previous aggregate); counters and histograms are
/// cumulative for the session.
struct TelemetryAggregate {
  std::uint64_t base_ns = 0;  ///< daemon steady clock at supervisor start
  std::uint64_t launched = 0;
  std::uint64_t respawns = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t signal_deaths = 0;
  std::uint64_t checkpoint_hits = 0;
  std::uint64_t checkpoint_misses = 0;
  std::uint64_t checkpoint_evictions = 0;
  std::uint64_t trace_dropped = 0;   ///< total ring drops across runs served
  obs::StageHistogramSet histograms; ///< cumulative across runs served
  std::vector<WorkerSpan> spans;     ///< start_sec relative to base_ns
};

/// Sub-type of a kTelemetry body (its first byte). Throws on empty body.
std::uint8_t telemetry_subtype(const std::string& body);

/// Capture blob codec (RunTraceCapture lives in executor.h: it is also what
/// a pool worker appends to its response frame, so the daemon can forward it
/// verbatim — msg_telemetry_capture() just prefixes the sub-type byte).
/// Decoders throw std::runtime_error on truncated or trailing bytes.
std::string encode_run_capture(const RunTraceCapture& cap);
RunTraceCapture decode_run_capture(const std::string& blob);

std::string msg_telemetry_capture(const std::string& capture_blob);
std::string msg_telemetry_aggregate(const TelemetryAggregate& agg);

/// Decode a kTelemetry body of sub-type kTelemetryAggregate.
TelemetryAggregate decode_telemetry_aggregate(const std::string& body);
/// Decode a kTelemetry body of sub-type kTelemetryRunCapture.
RunTraceCapture decode_telemetry_capture(const std::string& body);

/// A parsed worker address: "host:port" (TCP) or "unix:/path" (Unix-domain).
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;  ///< kTcp
  int port = 0;      ///< kTcp, 1..65535
  std::string path;  ///< kUnix
  std::string spec;  ///< the original text, for diagnostics
};

/// Parse "host:port" or "unix:/path". Throws std::invalid_argument naming
/// the offending spec.
Endpoint parse_endpoint(const std::string& spec);

/// Split a DAV_WORKERS-style comma list into trimmed, non-empty specs.
/// Throws std::invalid_argument on an empty list entry.
std::vector<std::string> split_worker_list(const std::string& csv);

/// Capped exponential backoff with deterministic seeded jitter:
/// base * 2^min(attempt,16), capped at cap_sec, scaled by a jitter factor in
/// [0.75, 1.25) derived from fnv1a64(salt, attempt). Pure — the same
/// (base, attempt, salt) always yields the same delay — so retry schedules
/// are replayable, yet fleets of retries keyed by different salts (run
/// digest, endpoint name) never synchronize into thundering herds.
double backoff_delay_sec(double base_sec, int attempt, std::uint64_t salt,
                         double cap_sec = 60.0);

// --- POSIX socket helpers --------------------------------------------------
// All return -1 and fill *err on failure; on non-POSIX hosts they fail with
// "sockets unsupported". Connects are blocking (loopback/LAN latency).

/// Create a listening socket on `ep` (SO_REUSEADDR for TCP; a pre-existing
/// Unix-socket file is unlinked first).
int listen_endpoint(const Endpoint& ep, std::string* err);

/// Connect a stream socket to `ep`.
int connect_endpoint(const Endpoint& ep, std::string* err);

/// frame_message(payload) + write the whole frame. Returns false once the
/// peer is gone (callers learn the details from the next read's EOF).
bool send_frame(int fd, const std::string& payload);

/// Worker daemon configuration (davcamp serve).
struct ServeOptions {
  /// Listen address, "host:port" or "unix:/path".
  std::string listen_spec;
  /// Send a kHeartbeat whenever nothing else was written for this long;
  /// <= 0 disables the beacon.
  double heartbeat_sec = 5.0;
  /// Campaign fingerprint to enforce up front; 0 pins whatever the first
  /// coordinator presents.
  std::uint64_t expected_fingerprint = 0;
  /// Exit after serving this many coordinator sessions; <= 0 serves until
  /// SIGINT/SIGTERM.
  int max_sessions = 0;
};

/// Run a worker daemon: accept one coordinator at a time, handshake on the
/// campaign fingerprint, execute requests through a PoolSupervisor (the
/// PR-5 prefork pool: fork-isolated workers, watchdog, per-worker
/// CheckpointStore), and stream result frames back. A worker death is
/// reported as a kHarnessError result payload — the coordinator applies the
/// same retry/quarantine policy it uses for local deaths. When the
/// coordinator disconnects, in-flight pool workers are torn down and the
/// daemon returns to accepting (so a restarted coordinator can resume).
/// Returns 0 on a clean stop (signal or max_sessions); throws
/// std::runtime_error when the listen address is unusable. `fn` defaults to
/// run_experiment.
int serve_campaign(const ServeOptions& sopts, const ExecutorOptions& eopts,
                   CampaignExecutor::CheckpointRunFn fn = {});

}  // namespace dav
