// Trace exporters: Chrome trace-event JSON (loads in Perfetto and
// chrome://tracing) and a compact tick-indexed CSV of the detection /
// recovery story. A run exports only the JSON; `davtrace csv` parses it back
// and renders the CSV, so both directions live here and round-trip exactly.
//
// Timestamp convention: ts is SIMULATED microseconds (tick * dt * 1e6) for
// per-run traces — bit-deterministic — and wall microseconds only for the
// campaign-level telemetry trace the executor emits. dur is wall-clock
// profiling data and is the one intentionally nondeterministic field.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/trace.h"

namespace dav::obs {

/// One Chrome trace-event, the exported/parsed form of a TraceEvent.
///   ph 'X' complete span | 'C' counter | 'i' instant
struct ChromeEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  double ts_us = 0.0;
  double dur_us = 0.0;  // spans only
  int pid = 1;
  int tid = 0;
  int tick = -1;        // args.tick; -1 omits it
  double value = 0.0;   // args.value (counters/instants)
  bool has_value = false;
};

/// A whole trace file: events plus the "otherData" string map (metadata such
/// as dt, dropped-event count, campaign fingerprint).
struct ChromeTrace {
  std::vector<ChromeEvent> events;
  std::vector<std::pair<std::string, std::string>> other_data;
};

/// Convert drained recorder events into Chrome events. Spans/counters/
/// instants get their taxonomy names; per-channel counters (divergence,
/// threshold) are suffixed ".throttle"/".brake"/".steer"; ts = tick*dt*1e6.
std::vector<ChromeEvent> to_chrome_events(const std::vector<TraceEvent>& evs,
                                          double dt, int pid);

/// Render a ChromeTrace as Chrome trace-event JSON ({"traceEvents": [...]}).
std::string chrome_trace_json(const ChromeTrace& trace);

/// Parse JSON produced by chrome_trace_json (tolerant general JSON parser;
/// unknown keys are ignored). Throws std::runtime_error on malformed input.
ChromeTrace parse_chrome_trace(const std::string& json);

/// Create `dir` (and parents) if needed. Throws std::runtime_error on
/// failure.
void ensure_dir(const std::string& dir);

/// Atomically write `text` to `path` (temp file + rename).
/// Throws std::runtime_error with path + strerror on failure.
void write_text_file(const std::string& path, const std::string& text);

/// Tick-indexed CSV of the detection/recovery story: one row per tick that
/// produced counter or instant events, columns
///   tick,time_sec,div_throttle,div_brake,div_steer,
///   thr_throttle,thr_brake,thr_steer,alarm,recovery_state
/// Counter values carry forward between samples; alarm latches at a
/// detector_alarm instant and clears on recovery restart/rejoin.
std::string run_csv(const std::vector<ChromeEvent>& events);

/// Drain `rec` and publish "<dir>/run_<label>.trace.json" (creating dir if
/// needed); `davtrace csv` derives the run's CSV from it. Extra metadata rows
/// are appended to otherData. Throws on I/O failure.
void export_run_trace(const TraceOptions& opts, const std::string& label,
                      double dt, const TraceRecorder& rec,
                      const std::vector<std::pair<std::string, std::string>>&
                          metadata = {});

}  // namespace dav::obs
