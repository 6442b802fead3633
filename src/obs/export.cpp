#include "obs/export.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace dav::obs {

namespace {

const char* kChannelSuffixes[3] = {".throttle", ".brake", ".steer"};

// The writers below fill a caller-sized buffer and return its new end.

char* put(char* p, std::string_view text) {
  std::memcpy(p, text.data(), text.size());
  return p + text.size();
}

char* put_int(char* p, long long v) {
  return std::to_chars(p, p + 24, v).ptr;
}

/// Writes v as printf's "%.17g" would render it (round-trip exact), in at
/// most 24 bytes; JSON has no NaN/Inf, so non-finite values (which the
/// instrumentation never produces) degrade to 0.
char* put_num(char* p, double v) {
  if (!std::isfinite(v)) {
    *p = '0';
    return p + 1;
  }
  // Nonzero whole numbers below 2^53 (timestamps are whole microseconds of
  // simulated time) print as their integer digits under "%.17g".
  const double mag = std::abs(v);
  if (mag >= 1.0 && mag < 9007199254740992.0 && v == std::trunc(v)) {
    return put_int(p, static_cast<long long>(v));
  }
  return std::to_chars(p, p + 24, v, std::chars_format::general, 17).ptr;
}

/// Writes s JSON-escaped, in at most 6 * s.size() bytes.
char* put_escaped(char* p, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': p = put(p, "\\\""); break;
      case '\\': p = put(p, "\\\\"); break;
      case '\n': p = put(p, "\\n"); break;
      case '\r': p = put(p, "\\r"); break;
      case '\t': p = put(p, "\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          p = put(p, "\\u00");
          *p++ = kHex[(c >> 4) & 0xF];
          *p++ = kHex[c & 0xF];
        } else {
          *p++ = c;
        }
    }
  }
  return p;
}

void append_int(std::string& out, long long v) {
  char buf[24];
  out.append(buf, static_cast<std::size_t>(put_int(buf, v) - buf));
}

void append_num(std::string& out, double v) {
  char buf[24];
  out.append(buf, static_cast<std::size_t>(put_num(buf, v) - buf));
}

std::string fmt(double v) {
  std::string s;
  append_num(s, v);
  return s;
}

/// One trace event's JSON fields. `name` is written followed by `suffix`;
/// both and `cat` must outlive the value.
struct EventFields {
  std::string_view name;
  std::string_view suffix;
  std::string_view cat;
  char ph = 'X';
  int pid = 1;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tick = -1;
  double value = 0.0;
  bool has_value = false;
};

/// A recorder event as Chrome names and places it: spans, counters and
/// instants get their taxonomy names, per-channel counters (divergence,
/// threshold) a ".throttle"/".brake"/".steer" suffix, ts = tick * tick_us.
EventFields fields_of(const TraceEvent& ev, double tick_us, int pid) {
  EventFields f;
  f.pid = pid;
  f.ts_us = static_cast<double>(ev.tick) * tick_us;
  f.tick = static_cast<int>(ev.tick);
  switch (ev.kind) {
    case EventKind::kSpan:
      f.ph = 'X';
      f.cat = "stage";
      f.name = to_string(static_cast<Stage>(ev.id));
      f.tid = ev.track < 0 ? 0 : ev.track;
      f.dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
      break;
    case EventKind::kCounter: {
      f.ph = 'C';
      f.cat = "counter";
      const auto c = static_cast<Counter>(ev.id);
      f.name = to_string(c);
      // Per-channel counters become separate named counter tracks.
      if ((c == Counter::kDivergence || c == Counter::kThreshold) &&
          ev.track >= 0 && ev.track < 3) {
        f.suffix = kChannelSuffixes[ev.track];
      }
      f.value = ev.value;
      f.has_value = true;
      break;
    }
    case EventKind::kInstant:
      f.ph = 'i';
      f.cat = "mark";
      f.name = to_string(static_cast<Instant>(ev.id));
      f.tid = ev.track < 0 ? 0 : ev.track;
      f.value = ev.value;
      f.has_value = true;
      break;
  }
  return f;
}

/// Appends one event object, preceded by a newline.
void append_event(std::string& out, const EventFields& e) {
  const std::size_t at = out.size();
  // 80 bytes of keys and punctuation, three ints and three numbers.
  out.resize(at + 256 + 6 * (e.name.size() + e.suffix.size() + e.cat.size()));
  char* p = out.data() + at;
  p = put(p, "\n{\"name\":\"");
  p = put_escaped(p, e.name);
  p = put_escaped(p, e.suffix);
  p = put(p, "\",\"cat\":\"");
  p = put_escaped(p, e.cat);
  p = put(p, "\",\"ph\":\"");
  *p++ = e.ph;
  p = put(p, "\",\"pid\":");
  p = put_int(p, e.pid);
  p = put(p, ",\"tid\":");
  p = put_int(p, e.tid);
  p = put(p, ",\"ts\":");
  p = put_num(p, e.ts_us);
  if (e.ph == 'X') {
    p = put(p, ",\"dur\":");
    p = put_num(p, e.dur_us);
  }
  if (e.ph == 'i') p = put(p, ",\"s\":\"g\"");
  p = put(p, ",\"args\":{");
  if (e.tick >= 0) {
    p = put(p, "\"tick\":");
    p = put_int(p, e.tick);
    if (e.has_value) *p++ = ',';
  }
  if (e.has_value) {
    p = put(p, "\"value\":");
    p = put_num(p, e.value);
  }
  p = put(p, "}}");
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Appends a trace's opening, through its otherData map, up to the first
/// event.
void append_head(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& other) {
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < other.size(); ++i) {
    const auto& [key, value] = other[i];
    const std::size_t at = out.size();
    out.resize(at + 6 + 6 * (key.size() + value.size()));
    char* p = out.data() + at;
    if (i > 0) *p++ = ',';
    *p++ = '"';
    p = put_escaped(p, key);
    p = put(p, "\":\"");
    p = put_escaped(p, value);
    *p++ = '"';
    out.resize(static_cast<std::size_t>(p - out.data()));
  }
  out += "},\"traceEvents\":[";
}

constexpr std::string_view kTail = "\n]}\n";

// ---- minimal JSON parser (for our own emitted traces) ----------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(const std::string& key) const {
    for (const auto& kv : obj) {
      if (kv.first == key) return &kv.second;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("trace JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      literal("null");
      return JsonValue{};
    }
    return number();
  }

  void literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) fail("bad literal");
    pos_ += n;
  }

  JsonValue boolean() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    if (peek() == 't') {
      literal("true");
      v.b = true;
    } else {
      literal("false");
    }
    return v;
  }

  JsonValue number() {
    const char* start = s_.data() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) fail("bad number");
    pos_ += static_cast<std::size_t>(end - start);
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.num = d;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      c = s_[pos_++];
      switch (c) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // We only ever emit control characters this way; encode as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace_back(std::move(key), value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

double num_or(const JsonValue* v, double fallback) {
  return (v != nullptr && v->type == JsonValue::Type::kNumber) ? v->num
                                                               : fallback;
}

std::string str_or(const JsonValue* v, const std::string& fallback) {
  return (v != nullptr && v->type == JsonValue::Type::kString) ? v->str
                                                               : fallback;
}

}  // namespace

std::vector<ChromeEvent> to_chrome_events(const std::vector<TraceEvent>& evs,
                                          double dt, int pid) {
  std::vector<ChromeEvent> out;
  out.reserve(evs.size());
  const double tick_us = dt * 1e6;
  for (const TraceEvent& ev : evs) {
    const EventFields f = fields_of(ev, tick_us, pid);
    ChromeEvent ce;
    ce.name.reserve(f.name.size() + f.suffix.size());
    ce.name.append(f.name).append(f.suffix);
    ce.cat = f.cat;
    ce.ph = f.ph;
    ce.ts_us = f.ts_us;
    ce.dur_us = f.dur_us;
    ce.pid = f.pid;
    ce.tid = f.tid;
    ce.tick = f.tick;
    ce.value = f.value;
    ce.has_value = f.has_value;
    out.push_back(std::move(ce));
  }
  return out;
}

std::string chrome_trace_json(const ChromeTrace& trace) {
  std::string out;
  out.reserve(trace.events.size() * 128 + 256);
  append_head(out, trace.other_data);
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const ChromeEvent& e = trace.events[i];
    if (i > 0) out += ',';
    append_event(out, {e.name, {}, e.cat, e.ph, e.pid, e.tid, e.ts_us,
                       e.dur_us, e.tick, e.value, e.has_value});
  }
  out += kTail;
  return out;
}

ChromeTrace parse_chrome_trace(const std::string& json) {
  const JsonValue root = JsonParser(json).parse();
  if (root.type != JsonValue::Type::kObject) {
    throw std::runtime_error("trace JSON: top level is not an object");
  }
  ChromeTrace trace;
  if (const JsonValue* other = root.find("otherData")) {
    for (const auto& kv : other->obj) {
      trace.other_data.emplace_back(
          kv.first, kv.second.type == JsonValue::Type::kString
                        ? kv.second.str
                        : fmt(kv.second.num));
    }
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    throw std::runtime_error("trace JSON: missing traceEvents array");
  }
  for (const JsonValue& ev : events->arr) {
    if (ev.type != JsonValue::Type::kObject) continue;
    ChromeEvent ce;
    ce.name = str_or(ev.find("name"), "");
    ce.cat = str_or(ev.find("cat"), "");
    const std::string ph = str_or(ev.find("ph"), "X");
    ce.ph = ph.empty() ? 'X' : ph[0];
    ce.pid = static_cast<int>(num_or(ev.find("pid"), 1));
    ce.tid = static_cast<int>(num_or(ev.find("tid"), 0));
    ce.ts_us = num_or(ev.find("ts"), 0.0);
    ce.dur_us = num_or(ev.find("dur"), 0.0);
    if (const JsonValue* args = ev.find("args")) {
      ce.tick = static_cast<int>(num_or(args->find("tick"), -1.0));
      if (const JsonValue* value = args->find("value")) {
        ce.value = num_or(value, 0.0);
        ce.has_value = true;
      }
    }
    trace.events.push_back(std::move(ce));
  }
  return trace;
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("obs: cannot create trace dir " + dir + ": " +
                             ec.message());
  }
}

void write_text_file(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("obs: cannot open " + tmp + ": " +
                               std::strerror(errno));
    }
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("obs: write failed for " + tmp + ": " +
                               std::strerror(errno));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("obs: rename " + tmp + " -> " + path +
                             " failed: " + ec.message());
  }
}

std::string run_csv(const std::vector<ChromeEvent>& events) {
  // Column order matches the header below; counters carry forward, alarm
  // latches at detector_alarm and clears when recovery restarts or rejoins
  // (the points where the online detector is reset).
  static constexpr std::string_view kCounterCols[6] = {
      "divergence.throttle", "divergence.brake", "divergence.steer",
      "threshold.throttle",  "threshold.brake",  "threshold.steer"};
  double current[6] = {};
  int alarm = 0;
  double recovery_state = 0.0;

  std::string out;
  out += "tick,time_sec,div_throttle,div_brake,div_steer,"
         "thr_throttle,thr_brake,thr_steer,alarm,recovery_state\n";

  int row_tick = -1;
  double row_time = 0.0;
  bool have_row = false;
  const auto flush_row = [&]() {
    if (!have_row) return;
    append_int(out, row_tick);
    out += ',';
    append_num(out, row_time);
    for (const double v : current) {
      out += ',';
      append_num(out, v);
    }
    out += ',';
    append_int(out, alarm);
    out += ',';
    append_num(out, recovery_state);
    out += '\n';
    have_row = false;
  };

  for (const ChromeEvent& e : events) {
    if (e.ph != 'C' && e.ph != 'i') continue;
    if (e.tick != row_tick) {
      flush_row();
      row_tick = e.tick;
      row_time = e.ts_us / 1e6;
    }
    have_row = true;
    if (e.ph == 'C') {
      if (e.name == "recovery_state") {
        recovery_state = e.value;
      } else {
        for (std::size_t k = 0; k < 6; ++k) {
          if (e.name == kCounterCols[k]) current[k] = e.value;
        }
      }
    } else {
      if (e.name == "detector_alarm") alarm = 1;
      if (e.name == "recovery_restart" || e.name == "recovery_rejoin") {
        alarm = 0;
      }
    }
  }
  flush_row();
  return out;
}

void export_run_trace(
    const TraceOptions& opts, const std::string& label, double dt,
    const TraceRecorder& rec,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  ensure_dir(opts.dir);
  std::vector<std::pair<std::string, std::string>> other = {
      {"tool", "dav-flight-recorder"},
      {"dt_sec", fmt(dt)},
      {"dropped_events", std::to_string(rec.dropped())}};
  other.insert(other.end(), metadata.begin(), metadata.end());
  // chrome_trace_json of to_chrome_events' output, written straight from
  // the recorder's events without building a ChromeEvent for each.
  const std::vector<TraceEvent> events = rec.drain();
  std::string out;
  out.reserve(events.size() * 128 + 256);
  append_head(out, other);
  const double tick_us = dt * 1e6;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) out += ',';
    append_event(out, fields_of(events[i], tick_us, opts.pid));
  }
  out += kTail;
  // A re-run of the same config writes the same name. Renaming over the
  // earlier file makes ext4 start writing the new one out first
  // (auto_da_alloc): about 0.95 ms for a golden run's 634 KB trace, against
  // 0.3 ms under a fresh name. Removing it first costs what a fresh name
  // does; a crash can then leave no trace rather than the earlier one, which
  // held the same config's run and a re-run rebuilds.
  const std::string path = opts.dir + "/run_" + label + ".trace.json";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  write_text_file(path, out);
}

}  // namespace dav::obs
