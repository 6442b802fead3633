#include "obs/export.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace dav::obs {

namespace {

const char* kChannelNames[3] = {"throttle", "brake", "steer"};

void append_int(std::string& out, long long v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// Appends v as printf's "%.17g" would render it (round-trip exact); JSON
/// has no NaN/Inf, so non-finite values (which the instrumentation never
/// produces) degrade to 0.
void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += '0';
    return;
  }
  // Nonzero whole numbers below 2^53 (timestamps are whole microseconds of
  // simulated time) print as their integer digits under "%.17g".
  const double mag = std::abs(v);
  if (mag >= 1.0 && mag < 9007199254740992.0 && v == std::trunc(v)) {
    append_int(out, static_cast<long long>(v));
    return;
  }
  char buf[32];
  const auto r =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

std::string fmt(double v) {
  std::string s;
  append_num(s, v);
  return s;
}

void append_escaped(std::string& out, const std::string& s) {
  const auto plain = [](char c) {
    return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
  };
  if (std::all_of(s.begin(), s.end(), plain)) {
    out += s;
    return;
  }
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

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
    ChromeEvent ce;
    ce.pid = pid;
    ce.ts_us = static_cast<double>(ev.tick) * tick_us;
    ce.tick = static_cast<int>(ev.tick);
    switch (ev.kind) {
      case EventKind::kSpan: {
        ce.ph = 'X';
        ce.cat = "stage";
        ce.name = to_string(static_cast<Stage>(ev.id));
        ce.tid = ev.track < 0 ? 0 : ev.track;
        ce.dur_us = static_cast<double>(ev.dur_ns) / 1000.0;
        break;
      }
      case EventKind::kCounter: {
        ce.ph = 'C';
        ce.cat = "counter";
        const auto c = static_cast<Counter>(ev.id);
        ce.name = to_string(c);
        // Per-channel counters become separate named counter tracks.
        if ((c == Counter::kDivergence || c == Counter::kThreshold) &&
            ev.track >= 0 && ev.track < 3) {
          ce.name += std::string(".") + kChannelNames[ev.track];
        }
        ce.value = ev.value;
        ce.has_value = true;
        break;
      }
      case EventKind::kInstant: {
        ce.ph = 'i';
        ce.cat = "mark";
        ce.name = to_string(static_cast<Instant>(ev.id));
        ce.tid = ev.track < 0 ? 0 : ev.track;
        ce.value = ev.value;
        ce.has_value = true;
        break;
      }
    }
    out.push_back(std::move(ce));
  }
  return out;
}

std::string chrome_trace_json(const ChromeTrace& trace) {
  std::string out;
  out.reserve(trace.events.size() * 128 + 256);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  for (std::size_t i = 0; i < trace.other_data.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    append_escaped(out, trace.other_data[i].first);
    out += "\":\"";
    append_escaped(out, trace.other_data[i].second);
    out += '"';
  }
  out += "},\"traceEvents\":[";
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const ChromeEvent& e = trace.events[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"cat\":\"";
    append_escaped(out, e.cat);
    out += "\",\"ph\":\"";
    out.push_back(e.ph);
    out += "\",\"pid\":";
    append_int(out, e.pid);
    out += ",\"tid\":";
    append_int(out, e.tid);
    out += ",\"ts\":";
    append_num(out, e.ts_us);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_num(out, e.dur_us);
    }
    if (e.ph == 'i') out += ",\"s\":\"g\"";
    out += ",\"args\":{";
    bool first = true;
    if (e.tick >= 0) {
      out += "\"tick\":";
      append_int(out, e.tick);
      first = false;
    }
    if (e.has_value) {
      if (!first) out += ',';
      out += "\"value\":";
      append_num(out, e.value);
    }
    out += "}}";
  }
  out += "\n]}\n";
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
  ChromeTrace trace;
  trace.other_data.emplace_back("tool", "dav-flight-recorder");
  trace.other_data.emplace_back("dt_sec", fmt(dt));
  trace.other_data.emplace_back("dropped_events",
                                std::to_string(rec.dropped()));
  for (const auto& kv : metadata) trace.other_data.push_back(kv);
  trace.events = to_chrome_events(rec.drain(), dt, opts.pid);

  write_text_file(opts.dir + "/run_" + label + ".trace.json",
                  chrome_trace_json(trace));
}

}  // namespace dav::obs
