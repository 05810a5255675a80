#include "obs/event_log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <mutex>

#include "util/string_util.hpp"

namespace pdn3d::obs {

namespace {

std::mutex g_sink_mutex;

std::string_view level_tag(util::LogLevel level) {
  switch (level) {
    case util::LogLevel::kDebug: return "DEBUG";
    case util::LogLevel::kInfo: return "INFO ";
    case util::LogLevel::kWarn: return "WARN ";
    case util::LogLevel::kError: return "ERROR";
    case util::LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

std::string_view level_name(util::LogLevel level) {
  switch (level) {
    case util::LogLevel::kDebug: return "debug";
    case util::LogLevel::kInfo: return "info";
    case util::LogLevel::kWarn: return "warn";
    case util::LogLevel::kError: return "error";
    case util::LogLevel::kOff: return "off";
  }
  return "unknown";
}

LogFormat initial_format() {
  if (const char* env = std::getenv("PDN3D_LOG_FORMAT")) {
    LogFormat parsed = LogFormat::kText;
    if (parse_log_format(env, &parsed)) return parsed;
    std::cerr << "[pdn3d WARN ] ignoring unrecognized PDN3D_LOG_FORMAT='" << env << "'\n";
  }
  return LogFormat::kText;
}

std::atomic<LogFormat>& format_storage() {
  static std::atomic<LogFormat> format{initial_format()};
  return format;
}

// A string value renders bare in text mode when it is unambiguous on a
// key=value line: non-empty, no whitespace, '=', or quotes.
bool shell_safe(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '=' || c == '"' || c == '\'') {
      return false;
    }
  }
  return true;
}

}  // namespace

bool parse_log_format(std::string_view text, LogFormat* out) {
  const std::string t = util::to_lower(util::trim(text));
  if (t == "text") *out = LogFormat::kText;
  else if (t == "json" || t == "ndjson") *out = LogFormat::kNdjson;
  else return false;
  return true;
}

LogFormat log_format() { return format_storage().load(std::memory_order_relaxed); }

void set_log_format(LogFormat format) {
  format_storage().store(format, std::memory_order_relaxed);
}

std::string event_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const auto secs = std::chrono::time_point_cast<std::chrono::seconds>(now);
  const auto millis =
      std::chrono::duration_cast<std::chrono::milliseconds>(now - secs).count();
  const std::time_t t = std::chrono::system_clock::to_time_t(secs);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[96];  // room for seven ints of any value: never truncated
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(millis));
  return buf;
}

std::string render_event_text(util::LogLevel level, std::string_view event,
                              const std::vector<EventField>& fields) {
  std::string out = "[pdn3d ";
  out += level_tag(level);
  out += "] ";
  out += event;
  for (const auto& [key, value] : fields) {
    out += ' ';
    out += key;
    out += '=';
    if (value.is_string() && shell_safe(value.as_string())) {
      out += value.as_string();
    } else {
      out += value.dump();
    }
  }
  return out;
}

std::string render_event_ndjson(util::LogLevel level, std::string_view event,
                                const std::vector<EventField>& fields,
                                std::string_view timestamp) {
  json::Value obj = json::Value::object();
  obj.set("ts", timestamp);
  obj.set("level", level_name(level));
  obj.set("event", event);
  // Reserved keys win over a same-named field (set() overwrites, so skip).
  for (const auto& [key, value] : fields) {
    if (key == "ts" || key == "level" || key == "event") continue;
    obj.set(key, value);
  }
  return obj.dump();
}

void log_event(util::LogLevel level, std::string_view event,
               const std::vector<EventField>& fields) {
  if (level < util::log_level()) return;
  std::string line;
  if (log_format() == LogFormat::kNdjson) {
    line = render_event_ndjson(level, event, fields, event_timestamp());
  } else {
    line = render_event_text(level, event, fields);
  }
  std::lock_guard lock(g_sink_mutex);
  std::cerr << line << '\n';
}

void log_event(util::LogLevel level, std::string_view event,
               std::initializer_list<EventField> fields) {
  log_event(level, event, std::vector<EventField>(fields));
}

}  // namespace pdn3d::obs
