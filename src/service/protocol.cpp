#include "service/protocol.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace pdn3d::service {

namespace obsjson = pdn3d::obs::json;

namespace {

core::Status bad(std::string message) {
  return core::Status::invalid_argument(std::move(message));
}

/// Guarded double->int64 conversion: JSON numbers arrive as doubles, and a
/// huge or non-finite value (1e999 parses to +inf) must be rejected before
/// the cast -- casting an out-of-range double to an integer is undefined
/// behaviour.
bool to_int64(double v, std::int64_t* out) {
  if (!std::isfinite(v) || v != std::floor(v) || v < -9.2e18 || v > 9.2e18) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

/// Strict UTF-8 scan (rejects overlong encodings, surrogates, > U+10FFFF).
/// Garbage bytes on the wire must become a typed bad_request, not reach the
/// evaluation layer or get echoed raw into a response.
bool valid_utf8(std::string_view text) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const auto b0 = static_cast<unsigned char>(text[i]);
    std::size_t len = 0;
    std::uint32_t cp = 0;
    if (b0 < 0x80) {
      ++i;
      continue;
    } else if ((b0 & 0xe0) == 0xc0) {
      len = 2;
      cp = b0 & 0x1fU;
    } else if ((b0 & 0xf0) == 0xe0) {
      len = 3;
      cp = b0 & 0x0fU;
    } else if ((b0 & 0xf8) == 0xf0) {
      len = 4;
      cp = b0 & 0x07U;
    } else {
      return false;
    }
    if (i + len > n) return false;
    for (std::size_t k = 1; k < len; ++k) {
      const auto bk = static_cast<unsigned char>(text[i + k]);
      if ((bk & 0xc0) != 0x80) return false;
      cp = (cp << 6) | (bk & 0x3fU);
    }
    if ((len == 2 && cp < 0x80) || (len == 3 && cp < 0x800) || (len == 4 && cp < 0x10000)) {
      return false;  // overlong encoding
    }
    if (cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff)) return false;
    i += len;
  }
  return true;
}

/// Fetch an optional member, enforcing its JSON type when present.
const obsjson::Value* member(const obsjson::Value& object, std::string_view key,
                             obsjson::Value::Kind kind, core::Status* status,
                             const char* type_name) {
  const obsjson::Value* v = object.find(key);
  if (v == nullptr) return nullptr;
  if (v->kind() != kind) {
    *status = bad("field '" + std::string(key) + "' must be a " + type_name);
    return nullptr;
  }
  return v;
}

core::Status decode_design(const obsjson::Value& design, api::DesignOptions* out) {
  // Every member routes through the one shared api::set_option table -- the
  // same keyspace, range checks, and error messages the CLI flag parser
  // uses, so the two surfaces cannot drift apart (docs/API.md).
  for (const auto& [key, value] : design.members()) {
    core::Status st;
    if (value.is_bool()) {
      st = api::set_option(out, key, value.as_bool());
    } else if (value.is_number()) {
      st = api::set_option(out, key, value.as_number());
    } else if (value.is_string()) {
      st = api::set_option(out, key, std::string_view(value.as_string()));
    } else {
      return bad("design." + key + " must be a number, string, or boolean");
    }
    if (!st.is_ok()) return st;
  }
  return core::Status::ok();
}

void escape_into(std::string_view text, std::string* out) {
  out->append(obsjson::escape(text));
}

/// Client-supplied request_ids are restricted to a shell/log-safe charset so
/// they can be embedded in log lines, trace attributes, and grep patterns
/// without quoting surprises.
bool valid_request_id(std::string_view id) {
  if (id.empty() || id.size() > kMaxRequestIdBytes) return false;
  for (char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_' || c == '.' || c == ':' || c == '/';
    if (!ok) return false;
  }
  return true;
}

/// The control ops without fields of their own, answered inline by the
/// service.
constexpr std::pair<std::string_view, Request::Kind> kInlineOps[] = {
    {"ping", Request::Kind::kPing},
    {"health", Request::Kind::kHealth},
    {"stats", Request::Kind::kStats},
    {"metrics", Request::Kind::kMetrics},
};

}  // namespace

const char* to_string(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kNone: return "none";
    case ErrorKind::kBadRequest: return "bad_request";
    case ErrorKind::kQueueFull: return "queue_full";
    case ErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorKind::kCancelled: return "cancelled";
    case ErrorKind::kShutdown: return "shutdown";
    case ErrorKind::kNotFound: return "not_found";
    case ErrorKind::kEvaluationFailed: return "evaluation_failed";
    case ErrorKind::kOverloaded: return "overloaded";
    case ErrorKind::kTimeout: return "timeout";
    case ErrorKind::kRequestTooLarge: return "request_too_large";
    case ErrorKind::kInternal: return "internal";
  }
  return "?";
}

core::Status parse_request(std::string_view line, Request* out) {
  if (line.size() > kMaxRequestBytes) {
    // Callers normally answer this with kRequestTooLarge before parsing; the
    // check here is defense in depth for direct parse_request users.
    return bad("request line exceeds " + std::to_string(kMaxRequestBytes) + " bytes");
  }
  if (line.find('\0') != std::string_view::npos) {
    return bad("request contains a NUL byte");
  }
  if (!valid_utf8(line)) return bad("request is not valid UTF-8");

  obsjson::Value doc;
  try {
    doc = obsjson::parse(line);
  } catch (const std::exception& e) {
    return bad(std::string("malformed JSON: ") + e.what());
  }
  if (!doc.is_object()) return bad("request must be a JSON object");

  core::Status status;
  if (const auto* id = member(doc, "id", obsjson::Value::Kind::kNumber, &status, "number")) {
    if (!to_int64(id->as_number(), &out->id)) return bad("id must be a finite integer");
  }
  if (!status.is_ok()) return status;

  if (const auto* rid =
          member(doc, "request_id", obsjson::Value::Kind::kString, &status, "string")) {
    if (!valid_request_id(rid->as_string())) {
      return bad("request_id must be 1.." + std::to_string(kMaxRequestIdBytes) +
                 " characters of [A-Za-z0-9._:/-]");
    }
    out->request_id = rid->as_string();
  }
  if (!status.is_ok()) return status;

  const auto* op = member(doc, "op", obsjson::Value::Kind::kString, &status, "string");
  if (!status.is_ok()) return status;
  if (op == nullptr) return bad("missing required field 'op'");

  if (op->as_string() == "cancel") {
    out->kind = Request::Kind::kCancel;
    const auto* target =
        member(doc, "target", obsjson::Value::Kind::kNumber, &status, "number");
    if (!status.is_ok()) return status;
    if (target == nullptr) return bad("cancel requires a numeric 'target' id");
    if (!to_int64(target->as_number(), &out->cancel_target)) {
      return bad("target must be a finite integer");
    }
    return core::Status::ok();
  }
  for (const auto& [name, kind] : kInlineOps) {
    if (op->as_string() == name) {
      out->kind = kind;
      return core::Status::ok();
    }
  }

  out->kind = Request::Kind::kEvaluate;
  {
    const core::Status st = api::parse_operation(op->as_string(), &out->eval.op);
    if (!st.is_ok()) return st;
  }

  const auto* bench =
      member(doc, "benchmark", obsjson::Value::Kind::kString, &status, "string");
  if (!status.is_ok()) return status;
  if (bench == nullptr) return bad("missing required field 'benchmark'");
  {
    const core::Status st = api::parse_benchmark(bench->as_string(), &out->eval.benchmark);
    if (!st.is_ok()) return st;
  }

  if (const auto* design =
          member(doc, "design", obsjson::Value::Kind::kObject, &status, "object")) {
    const core::Status st = decode_design(*design, &out->eval.design);
    if (!st.is_ok()) return st;
  }
  if (!status.is_ok()) return status;

  if (const auto* state = member(doc, "state", obsjson::Value::Kind::kString, &status,
                                 "string")) {
    out->eval.state = state->as_string();
  }
  if (const auto* activity =
          member(doc, "activity", obsjson::Value::Kind::kNumber, &status, "number")) {
    out->eval.activity = activity->as_number();
  }
  if (const auto* samples =
          member(doc, "samples", obsjson::Value::Kind::kNumber, &status, "number")) {
    std::int64_t v = 0;
    if (!to_int64(samples->as_number(), &v)) return bad("samples must be a finite integer");
    out->eval.samples = v;
  }
  if (const auto* alpha =
          member(doc, "alpha", obsjson::Value::Kind::kNumber, &status, "number")) {
    out->eval.alpha = alpha->as_number();
  }
  if (const auto* deadline =
          member(doc, "deadline_ms", obsjson::Value::Kind::kNumber, &status, "number")) {
    const core::Status st = api::check_range("deadline_ms", deadline->as_number(), 0.0, 1e9);
    if (!st.is_ok()) return st;
    out->deadline_ms = deadline->as_number();
  }
  if (const auto* sleep =
          member(doc, "test_sleep_ms", obsjson::Value::Kind::kNumber, &status, "number")) {
    out->test_sleep_ms = sleep->as_number();
  }
  if (const auto* cache =
          member(doc, "cache", obsjson::Value::Kind::kString, &status, "string")) {
    const std::string_view mode = cache->as_string();
    if (mode == "use") {
      out->cache = Request::CacheMode::kUse;
    } else if (mode == "bypass") {
      out->cache = Request::CacheMode::kBypass;
    } else if (mode == "refresh") {
      out->cache = Request::CacheMode::kRefresh;
    } else {
      return bad("cache must be one of use | bypass | refresh");
    }
  }
  if (!status.is_ok()) return status;

  return out->eval.validate();
}

std::string ok_response(const Request& request, const api::EvaluateResult& result,
                        double queue_ms, double run_ms, std::string_view cache_token) {
  // Hand-rolled compact JSON: responses are hot-path (one per request) and
  // the shape is fixed, so we skip the Value tree. Numbers use the document
  // model's formatting via Value::dump for doubles.
  std::string line = "{\"id\":" + std::to_string(request.id);
  line += ",\"ok\":";
  line += result.ok() ? "true" : "false";
  line += ",\"op\":\"";
  line += api::to_string(request.eval.op);
  line += "\",\"benchmark\":\"";
  line += api::benchmark_token(request.eval.benchmark);
  line += "\",\"exit_code\":" + std::to_string(result.exit_code);
  if (!result.ok()) {
    line += ",\"error\":{\"kind\":\"";
    line += to_string(ErrorKind::kEvaluationFailed);
    line += "\",\"message\":\"";
    escape_into(result.status.message(), &line);
    line += "\"}";
  }
  line += ",\"headline_mv\":" + obsjson::Value(result.headline_mv).dump();
  line += ",\"queue_ms\":" + obsjson::Value(queue_ms).dump();
  line += ",\"run_ms\":" + obsjson::Value(run_ms).dump();
  if (!cache_token.empty()) {
    line += ",\"cache\":\"";
    line += cache_token;
    line += "\"";
  }
  line += ",\"output\":\"";
  escape_into(result.output, &line);
  line += "\"}";
  append_request_id(&line, request.request_id);
  return line;
}

std::string error_response(std::int64_t id, ErrorKind kind, std::string_view message,
                           std::string_view request_id) {
  std::string line = "{\"id\":" + std::to_string(id);
  line += ",\"ok\":false,\"error\":{\"kind\":\"";
  line += to_string(kind);
  line += "\",\"message\":\"";
  escape_into(message, &line);
  line += "\"}}";
  append_request_id(&line, request_id);
  return line;
}

std::string ping_response(std::int64_t id, std::string_view request_id) {
  std::string line = "{\"id\":" + std::to_string(id) + ",\"ok\":true,\"op\":\"ping\"}";
  append_request_id(&line, request_id);
  return line;
}

void append_request_id(std::string* line, std::string_view request_id) {
  if (request_id.empty()) return;
  // Responses are single-line JSON objects ending in '}'; splice the echo in
  // as the final key so substring-matching consumers (smoke greps, docs
  // examples) keep seeing the historical prefix.
  line->pop_back();
  line->append(",\"request_id\":\"");
  escape_into(request_id, line);
  line->append("\"}");
}

}  // namespace pdn3d::service
