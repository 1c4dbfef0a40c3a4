#include "server/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>
#include <utility>

namespace rq {
namespace server {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

// Blocking write of exactly `n` bytes; retries short writes and EINTR.
Status WriteAll(int fd, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t wrote = ::send(fd, data + done, n - done, kSendFlags);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("socket write failed: ") +
                           ::strerror(errno));
    }
    if (wrote == 0) {
      return InternalError("socket write returned 0");
    }
    done += static_cast<size_t>(wrote);
  }
  return Status::Ok();
}

// Blocking read of exactly `n` bytes. *eof_at_start distinguishes a clean
// peer close (no bytes at all) from a truncated frame.
Status ReadAll(int fd, char* data, size_t n, bool* eof_at_start) {
  if (eof_at_start != nullptr) *eof_at_start = false;
  size_t done = 0;
  while (done < n) {
    ssize_t got = ::recv(fd, data + done, n - done, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return InternalError(std::string("socket read failed: ") +
                           ::strerror(errno));
    }
    if (got == 0) {
      if (done == 0 && eof_at_start != nullptr) {
        *eof_at_start = true;
        return Status::Ok();
      }
      return InternalError("connection closed mid-frame");
    }
    done += static_cast<size_t>(got);
  }
  return Status::Ok();
}

// Pulls an optional non-negative integer field out of a request object.
Status ReadNonNegativeInt(const obs::JsonValue& object, const char* key,
                          int64_t* out) {
  const obs::JsonValue* field = object.Find(key);
  if (field == nullptr || field->is_null()) return Status::Ok();
  if (field->kind() != obs::JsonValue::Kind::kNumber) {
    return InvalidArgumentError(std::string("field '") + key +
                                "' must be a number");
  }
  double value = field->number_value();
  if (value < 0) {
    return InvalidArgumentError(std::string("field '") + key +
                                "' must be non-negative");
  }
  *out = static_cast<int64_t>(value);
  return Status::Ok();
}

// Pulls an optional string field out of a request object.
Status ReadString(const obs::JsonValue& object, const char* key,
                  std::string* out) {
  const obs::JsonValue* field = object.Find(key);
  if (field == nullptr || field->is_null()) return Status::Ok();
  if (field->kind() != obs::JsonValue::Kind::kString) {
    return InvalidArgumentError(std::string("field '") + key +
                                "' must be a string");
  }
  *out = field->string_value();
  return Status::Ok();
}

// Strict decode of one element of an update batch's "ops" array.
Result<UpdateOp> ParseUpdateOp(const obs::JsonValue& value, size_t index) {
  auto at = [&](const std::string& what) {
    return what + " (ops[" + std::to_string(index) + "])";
  };
  if (!value.is_object()) {
    return InvalidArgumentError(at("each op must be a JSON object"));
  }
  UpdateOp op;
  std::string kind;
  RQ_RETURN_IF_ERROR(ReadString(value, "op", &kind));
  if (kind == "add_node") {
    op.kind = UpdateOp::Kind::kAddNode;
    RQ_RETURN_IF_ERROR(ReadString(value, "name", &op.name));
    return op;
  }
  if (kind == "add_edge") {
    op.kind = UpdateOp::Kind::kAddEdge;
    RQ_RETURN_IF_ERROR(ReadString(value, "src", &op.src));
    RQ_RETURN_IF_ERROR(ReadString(value, "label", &op.label));
    RQ_RETURN_IF_ERROR(ReadString(value, "dst", &op.dst));
    if (op.src.empty() || op.label.empty() || op.dst.empty()) {
      return InvalidArgumentError(
          at("add_edge needs non-empty 'src', 'label', and 'dst'"));
    }
    return op;
  }
  return InvalidArgumentError(at("op must be 'add_node' or 'add_edge', got '" +
                                 kind + "'"));
}

}  // namespace

Status WriteRaw(int fd, std::string_view bytes) {
  return WriteAll(fd, bytes.data(), bytes.size());
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > 0xFFFFFFFFu) {
    return InvalidArgumentError("frame payload exceeds 4 GiB length prefix");
  }
  uint32_t n = static_cast<uint32_t>(payload.size());
  char header[4] = {static_cast<char>((n >> 24) & 0xFF),
                    static_cast<char>((n >> 16) & 0xFF),
                    static_cast<char>((n >> 8) & 0xFF),
                    static_cast<char>(n & 0xFF)};
  RQ_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

Status ReadFrame(int fd, std::string* payload, bool* clean_eof,
                 size_t max_frame_bytes) {
  // Payload bytes are read in bounded chunks, so a header alone never
  // allocates the whole frame; a buffer an earlier frame grew past one
  // chunk is given back before this frame is read.
  constexpr size_t kReadChunkBytes = 64u << 10;
  if (payload->capacity() > kReadChunkBytes) {
    std::string().swap(*payload);
  } else {
    payload->clear();
  }
  *clean_eof = false;
  char header[4];
  bool eof = false;
  RQ_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &eof));
  if (eof) {
    *clean_eof = true;
    return Status::Ok();
  }
  uint32_t n = (static_cast<uint32_t>(static_cast<unsigned char>(header[0]))
                << 24) |
               (static_cast<uint32_t>(static_cast<unsigned char>(header[1]))
                << 16) |
               (static_cast<uint32_t>(static_cast<unsigned char>(header[2]))
                << 8) |
               static_cast<uint32_t>(static_cast<unsigned char>(header[3]));
  if (n > max_frame_bytes) {
    return InvalidArgumentError("frame of " + std::to_string(n) +
                                " bytes exceeds the " +
                                std::to_string(max_frame_bytes) +
                                "-byte frame limit");
  }
  while (payload->size() < n) {
    size_t offset = payload->size();
    size_t chunk = std::min<size_t>(kReadChunkBytes, n - offset);
    payload->resize(offset + chunk);
    RQ_RETURN_IF_ERROR(ReadAll(fd, payload->data() + offset, chunk, nullptr));
  }
  return Status::Ok();
}

const char* RequestTypeName(RequestType type) {
  switch (type) {
    case RequestType::kContainment:
      return "containment";
    case RequestType::kEquivalence:
      return "equivalence";
    case RequestType::kEval:
      return "eval";
    case RequestType::kUpdate:
      return "update";
    case RequestType::kStats:
      return "stats";
    case RequestType::kHealth:
      return "health";
    case RequestType::kSleep:
      return "sleep";
  }
  return "unknown";
}

Result<Request> ParseRequest(std::string_view text) {
  RQ_ASSIGN_OR_RETURN(obs::JsonValue doc, obs::JsonValue::Parse(text));
  if (!doc.is_object()) {
    return InvalidArgumentError("request must be a JSON object");
  }
  Request request;
  const obs::JsonValue* type = doc.Find("type");
  if (type == nullptr || type->kind() != obs::JsonValue::Kind::kString) {
    return InvalidArgumentError("request needs a string 'type' field");
  }
  const std::string& name = type->string_value();
  if (name == "containment") {
    request.type = RequestType::kContainment;
  } else if (name == "equivalence") {
    request.type = RequestType::kEquivalence;
  } else if (name == "eval") {
    request.type = RequestType::kEval;
  } else if (name == "update") {
    request.type = RequestType::kUpdate;
  } else if (name == "stats") {
    request.type = RequestType::kStats;
  } else if (name == "health") {
    request.type = RequestType::kHealth;
  } else if (name == "sleep") {
    request.type = RequestType::kSleep;
  } else {
    return InvalidArgumentError("unknown request type '" + name + "'");
  }
  if (const obs::JsonValue* id = doc.Find("id"); id != nullptr) {
    request.id = *id;
  }
  RQ_RETURN_IF_ERROR(ReadString(doc, "class", &request.cls));
  RQ_RETURN_IF_ERROR(ReadString(doc, "q1", &request.q1));
  RQ_RETURN_IF_ERROR(ReadString(doc, "q2", &request.q2));
  RQ_RETURN_IF_ERROR(ReadString(doc, "query", &request.query));
  RQ_RETURN_IF_ERROR(ReadString(doc, "graph", &request.graph));
  if (const obs::JsonValue* ops = doc.Find("ops");
      ops != nullptr && !ops->is_null()) {
    if (!ops->is_array()) {
      return InvalidArgumentError("field 'ops' must be an array");
    }
    request.ops.reserve(ops->items().size());
    for (size_t i = 0; i < ops->items().size(); ++i) {
      RQ_ASSIGN_OR_RETURN(UpdateOp op, ParseUpdateOp(ops->items()[i], i));
      request.ops.push_back(std::move(op));
    }
  }
  if (request.type == RequestType::kUpdate && request.ops.empty()) {
    return InvalidArgumentError(
        "update requests need a non-empty 'ops' array");
  }
  RQ_RETURN_IF_ERROR(ReadNonNegativeInt(doc, "timeout_ms",
                                        &request.timeout_ms));
  RQ_RETURN_IF_ERROR(ReadNonNegativeInt(doc, "memory_budget_mb",
                                        &request.memory_budget_mb));
  RQ_RETURN_IF_ERROR(ReadNonNegativeInt(doc, "max_tuples",
                                        &request.max_tuples));
  RQ_RETURN_IF_ERROR(ReadNonNegativeInt(doc, "sleep_ms", &request.sleep_ms));
  return request;
}

const char* ErrorCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
      return "invalid_request";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
    case StatusCode::kInternal:
      return "internal";
  }
  return "internal";
}

obs::JsonValue OkResponse(const obs::JsonValue& id) {
  obs::JsonValue response = obs::JsonValue::Object();
  response.Set("id", id);
  response.Set("ok", obs::JsonValue::Bool(true));
  return response;
}

obs::JsonValue ErrorResponse(const obs::JsonValue& id, std::string_view code,
                             std::string_view message) {
  obs::JsonValue response = obs::JsonValue::Object();
  response.Set("id", id);
  response.Set("ok", obs::JsonValue::Bool(false));
  response.Set("error", obs::JsonValue::String(std::string(code)));
  response.Set("message", obs::JsonValue::String(std::string(message)));
  return response;
}

}  // namespace server
}  // namespace rq
