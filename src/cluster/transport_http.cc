#include "cluster/transport_http.h"

#include <cstdlib>
#include <utility>

#include "common/byte_io.h"
#include "common/simd.h"
#include "common/strings.h"
#include "serving/snapshot_file.h"

namespace esharp::cluster {

namespace {

constexpr uint32_t kFrameMagic = 0x56454853;  // "SHEV" in file byte order
constexpr uint32_t kFrameVersion = 1;
constexpr size_t kFrameHeaderBytes = 24;
/// Payload bytes before the candidate columns.
constexpr size_t kFrameFixedBytes = 11 * 8;
constexpr char kFrameContext[] = "shard evidence frame";

/// Idle connections an HttpShardTransport keeps per shard.
constexpr size_t kMaxIdleConnections = 8;

int StatusToHttp(const Status& status) {
  if (status.IsInvalidArgument()) return 400;
  if (status.IsUnavailable() || status.IsFailedPrecondition()) return 503;
  if (status.IsDeadlineExceeded()) return 504;
  return 500;
}

Status HttpToStatus(int http_status, const std::string& body) {
  // The body is the shard's Status::ToString() ("<Code name>: <message>"),
  // so the real failure cause — "no snapshot published yet", the shard's
  // own deadline detail — survives the wire into the router's health
  // tracker and /statusz instead of flattening to a bare HTTP code.
  switch (http_status) {
    case 400:
      return Status::InvalidArgument("shard rejected request: ", body);
    case 503:
      // 503 covers two shard states; tell them apart by the code name the
      // shard serialized, so "not ready yet" is not misread as "down".
      if (body.rfind("Failed precondition", 0) == 0) {
        return Status::FailedPrecondition("shard not ready: ", body);
      }
      return Status::Unavailable("shard unavailable: ", body);
    case 504:
      return Status::DeadlineExceeded("shard deadline: ", body);
    default:
      return Status::Internal("shard returned HTTP ", http_status, ": ",
                              body);
  }
}

}  // namespace

std::string EncodeShardEvidence(const ShardEvidence& evidence) {
  std::string out;
  out.reserve(kFrameHeaderBytes + kFrameFixedBytes +
              evidence.evidence.size() * serving::kEvidenceColumnBytes);
  out.resize(kFrameHeaderBytes);  // filled in once the payload is known
  AppendU64(&out, evidence.snapshot_version);
  AppendU64(&out, evidence.terms);
  AppendF64(&out, evidence.shard_ms);
  AppendU64(&out, evidence.trace.trace_hi);
  AppendU64(&out, evidence.trace.trace_lo);
  AppendU64(&out, evidence.trace.span_id);
  AppendU64(&out, evidence.trace.sampled ? 1 : 0);
  AppendF64(&out, evidence.queue_ms);
  AppendF64(&out, evidence.expand_ms);
  AppendF64(&out, evidence.detect_ms);
  AppendU64(&out, evidence.evidence.size());
  serving::AppendEvidenceColumns(&out, {&evidence.evidence});

  const uint64_t payload_bytes = out.size() - kFrameHeaderBytes;
  std::string header;
  AppendU32(&header, kFrameMagic);
  AppendU32(&header, kFrameVersion);
  AppendU64(&header, payload_bytes);
  AppendU64(&header, simd::Checksum64(out.data() + kFrameHeaderBytes,
                                      payload_bytes));
  out.replace(0, kFrameHeaderBytes, header);
  return out;
}

Result<ShardEvidence> DecodeShardEvidence(const std::string& body) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(body.data());
  ByteReader header(bytes, body.size(), kFrameContext);
  uint32_t magic = 0, version = 0;
  uint64_t payload_bytes = 0, checksum = 0;
  ESHARP_RETURN_NOT_OK(header.ReadU32(&magic));
  if (magic != kFrameMagic) {
    return Status::IOError(kFrameContext, ": bad magic");
  }
  ESHARP_RETURN_NOT_OK(header.ReadU32(&version));
  if (version != kFrameVersion) {
    return Status::FailedPrecondition(kFrameContext, ": version ", version,
                                      " (this build reads version ",
                                      kFrameVersion, ")");
  }
  ESHARP_RETURN_NOT_OK(header.ReadU64(&payload_bytes));
  ESHARP_RETURN_NOT_OK(header.ReadU64(&checksum));
  if (payload_bytes != header.remaining()) {
    return Status::IOError(kFrameContext, ": header announces ",
                           payload_bytes, " payload bytes, ",
                           header.remaining(), " arrived");
  }
  const uint8_t* payload = bytes + kFrameHeaderBytes;
  if (simd::Checksum64(payload, payload_bytes) != checksum) {
    return Status::IOError(kFrameContext, ": checksum mismatch");
  }

  ByteReader r(payload, payload_bytes, kFrameContext);
  ShardEvidence evidence;
  uint64_t terms = 0, sampled = 0, candidates = 0;
  ESHARP_RETURN_NOT_OK(r.ReadU64(&evidence.snapshot_version));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&terms));
  ESHARP_RETURN_NOT_OK(r.ReadF64(&evidence.shard_ms));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&evidence.trace.trace_hi));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&evidence.trace.trace_lo));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&evidence.trace.span_id));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&sampled));
  if (sampled > 1) {
    return Status::IOError(kFrameContext, ": sampled flag ", sampled);
  }
  ESHARP_RETURN_NOT_OK(r.ReadF64(&evidence.queue_ms));
  ESHARP_RETURN_NOT_OK(r.ReadF64(&evidence.expand_ms));
  ESHARP_RETURN_NOT_OK(r.ReadF64(&evidence.detect_ms));
  ESHARP_RETURN_NOT_OK(r.ReadU64(&candidates));
  ESHARP_RETURN_NOT_OK(
      serving::ReadEvidenceColumns(&r, candidates, &evidence.evidence));
  if (r.remaining() != 0) {
    return Status::IOError(kFrameContext, ": ", r.remaining(),
                           " trailing bytes");
  }
  evidence.terms = static_cast<size_t>(terms);
  evidence.trace.sampled = sampled == 1;
  return evidence;
}

std::string UrlEncode(const std::string& value) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(value.size());
  for (unsigned char c : value) {
    bool unreserved = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (unreserved) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

void MountShardEndpoint(obs::DebugServer* server,
                        serving::ServingEngine* engine) {
  server->Handle("/shard/evidence", [engine](const obs::HttpRequest& request) {
    obs::HttpResponse response;
    serving::QueryRequest query;
    query.query = request.Param("q");
    std::string deadline = request.Param("deadline_ms");
    query.deadline_ms =
        deadline.empty() ? 0 : std::strtod(deadline.c_str(), nullptr);
    // Lenient by design: a missing, truncated or corrupt trace header
    // yields a fresh root on the engine side, never a rejected request or
    // a poisoned id.
    std::string trace_header = request.Param("trace");
    if (!trace_header.empty()) {
      query.trace = obs::TraceContext::FromHeaderOrRoot(trace_header);
    }
    Result<ShardEvidence> result = engine->QueryEvidence(std::move(query));
    if (!result.ok()) {
      response.status = StatusToHttp(result.status());
      response.body = result.status().ToString();
      return response;
    }
    response.content_type = "application/octet-stream";
    response.body = EncodeShardEvidence(*result);
    return response;
  });
  server->Handle("/shard/health", [engine](const obs::HttpRequest&) {
    obs::HttpResponse response;
    serving::HealthView health = engine->Health();
    response.status = health.ready ? 200 : 503;
    response.body = StrFormat(
        "ready=%d version=%llu in_flight=%llu\n", health.ready ? 1 : 0,
        static_cast<unsigned long long>(health.snapshot_version),
        static_cast<unsigned long long>(health.in_flight));
    return response;
  });
}

HttpShardTransport::HttpShardTransport(std::string name, std::string host,
                                       int port, Options options)
    : name_(std::move(name)),
      host_(std::move(host)),
      port_(port),
      options_(options) {}

Result<ShardEvidence> HttpShardTransport::Collect(
    const ShardRequest& request) {
  std::string path = "/shard/evidence?q=" + UrlEncode(request.query);
  double timeout = options_.default_timeout_seconds;
  if (request.deadline_ms > 0) {
    path += StrFormat("&deadline_ms=%.3f", request.deadline_ms);
    timeout = request.deadline_ms / 1e3 + options_.timeout_slack_seconds;
  }
  if (request.trace.valid()) {
    // ToHeader() is pure unreserved characters — no encoding needed.
    path += "&trace=" + request.trace.ToHeader();
  }
  Result<obs::HttpResponseData> http = Get(path, timeout);
  if (!http.ok()) {
    // Connection refused / socket timeout: the shard process is gone or
    // unreachably slow — either way, this attempt failed.
    return Status::Unavailable("shard ", name_, " unreachable: ",
                               http.status().ToString());
  }
  const obs::HttpResponseData& data = http.ValueOrDie();
  if (data.status != 200) return HttpToStatus(data.status, data.body);
  Result<ShardEvidence> decoded = DecodeShardEvidence(data.body);
  if (!decoded.ok()) return decoded.status();
  if (request.trace.valid() && decoded->trace != request.trace) {
    return Status::Internal("shard ", name_, " answered under trace ",
                            decoded->trace.ToHeader(), ", not this attempt's ",
                            request.trace.ToHeader());
  }
  last_version_.store(decoded->snapshot_version, std::memory_order_release);
  return decoded;
}

Result<obs::HttpResponseData> HttpShardTransport::Get(
    const std::string& path, double timeout_seconds) {
  std::unique_ptr<obs::HttpClientConnection> connection;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    if (!idle_.empty()) {
      connection = std::move(idle_.back());
      idle_.pop_back();
    }
  }
  bool reused = connection != nullptr;
  for (;;) {
    if (connection == nullptr) {
      ESHARP_ASSIGN_OR_RETURN(
          connection,
          obs::HttpClientConnection::Connect(host_, port_, timeout_seconds));
    } else {
      connection->SetTimeout(timeout_seconds);
    }
    bool closed_by_peer = false;
    Result<obs::HttpResponseData> response =
        connection->Get(path, /*keep_alive=*/true, &closed_by_peer);
    if (response.ok()) {
      if (response->keep_alive) {
        std::lock_guard<std::mutex> lock(idle_mu_);
        if (idle_.size() < kMaxIdleConnections) {
          idle_.push_back(std::move(connection));
        }
      }
      return response;
    }
    if (!reused || !closed_by_peer) return response.status();
    // The shard closed this pooled connection while it sat idle (restart,
    // idle timeout): one retry on a fresh connection.
    connection.reset();
    reused = false;
  }
}

}  // namespace esharp::cluster
