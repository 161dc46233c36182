#ifndef ESHARP_CLUSTER_TRANSPORT_HTTP_H_
#define ESHARP_CLUSTER_TRANSPORT_HTTP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/shard.h"
#include "common/result.h"
#include "obs/debugz.h"
#include "serving/engine.h"

namespace esharp::cluster {

/// \brief Mounts the shard-side wire endpoints on a debugz server, so a
/// shard process reuses the HTTP stack it already runs for /statusz:
///   /shard/evidence?q=<query>[&deadline_ms=<d>][&trace=<traceparent>]
///                                                 the collection RPC
///   /shard/health                                 version + readiness line
/// A 200 evidence answer is one EncodeShardEvidence frame. The trace
/// parameter is a TraceContext header; the shard serves under it (shard
/// spans carry the router's trace id) and echoes it in the frame. A
/// malformed header degrades to a fresh root, never an error. Status
/// mapping: 400 InvalidArgument, 503 Unavailable/FailedPrecondition
/// (shedding, no snapshot), 504 DeadlineExceeded, 500 anything else; error
/// bodies carry the shard's Status::ToString(), so the router sees the
/// true cause. The engine must outlive the server.
void MountShardEndpoint(obs::DebugServer* server,
                        serving::ServingEngine* engine);

/// \brief Binary wire frame of one ShardEvidence. Layout (host byte
/// order, little-endian on every supported target):
///
///   header   magic u32 ("SHEV") | version u32 | payload_bytes u64 |
///            simd::Checksum64(payload) u64
///   payload  snapshot_version u64 | terms u64 | shard_ms f64 |
///            trace_hi u64 | trace_lo u64 | span_id u64 | sampled u64 |
///            queue_ms f64 | expand_ms f64 | detect_ms f64 |
///            candidates u64 | the candidates in the snapshot EVIDENCE
///            columns (serving::AppendEvidenceColumns)
///
/// Fields are raw fixed-width copies, so decode(encode(x)) is exact — the
/// bit-identical rank guarantee survives the wire. Decoding reads through
/// the snapshot's bounds-checked ByteReader and accepts only a frame this
/// encoder could have written: a wrong magic, length or checksum, a count
/// that overruns the payload, trailing bytes, an unknown flag bit and any
/// other version (FailedPrecondition) fail with a Status. An evidence
/// without a trace travels as zero ids and decodes to an invalid trace.
std::string EncodeShardEvidence(const ShardEvidence& evidence);
Result<ShardEvidence> DecodeShardEvidence(const std::string& body);

/// \brief Percent-encodes a query parameter value.
std::string UrlEncode(const std::string& value);

/// \brief HTTP transport: the shard is another process serving
/// MountShardEndpoint. Collect() is one blocking keep-alive GET with a
/// socket timeout derived from the attempt deadline, so a dead host
/// resolves as a failed attempt instead of hanging the gather.
///
/// Connections are reused from a stack of at most 8 idle ones (concurrent
/// attempts beyond it open and then close their own). A connection goes
/// back only after a complete, well-framed response the shard agreed to
/// keep alive; any failure closes it, so a late reply can never reach
/// another attempt. A reused connection that the shard had closed (reset
/// or EOF before the first response byte) is retried once on a fresh
/// connection, which is safe because the GET is idempotent. An attempt
/// with a valid trace fails unless the frame echoes exactly that trace.
class HttpShardTransport final : public ShardTransport {
 public:
  struct Options {
    /// Socket timeout when the attempt carries no deadline.
    double default_timeout_seconds = 5.0;
    /// Slack added on top of a deadline-derived timeout, so the shard's
    /// own deadline answer (504) wins over a raw socket cut.
    double timeout_slack_seconds = 0.5;
  };

  HttpShardTransport(std::string name, std::string host, int port)
      : HttpShardTransport(std::move(name), std::move(host), port,
                           Options()) {}
  HttpShardTransport(std::string name, std::string host, int port,
                     Options options);

  const std::string& name() const override { return name_; }
  Result<ShardEvidence> Collect(const ShardRequest& request) override;

  /// Last snapshot version a successful Collect reported — no RPC, so a
  /// remote publish is only noticed (and the router cache invalidated)
  /// at the next successful contact.
  uint64_t VersionHint() const override {
    return last_version_.load(std::memory_order_acquire);
  }

 private:
  /// One GET on a pooled or fresh connection, with the retry rule above.
  Result<obs::HttpResponseData> Get(const std::string& path,
                                    double timeout_seconds);

  std::string name_;
  std::string host_;
  int port_;
  Options options_;
  std::atomic<uint64_t> last_version_{0};
  std::mutex idle_mu_;
  /// Guarded by idle_mu_; the most recently used connection is last.
  std::vector<std::unique_ptr<obs::HttpClientConnection>> idle_;
};

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_TRANSPORT_HTTP_H_
