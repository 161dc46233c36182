#ifndef ESHARP_CLUSTER_SHARD_H_
#define ESHARP_CLUSTER_SHARD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "expert/detector.h"
#include "serving/engine.h"

namespace esharp::cluster {

/// \brief One scatter leg's request: the raw query plus the deadline the
/// router carved out of the client's budget for this shard attempt.
struct ShardRequest {
  std::string query;
  /// Milliseconds this attempt may spend, queue wait included; <= 0 means
  /// no deadline.
  double deadline_ms = 0;
  /// Distributed trace context of this attempt: the router's query trace
  /// id plus a per-attempt child span id. Crosses the wire as a header
  /// line so shard-side spans carry the router's trace id.
  obs::TraceContext trace{};
};

/// \brief One shard's answer: its partition's merged candidate evidence
/// (sorted-unique by user) with the shard's timing breakdown and the trace
/// it served under. Counts are partition-local; the router sums them across
/// shards before ranking once. The engine's own answer type, so the
/// in-process and the HTTP transport hand it on without a copy.
using ShardEvidence = serving::EvidenceResponse;

/// \brief Transport seam between the router and one shard engine. Two
/// implementations: InProcessShard below (shards as objects in the router's
/// process) and HttpShardTransport (shards as separate processes behind
/// their debugz server; see cluster/transport_http.h). The router treats
/// both identically, so correctness tests run in-process and the same
/// router binary fronts remote shards unchanged.
///
/// Collect() must be thread-safe and must return (never hang): the router's
/// hedging and degraded modes rely on every attempt eventually resolving.
class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  /// Stable display name ("shard-3", "10.0.0.7:8080").
  virtual const std::string& name() const = 0;

  /// One collection attempt against this shard.
  virtual Result<ShardEvidence> Collect(const ShardRequest& request) = 0;

  /// Last known snapshot version of the shard, without an RPC — folded
  /// into the router's cluster-wide cache-validation version, so it must
  /// be cheap (an atomic load) and only as fresh as the last contact.
  virtual uint64_t VersionHint() const = 0;
};

/// \brief In-process transport: the shard is a ServingEngine in the same
/// process. The engine must outlive the transport.
class InProcessShard final : public ShardTransport {
 public:
  InProcessShard(std::string name, serving::ServingEngine* engine)
      : name_(std::move(name)), engine_(engine) {}

  const std::string& name() const override { return name_; }

  Result<ShardEvidence> Collect(const ShardRequest& request) override {
    serving::QueryRequest query;
    query.query = request.query;
    query.deadline_ms = request.deadline_ms;
    query.trace = request.trace;
    return engine_->QueryEvidence(std::move(query));
  }

  uint64_t VersionHint() const override {
    return engine_->snapshot_version();
  }

  serving::ServingEngine* engine() const { return engine_; }

 private:
  std::string name_;
  serving::ServingEngine* engine_;
};

}  // namespace esharp::cluster

#endif  // ESHARP_CLUSTER_SHARD_H_
