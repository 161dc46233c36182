#ifndef ESHARP_SERVING_INTROSPECT_H_
#define ESHARP_SERVING_INTROSPECT_H_

/// \file Glue between the serving engine and the obs/debugz endpoint
/// family. src/obs stays serving-agnostic (it exposes callback seams);
/// this header is where those seams are filled in with engine signals:
/// readiness from HealthView, the /tracez in-flight table from the live
/// request records, /queryz from the engine's slow-query log, and the
/// default SLO objectives a query service should watch.

#include <string>
#include <vector>

#include "obs/debugz.h"
#include "obs/slo.h"
#include "serving/engine.h"

namespace esharp::serving {

/// \brief Thresholds behind DefaultServingObjectives. Defaults follow the
/// paper's online budget: Expansion + Detection must answer interactively
/// (§5 targets < 1 s end to end), so p99 above one second burns budget.
struct ServingSloThresholds {
  double p99_latency_seconds = 1.0;  ///< kValue target for "latency_p99".
  double error_rate = 0.01;          ///< kRatio target for "error_rate".
  double shed_rate = 0.05;           ///< kRatio target for "shed_rate".
};

/// \brief Readiness probe over one engine's HealthView: fails until a
/// snapshot is published, and — when `max_snapshot_age_seconds` > 0 —
/// when the current generation is older than that bound (a weekly-refresh
/// service whose snapshot stops turning over is degraded even though every
/// request still succeeds). The engine must outlive the probe.
obs::Probe EngineReadiness(const ServingEngine* engine,
                           double max_snapshot_age_seconds = 0);

/// \brief The standard objectives for one serving engine, ready to hand to
/// SloWatchdog::AddObjective:
///   latency_p99  kValue — windowed p99 vs. thresholds.p99_latency_seconds
///   error_rate   kRatio — (errors + timeouts) / completed requests
///   shed_rate    kRatio — shed / offered (completed + shed)
/// The engine must outlive the watchdog the objectives are added to.
std::vector<obs::SloObjective> DefaultServingObjectives(
    const ServingEngine* engine, ServingSloThresholds thresholds = {});

/// \brief Wiring of MountServingEndpoints.
struct ServingIntrospectionOptions {
  std::string build_info;            ///< /statusz header line.
  obs::Tracer* tracer = nullptr;     ///< /tracez?format=json source.
  obs::SloWatchdog* watchdog = nullptr;  ///< /readyz + /statusz SLO table.
  /// Readiness staleness bound for EngineReadiness (0 = unbounded).
  double max_snapshot_age_seconds = 0;
  /// /graphz source (null disables). Must outlive the server.
  obs::TimeSeriesStore* timeseries = nullptr;
  /// /incidentz source (null disables). Must outlive the server.
  obs::FlightRecorder* recorder = nullptr;
};

/// \brief Mounts the full statusz family on `server`, wired to `engine`:
/// readiness from EngineReadiness (plus the watchdog when given), the
/// /tracez in-flight table from the engine's live request records, /queryz
/// over the engine's slow-query log, and a /statusz overview block
/// (snapshot generation and age, qps, latency percentiles, cache hit rate,
/// admission fill). The engine (and watchdog/tracer, when set) must
/// outlive the server.
void MountServingEndpoints(obs::DebugServer* server, ServingEngine* engine,
                           ServingIntrospectionOptions options = {});

}  // namespace esharp::serving

#endif  // ESHARP_SERVING_INTROSPECT_H_
