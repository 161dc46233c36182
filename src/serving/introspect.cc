#include "serving/introspect.h"

#include <utility>

#include "common/strings.h"
#include "obs/profile.h"

namespace esharp::serving {

obs::Probe EngineReadiness(const ServingEngine* engine,
                           double max_snapshot_age_seconds) {
  return [engine, max_snapshot_age_seconds]() {
    HealthView health = engine->Health();
    obs::ProbeResult result;
    if (!health.ready) {
      result.ok = false;
      result.detail = health.detail;
      return result;
    }
    if (max_snapshot_age_seconds > 0 &&
        health.snapshot_age_seconds > max_snapshot_age_seconds) {
      result.ok = false;
      result.detail = StrFormat(
          "snapshot v%llu is %.0fs old (bound %.0fs)",
          static_cast<unsigned long long>(health.snapshot_version),
          health.snapshot_age_seconds, max_snapshot_age_seconds);
      return result;
    }
    result.detail = StrFormat(
        "snapshot v%llu, age %.1fs",
        static_cast<unsigned long long>(health.snapshot_version),
        health.snapshot_age_seconds);
    return result;
  };
}

std::vector<obs::SloObjective> DefaultServingObjectives(
    const ServingEngine* engine, ServingSloThresholds thresholds) {
  std::vector<obs::SloObjective> objectives;

  obs::SloObjective p99;
  p99.name = "latency_p99";
  p99.kind = obs::SloObjective::Kind::kValue;
  p99.value = [engine]() {
    return engine->metrics().Report().p99_ms / 1000.0;  // seconds
  };
  p99.target = thresholds.p99_latency_seconds;
  objectives.push_back(std::move(p99));

  obs::SloObjective errors;
  errors.name = "error_rate";
  errors.kind = obs::SloObjective::Kind::kRatio;
  errors.bad = [engine]() {
    MetricsReport report = engine->metrics().Report();
    // A deadline blown is a failed answer from the client's side; count it
    // against the same budget as detector errors.
    return static_cast<double>(report.errors + report.timeouts);
  };
  errors.total = [engine]() {
    return static_cast<double>(engine->metrics().Report().completed);
  };
  errors.target = thresholds.error_rate;
  objectives.push_back(std::move(errors));

  obs::SloObjective shed;
  shed.name = "shed_rate";
  shed.kind = obs::SloObjective::Kind::kRatio;
  shed.bad = [engine]() {
    return static_cast<double>(engine->metrics().Report().shed);
  };
  shed.total = [engine]() {
    // Offered load: everything that reached admission, served or not.
    MetricsReport report = engine->metrics().Report();
    return static_cast<double>(report.completed + report.shed);
  };
  shed.target = thresholds.shed_rate;
  objectives.push_back(std::move(shed));

  return objectives;
}

void MountServingEndpoints(obs::DebugServer* server, ServingEngine* engine,
                           ServingIntrospectionOptions options) {
  obs::StatuszOptions statusz;
  statusz.build_info = std::move(options.build_info);
  statusz.tracer = options.tracer;
  statusz.watchdog = options.watchdog;
  statusz.timeseries = options.timeseries;
  statusz.recorder = options.recorder;
  statusz.readiness.emplace_back(
      "serving", EngineReadiness(engine, options.max_snapshot_age_seconds));
  statusz.overview = [engine]() {
    HealthView health = engine->Health();
    MetricsReport report = engine->metrics().Report();
    std::string out;
    out += StrFormat(
        "snapshot: v%llu (age %.1fs)\n",
        static_cast<unsigned long long>(health.snapshot_version),
        health.snapshot_age_seconds);
    out += StrFormat(
        "requests: %llu completed, %llu shed, %.1f qps (window)\n",
        static_cast<unsigned long long>(report.completed),
        static_cast<unsigned long long>(report.shed), report.window_qps);
    out += StrFormat("latency:  p50 %.2fms  p95 %.2fms  p99 %.2fms\n",
                     report.p50_ms, report.p95_ms, report.p99_ms);
    out += StrFormat("cache:    %.1f%% hit rate\n",
                     report.cache_hit_rate * 100.0);
    out += StrFormat("admission: %zu / %zu in flight (%.0f%% full)\n",
                     health.in_flight, health.max_in_flight,
                     health.queue_fill * 100.0);
    return out;
  };
  statusz.active_requests = [engine]() {
    std::vector<obs::ActiveEntry> entries;
    for (ActiveRequestInfo& info : engine->ActiveRequests()) {
      obs::ActiveEntry entry;
      entry.id = info.id;
      entry.name = std::move(info.query);
      entry.stage = std::move(info.stage);
      entry.elapsed_ms = info.elapsed_ms;
      entries.push_back(std::move(entry));
    }
    return entries;
  };
  obs::MountStatusz(server, std::move(statusz));
  obs::MountQueryz(server, &engine->slow_queries());
}

}  // namespace esharp::serving
