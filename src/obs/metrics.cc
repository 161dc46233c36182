#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

#include "common/file_io.h"
#include "common/strings.h"

namespace esharp::obs {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names
/// ("serving.completed") map dots and dashes to underscores.
std::string SanitizeMetricName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// `{k1="v1",k2="v2"}`, empty string for no labels; extras appended inside
/// the braces (the quantile label of histogram samples).
std::string PromLabels(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += SanitizeMetricName(k) + "=\"" + EscapeLabelValue(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
  }
  out += "}";
  return out;
}

/// Doubles rendered with enough digits to round-trip typical values; JSON
/// has no infinity/nan, clamp those to 0 (they never occur in practice).
std::string JsonNumber(double v) {
  if (!(v == v) || v > 1e308 || v < -1e308) return "0";
  std::string s = StrFormat("%.12g", v);
  return s;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

template <typename T>
T* MetricsRegistry::GetOrCreate(std::map<std::string, Entry<T>>& family,
                                const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key = name + PromLabels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = family.find(key);
  if (it == family.end()) {
    Entry<T> entry;
    entry.name = name;
    entry.labels = std::move(labels);
    entry.instrument = std::make_unique<T>();
    it = family.emplace(std::move(key), std::move(entry)).first;
  }
  return it->second.instrument.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return GetOrCreate(counters_, name, labels);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return GetOrCreate(gauges_, name, labels);
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels) {
  return GetOrCreate(histograms_, name, labels);
}

std::string MetricsRegistry::ExportPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Wall-clock stamp as a comment line, so two saved scrapes are
  // orderable offline without relying on file mtimes.
  std::string out = StrFormat("# captured_unix_ms %lld\n",
                              static_cast<long long>(WallUnixMillis()));
  std::string last_type_line;
  auto type_line = [&](const std::string& name, const char* type) {
    std::string line = "# TYPE " + SanitizeMetricName(name) + " " + type + "\n";
    // Families are map-ordered, so equal names are adjacent; emit the TYPE
    // header once per family.
    if (line != last_type_line) {
      out += line;
      last_type_line = line;
    }
  };
  for (const auto& [key, e] : counters_) {
    type_line(e.name, "counter");
    out += SanitizeMetricName(e.name) + PromLabels(e.labels) + " " +
           StrFormat("%llu", static_cast<unsigned long long>(
                                 e.instrument->Value())) +
           "\n";
  }
  for (const auto& [key, e] : gauges_) {
    type_line(e.name, "gauge");
    out += SanitizeMetricName(e.name) + PromLabels(e.labels) + " " +
           StrFormat("%.12g", e.instrument->Value()) + "\n";
  }
  for (const auto& [key, e] : histograms_) {
    type_line(e.name, "summary");
    HistogramSnapshot s = e.instrument->Snapshot();
    std::string base = SanitizeMetricName(e.name);
    out += base + PromLabels(e.labels, "quantile=\"0.5\"") + " " +
           StrFormat("%.12g", s.p50) + "\n";
    out += base + PromLabels(e.labels, "quantile=\"0.95\"") + " " +
           StrFormat("%.12g", s.p95) + "\n";
    out += base + PromLabels(e.labels, "quantile=\"0.99\"") + " " +
           StrFormat("%.12g", s.p99) + "\n";
    out += base + "_count" + PromLabels(e.labels) + " " +
           StrFormat("%llu", static_cast<unsigned long long>(s.count)) + "\n";
    out += base + "_sum" + PromLabels(e.labels) + " " +
           StrFormat("%.12g", s.mean * static_cast<double>(s.count)) + "\n";
    out += base + "_max" + PromLabels(e.labels) + " " +
           StrFormat("%.12g", s.max) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Top-level stamp (no "name" on its line, so bench_diff's line scanner
  // skips it) ordering two offline dumps of the same process.
  std::string out = StrFormat("{\n  \"captured_unix_ms\": %lld,\n  \"counters\": [",
                              static_cast<long long>(WallUnixMillis()));
  bool first = true;
  for (const auto& [key, e] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + JsonEscape(e.name) +
           "\",\"labels\":" + JsonLabels(e.labels) + ",\"value\":" +
           StrFormat("%llu",
                     static_cast<unsigned long long>(e.instrument->Value())) +
           "}";
  }
  out += "\n  ],\n  \"gauges\": [";
  first = true;
  for (const auto& [key, e] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\":\"" + JsonEscape(e.name) +
           "\",\"labels\":" + JsonLabels(e.labels) +
           ",\"value\":" + JsonNumber(e.instrument->Value()) + "}";
  }
  out += "\n  ],\n  \"histograms\": [";
  first = true;
  for (const auto& [key, e] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    HistogramSnapshot s = e.instrument->Snapshot();
    out += "    {\"name\":\"" + JsonEscape(e.name) +
           "\",\"labels\":" + JsonLabels(e.labels) +
           ",\"count\":" + StrFormat("%llu", static_cast<unsigned long long>(
                                                 s.count)) +
           ",\"mean\":" + JsonNumber(s.mean) + ",\"max\":" + JsonNumber(s.max) +
           ",\"p50\":" + JsonNumber(s.p50) + ",\"p95\":" + JsonNumber(s.p95) +
           ",\"p99\":" + JsonNumber(s.p99);
    // Exemplar keys ("le"/"at"/"trace") deliberately avoid the summary
    // field names above: bench_diff parses these lines with per-key
    // scans, and a nested "value" or "p99" would corrupt its metric map.
    std::vector<Exemplar> exemplars = e.instrument->Exemplars();
    if (!exemplars.empty()) {
      out += ",\"exemplars\":[";
      for (size_t i = 0; i < exemplars.size(); ++i) {
        if (i > 0) out += ",";
        out += "{\"le\":" + JsonNumber(exemplars[i].le_seconds) +
               ",\"at\":" + JsonNumber(exemplars[i].value_seconds) +
               ",\"trace\":\"" + JsonEscape(exemplars[i].label) + "\"}";
      }
      out += "]";
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ExportJson());
}

RegistrySample MetricsRegistry::SampleAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  RegistrySample sample;
  sample.counters.reserve(counters_.size());
  for (const auto& [key, e] : counters_) {
    sample.counters.push_back({key, e.name, e.instrument->Value()});
  }
  sample.gauges.reserve(gauges_.size());
  for (const auto& [key, e] : gauges_) {
    sample.gauges.push_back({key, e.name, e.instrument->Value()});
  }
  sample.histograms.reserve(histograms_.size());
  for (const auto& [key, e] : histograms_) {
    sample.histograms.push_back({key, e.name, e.instrument->Snapshot()});
  }
  return sample;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, e] : counters_) e.instrument->Reset();
  for (auto& [key, e] : gauges_) e.instrument->Reset();
  for (auto& [key, e] : histograms_) e.instrument->Reset();
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::string DumpAll() { return MetricsRegistry::Global().ExportPrometheus(); }

int64_t WallUnixMillis() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double NowSeconds() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

}  // namespace esharp::obs
