// Compares two BENCH_*.json snapshots (the MetricsRegistry::ExportJson
// schema: counters/gauges/histograms arrays of {"name","labels",...}) and
// reports per-metric deltas, failing when a directional metric regresses
// beyond the threshold — the mechanical check that a perf PR's committed
// baseline actually moved the right way, and that later PRs do not quietly
// give the win back.
//
// Direction is inferred from the metric name:
//   higher-better: *qps*, *speedup*, *hit_rate*
//   lower-better:  *_ms, *_seconds, *seconds*, p50/p95/p99
//   anything else: informational (printed, never failing)
//
// *overhead_pct* is informational by design: it is a difference of two
// noisy ratios (a percent of a percent after the division here), so its
// relative delta is meaningless — the absolute budget is enforced by the
// emitting bench itself.
//
// Two metric classes get a widened effective threshold:
//   - p50/p95/p99 values come out of the obs histogram, whose log-spaced
//     buckets are ~16% apart — a one-bucket move is the smallest delta
//     the histogram can represent, so the threshold is floored at just
//     above one bucket step (deltas below that are quantization).
//   - speedup/*_ratio metrics are quotients of two independently noisy
//     measurements (variance roughly doubles), so they get 2x the
//     threshold.
//
// Usage: bench_diff BASE.json NEW.json [MORE.json...] [--threshold_pct=N]
//   (default threshold 10)
//
// When several NEW files are given they are treated as repeated runs of
// the same bench and merged per metric before diffing: lower-better
// metrics keep their minimum across runs, higher-better their maximum,
// informational ones the first run's value. Best-of-N is the standard
// way to gate wall-clock numbers on machines with bursty background
// load — a burst slows one whole run, but each metric only needs one
// unperturbed sample to show its true value.
//
// Metric objects are read whatever their line layout (one per line or
// pretty-printed).
//
// Exit status: 0 when no directional metric regressed by more than the
// threshold, 1 otherwise (also 1 on parse/read errors, and when a file
// holds no metrics, which would make the comparison vacuous).

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

enum class Direction { kHigherBetter, kLowerBetter, kInformational };

Direction DirectionOf(const std::string& name) {
  auto has = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  if (has("qps") || has("speedup") || has("hit_rate")) {
    return Direction::kHigherBetter;
  }
  if (has("overhead_pct")) return Direction::kInformational;
  if (has("_ms") || has("seconds") || has(".p50") || has(".p95") ||
      has(".p99")) {
    return Direction::kLowerBetter;
  }
  return Direction::kInformational;
}

/// Extracts the string value of `"key":"..."` from one metric object.
/// Escapes are passed through verbatim — metric names and label values in
/// this schema are plain identifiers.
bool FindStringField(const std::string& object, const char* key,
                     std::string* out) {
  std::string needle = std::string("\"") + key + "\":\"";
  size_t at = object.find(needle);
  if (at == std::string::npos) return false;
  size_t start = at + needle.size();
  size_t end = object.find('"', start);
  if (end == std::string::npos) return false;
  *out = object.substr(start, end - start);
  return true;
}

bool FindNumberField(const std::string& object, const char* key, double* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t at = object.find(needle);
  if (at == std::string::npos) return false;
  const char* p = object.c_str() + at + needle.size();
  char* end = nullptr;
  double v = std::strtod(p, &end);
  if (end == p) return false;
  *out = v;
  return true;
}

/// `"labels":{...}` verbatim (already canonically ordered by the emitter),
/// "{}" when absent.
std::string FindLabels(const std::string& object) {
  size_t at = object.find("\"labels\":");
  if (at == std::string::npos) return "{}";
  size_t open = object.find('{', at);
  size_t close = object.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return "{}";
  return object.substr(open, close - open + 1);
}

/// The JSON text without whitespace outside string literals, so a
/// pretty-printed snapshot reads exactly like a one-object-per-line one.
std::string Minify(std::istream& in) {
  std::string out;
  bool in_string = false, escaped = false;
  for (char c; in.get(c);) {
    if (in_string) {
      in_string = escaped || c != '"';
      escaped = !escaped && c == '\\';
    } else if (c == '"') {
      in_string = true;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      continue;
    }
    out.push_back(c);
  }
  return out;
}

/// The objects of the top-level array `"key":[...]` of minified JSON;
/// false when the array is absent.
bool ArrayObjects(const std::string& json, const char* key,
                  std::vector<std::string>* objects) {
  const std::string needle = std::string("\"") + key + "\":[";
  size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  int depth = 0;
  bool in_string = false, escaped = false;
  size_t start = 0;
  for (size_t i = at + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      in_string = escaped || c != '"';
      escaped = !escaped && c == '\\';
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) objects->push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return true;
}

/// Flat metric map: "name{labels}" (plus ".p50" etc. for histogram
/// sub-values) -> value.
using MetricMap = std::map<std::string, double>;

bool ParseFile(const std::string& path, MetricMap* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path.c_str());
    return false;
  }
  const std::string json = Minify(in);
  std::vector<std::string> objects;
  bool saw_any_array = false;
  for (const char* array : {"counters", "gauges", "histograms"}) {
    saw_any_array |= ArrayObjects(json, array, &objects);
  }
  if (!saw_any_array) {
    std::fprintf(stderr, "bench_diff: %s is not a metrics JSON snapshot\n",
                 path.c_str());
    return false;
  }
  for (const std::string& object : objects) {
    std::string name;
    if (!FindStringField(object, "name", &name)) continue;
    std::string key = name + FindLabels(object);
    double v = 0;
    if (FindNumberField(object, "value", &v)) {
      (*out)[key] = v;
      continue;
    }
    // Histogram entry: explode the summary fields into sub-metrics.
    static const char* kFields[] = {"count", "mean", "max", "p50", "p95", "p99"};
    for (const char* f : kFields) {
      if (FindNumberField(object, f, &v)) (*out)[key + "." + f] = v;
    }
  }
  // An empty comparison passes every gate, so it is an error instead.
  if (out->empty()) {
    std::fprintf(stderr, "bench_diff: %s holds no metrics\n", path.c_str());
    return false;
  }
  return true;
}

/// Widens the gate for metric classes whose run-to-run jitter exceeds a
/// typical threshold even on a quiet machine (header comment has the
/// full rationale).
double EffectiveThreshold(const std::string& name, double threshold_pct) {
  auto has = [&](const char* needle) {
    return name.find(needle) != std::string::npos;
  };
  // Quotients of two independently noisy measurements.
  if (has("speedup") || has("_ratio")) return 2.0 * threshold_pct;
  // Histogram percentiles are quantized to ~15.6% bucket steps (128
  // log-spaced buckets over [1us, 100s]); floor just above one step.
  constexpr double kOneBucketStepPct = 17.0;
  if (has("p50") || has("p95") || has("p99")) {
    return threshold_pct < kOneBucketStepPct ? kOneBucketStepPct
                                             : threshold_pct;
  }
  return threshold_pct;
}

const char* DirectionTag(Direction d) {
  switch (d) {
    case Direction::kHigherBetter: return "higher";
    case Direction::kLowerBetter: return "lower";
    case Direction::kInformational: return "info";
  }
  return "info";
}

}  // namespace

int main(int argc, char** argv) {
  double threshold_pct = 10.0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threshold_pct=", 16) == 0) {
      threshold_pct = std::strtod(argv[i] + 16, nullptr);
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() < 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASE.json NEW.json [MORE.json...] "
                 "[--threshold_pct=N]\n");
    return 1;
  }

  MetricMap base, next;
  if (!ParseFile(files[0], &base) || !ParseFile(files[1], &next)) return 1;
  // Fold any further snapshots in as repeated runs: keep the per-metric
  // best in the metric's own direction (first run wins for
  // informational metrics and breaks ties).
  for (size_t i = 2; i < files.size(); ++i) {
    MetricMap run;
    if (!ParseFile(files[i], &run)) return 1;
    for (const auto& [key, v] : run) {
      auto it = next.find(key);
      if (it == next.end()) {
        next[key] = v;
        continue;
      }
      switch (DirectionOf(key)) {
        case Direction::kLowerBetter:
          if (v < it->second) it->second = v;
          break;
        case Direction::kHigherBetter:
          if (v > it->second) it->second = v;
          break;
        case Direction::kInformational:
          break;
      }
    }
  }

  std::printf("bench_diff: %s -> %s%s (threshold %.1f%%)\n", files[0].c_str(),
              files[1].c_str(),
              files.size() > 2 ? " (+best-of reruns)" : "", threshold_pct);
  std::printf("%-58s %12s %12s %9s %7s\n", "metric", "base", "new", "delta%",
              "dir");

  size_t regressions = 0, improvements = 0, missing = 0;
  for (const auto& [key, base_v] : base) {
    auto it = next.find(key);
    if (it == next.end()) {
      std::printf("%-58s %12.6g %12s %9s %7s\n", key.c_str(), base_v,
                  "(gone)", "-", "info");
      ++missing;
      continue;
    }
    double new_v = it->second;
    double delta_pct =
        base_v != 0 ? 100.0 * (new_v - base_v) / std::fabs(base_v)
                    : (new_v == 0 ? 0 : 100.0);
    Direction dir = DirectionOf(key);
    double gate = EffectiveThreshold(key, threshold_pct);
    bool regressed = false;
    if (dir == Direction::kHigherBetter) regressed = delta_pct < -gate;
    if (dir == Direction::kLowerBetter) regressed = delta_pct > gate;
    bool improved = false;
    if (dir == Direction::kHigherBetter) improved = delta_pct > gate;
    if (dir == Direction::kLowerBetter) improved = delta_pct < -gate;
    if (regressed) ++regressions;
    if (improved) ++improvements;
    std::printf("%-58s %12.6g %12.6g %+8.1f%% %7s%s\n", key.c_str(), base_v,
                new_v, delta_pct, DirectionTag(dir),
                regressed ? "  << REGRESSION" : "");
  }
  for (const auto& [key, new_v] : next) {
    if (base.find(key) == base.end()) {
      std::printf("%-58s %12s %12.6g %9s %7s\n", key.c_str(), "(new)", new_v,
                  "-", "info");
    }
  }

  std::printf("\n%zu regression(s), %zu improvement(s) beyond %.1f%%; "
              "%zu metric(s) missing from the new file\n",
              regressions, improvements, threshold_pct, missing);
  return regressions > 0 ? 1 : 0;
}
