#include "obs/flightrecorder.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "common/file_io.h"
#include "common/strings.h"
#include "obs/obs.h"

namespace esharp::obs {

namespace {

/// "incident-000042-1723111111000.json" -> (42, 1723111111000). False when
/// the name is not a bundle file.
bool ParseBundleName(const std::string& name, uint64_t* sequence,
                     int64_t* wall_ms) {
  unsigned long long seq = 0;
  long long ms = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "incident-%llu-%lld.json%n", &seq, &ms,
                  &consumed) != 2 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *sequence = seq;
  *wall_ms = ms;
  return true;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(std::move(options)) {
  if (options_.max_bundles == 0) options_.max_bundles = 1;
#if ESHARP_OBS_ENABLED
  if (!options_.dir.empty()) {
    ::mkdir(options_.dir.c_str(), 0755);  // EEXIST is fine
    ScanExisting();
  }
#endif
}

double FlightRecorder::Now() const {
  return options_.clock ? options_.clock() : NowSeconds();
}

int64_t FlightRecorder::WallMs() const {
  return options_.wall_clock_ms ? options_.wall_clock_ms() : WallUnixMillis();
}

EventLog& FlightRecorder::Events() const {
  return options_.events != nullptr ? *options_.events : EventLog::Global();
}

void FlightRecorder::ScanExisting() {
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return;
  std::vector<IncidentBundleInfo> found;
  while (struct dirent* entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    IncidentBundleInfo info;
    if (!ParseBundleName(name, &info.sequence, &info.captured_unix_ms)) {
      continue;
    }
    info.path = options_.dir + "/" + name;
    struct stat st;
    if (::stat(info.path.c_str(), &st) == 0) {
      info.size_bytes = static_cast<size_t>(st.st_size);
    }
    found.push_back(std::move(info));
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end(),
            [](const IncidentBundleInfo& a, const IncidentBundleInfo& b) {
              return a.sequence < b.sequence;
            });
  std::lock_guard<std::mutex> lock(mu_);
  bundles_ = std::move(found);
  if (!bundles_.empty()) {
    next_sequence_ = bundles_.back().sequence + 1;
  }
  EnforceRetentionLocked();
}

void FlightRecorder::EnforceRetentionLocked() {
  while (bundles_.size() > options_.max_bundles) {
    std::remove(bundles_.front().path.c_str());
    bundles_.erase(bundles_.begin());
  }
}

std::string FlightRecorder::BuildBundleJson(const std::string& reason,
                                            const std::string& detail,
                                            uint64_t sequence,
                                            int64_t wall_ms) const {
  std::string out = StrFormat(
      "{\n\"reason\":\"%s\",\n\"detail\":\"%s\",\n\"sequence\":%llu,\n"
      "\"captured_unix_ms\":%lld,\n\"time_seconds\":%.6f,\n"
      "\"window_seconds\":%g,\n",
      JsonEscape(reason).c_str(), JsonEscape(detail).c_str(),
      static_cast<unsigned long long>(sequence),
      static_cast<long long>(wall_ms), Now(), options_.window_seconds);
  out += "\"timeseries\":";
  if (options_.timeseries != nullptr) {
    out += options_.timeseries->RenderJsonPrefixes(options_.metric_allowlist,
                                                   options_.window_seconds);
  } else {
    out += "null\n";
  }
  out += ",\n\"events\":";
  out += Events().RenderJson();
  out += ",\n\"slow_queries\":";
  if (options_.slow_queries != nullptr) {
    out += options_.slow_queries->RenderJson();
  } else {
    out += "null\n";
  }
  out += ",\n\"statusz\":";
  if (options_.statusz) {
    out += "\"" + JsonEscape(options_.statusz()) + "\"";
  } else {
    out += "null";
  }
  out += "\n}\n";
  return out;
}

Result<std::string> FlightRecorder::Trigger(const std::string& reason,
                                            const std::string& detail) {
#if !ESHARP_OBS_ENABLED
  (void)reason;
  (void)detail;
  return Status::Unavailable("flight recorder disabled (ESHARP_OBS_OFF)");
#else
  if (options_.dir.empty()) {
    return Status::FailedPrecondition("flight recorder has no directory");
  }
  uint64_t sequence;
  int64_t wall_ms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    double now = Now();
    if (options_.min_interval_seconds > 0 && has_written_ &&
        now - last_written_time_ < options_.min_interval_seconds) {
      ++suppressed_;
      return Status::Unavailable(
          "incident trigger debounced (", reason, "): last bundle ",
          StrFormat("%.1f", now - last_written_time_), "s ago");
    }
    sequence = next_sequence_++;
    wall_ms = WallMs();
    // Claim the debounce slot before the (slow) serialize + write, so a
    // storm of concurrent triggers produces one bundle, not one each.
    has_written_ = true;
    last_written_time_ = now;
  }

  std::string bundle = BuildBundleJson(reason, detail, sequence, wall_ms);
  std::string path =
      options_.dir + StrFormat("/incident-%06llu-%lld.json",
                               static_cast<unsigned long long>(sequence),
                               static_cast<long long>(wall_ms));
  // Atomic publish: write the temp file, then rename into place. A
  // concurrent reader sees either no bundle or a complete one.
  std::string tmp = path + ".tmp";
  Status written = WriteStringToFile(tmp, bundle);
  if (!written.ok()) return written;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed for ", path);
  }

  IncidentBundleInfo info;
  info.path = path;
  info.reason = reason;
  info.sequence = sequence;
  info.captured_unix_ms = wall_ms;
  info.size_bytes = bundle.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    bundles_.push_back(std::move(info));
    ++written_;
    EnforceRetentionLocked();
  }
  Events().Add(LogLevel::kINFO, "flightrecorder",
               "incident bundle written: " + reason,
               {{"path", path}, {"detail", detail}});
  return path;
#endif
}

std::vector<IncidentBundleInfo> FlightRecorder::Bundles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bundles_;
}

std::string FlightRecorder::RenderJson() const {
  std::vector<IncidentBundleInfo> bundles = Bundles();
  std::string out = StrFormat(
      "{\"dir\":\"%s\",\"max_bundles\":%zu,\"written\":%llu,"
      "\"suppressed\":%llu,\"bundles\":[",
      JsonEscape(options_.dir).c_str(), options_.max_bundles,
      static_cast<unsigned long long>(written()),
      static_cast<unsigned long long>(suppressed()));
  bool first = true;
  for (const IncidentBundleInfo& b : bundles) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"path\":\"%s\",\"reason\":\"%s\",\"sequence\":%llu,"
        "\"captured_unix_ms\":%lld,\"size_bytes\":%zu}",
        JsonEscape(b.path).c_str(), JsonEscape(b.reason).c_str(),
        static_cast<unsigned long long>(b.sequence),
        static_cast<long long>(b.captured_unix_ms), b.size_bytes);
  }
  out += "\n]}\n";
  return out;
}

std::function<void(const SloState&)> FlightRecorder::SloAlertHook() {
  return [this](const SloState& state) {
    if (!state.breached) return;  // recoveries are already in the event log
    (void)Trigger("slo_breach:" + state.name,
                  StrFormat("burn short %.2fx long %.2fx", state.short_burn,
                            state.long_burn));
  };
}

uint64_t FlightRecorder::written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

uint64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

}  // namespace esharp::obs
