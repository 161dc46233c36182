#include "obs/event_log.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"

namespace esharp::obs {

bool ParseLogLevel(const std::string& name, LogLevel* out) {
  std::string lowered;
  lowered.reserve(name.size());
  for (char c : name) {
    lowered.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c + 32) : c);
  }
  if (lowered == "debug") {
    *out = LogLevel::kDEBUG;
  } else if (lowered == "info") {
    *out = LogLevel::kINFO;
  } else if (lowered == "warn" || lowered == "warning") {
    *out = LogLevel::kWARN;
  } else if (lowered == "error") {
    *out = LogLevel::kERROR;
  } else {
    return false;
  }
  return true;
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog();
  return *log;
}

EventLog::EventLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(std::min<size_t>(capacity_, 256));
}

void EventLog::Add(LogLevel severity, const std::string& source,
                   const std::string& message,
                   std::vector<std::pair<std::string, std::string>> fields) {
  Event event;
  event.time_seconds = NowSeconds();
  event.severity = severity;
  event.source = source;
  event.message = message;
  event.fields = std::move(fields);
  std::lock_guard<std::mutex> lock(mu_);
  event.sequence = next_sequence_++;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
  }
}

std::vector<Event> EventLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Event> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<Event> EventLog::Filtered(const EventFilter& filter) const {
  std::vector<Event> events = Events();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [&filter](const Event& e) {
                                return e.severity < filter.min_severity ||
                                       e.sequence <= filter.after_sequence;
                              }),
               events.end());
  if (filter.limit > 0 && events.size() > filter.limit) {
    events.erase(events.begin(),
                 events.begin() + (events.size() - filter.limit));
  }
  return events;
}

uint64_t EventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

void EventLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::string EventLog::RenderText(const EventFilter& filter) const {
  std::vector<Event> events = Filtered(filter);
  std::string out = StrFormat("%zu events (%llu dropped)\n", events.size(),
                              static_cast<unsigned long long>(dropped()));
  for (const Event& e : events) {
    out += StrFormat("%10.3f %-5s [%s] %s", e.time_seconds,
                     LogLevelName(e.severity), e.source.c_str(),
                     e.message.c_str());
    for (const auto& [k, v] : e.fields) {
      out += " " + k + "=" + v;
    }
    out += "\n";
  }
  return out;
}

std::string EventLog::RenderJson(const EventFilter& filter) const {
  std::vector<Event> events = Filtered(filter);
  uint64_t next_after =
      events.empty() ? filter.after_sequence : events.back().sequence;
  std::string out = StrFormat(
      "{\"dropped\":%llu,\"next_after\":%llu,\"events\":[",
      static_cast<unsigned long long>(dropped()),
      static_cast<unsigned long long>(next_after));
  bool first = true;
  for (const Event& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"seq\":%llu,\"time\":%.6f,\"severity\":\"%s\",\"source\":\"%s\","
        "\"message\":\"%s\"",
        static_cast<unsigned long long>(e.sequence), e.time_seconds,
        LogLevelName(e.severity), JsonEscape(e.source).c_str(),
        JsonEscape(e.message).c_str());
    out += ",\"fields\":{";
    bool first_field = true;
    for (const auto& [k, v] : e.fields) {
      if (!first_field) out += ",";
      first_field = false;
      out += "\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace esharp::obs
