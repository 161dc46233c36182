#include "obs/trace.h"

#include <algorithm>

#include "common/file_io.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace esharp::obs {

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    id_ = other.id_;
    parent_id_ = other.parent_id_;
    trace_hi_ = other.trace_hi_;
    trace_lo_ = other.trace_lo_;
    start_us_ = other.start_us_;
    args_ = std::move(other.args_);
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::Annotate(const std::string& key, const std::string& value) {
  if (tracer_ == nullptr) return;
  args_.emplace_back(key, value);
}

void Span::Annotate(const std::string& key, double value) {
  if (tracer_ == nullptr) return;
  args_.emplace_back(key, StrFormat("%.6g", value));
}

void Span::Annotate(const std::string& key, int64_t value) {
  if (tracer_ == nullptr) return;
  args_.emplace_back(key, StrFormat("%lld", static_cast<long long>(value)));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  TraceEvent event;
  event.name = std::move(name_);
  event.id = id_;
  event.parent_id = parent_id_;
  event.trace_hi = trace_hi_;
  event.trace_lo = trace_lo_;
  event.start_us = start_us_;
  event.dur_us = NowSeconds() * 1e6 - start_us_;
  event.tid = tracer->CurrentTid();
  event.args = std::move(args_);
  tracer->Record(std::move(event));
}

Tracer::Tracer(size_t max_events)
    : max_events_(max_events == 0 ? 1 : max_events) {}

Span Tracer::StartSpan(const std::string& name, const Span* parent) {
  return StartSpanAt(name, parent, NowSeconds());
}

Span Tracer::StartSpanAt(const std::string& name, const Span* parent,
                         double start_seconds) {
  uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  uint64_t parent_id = parent != nullptr ? parent->id() : 0;
  Span span(this, name, id, parent_id, start_seconds * 1e6);
  // Children ride their parent's distributed trace: SetTrace on the
  // request root propagates through the whole in-process tree for free.
  if (parent != nullptr) span.SetTrace(parent->trace_hi(), parent->trace_lo());
  return span;
}

uint64_t Tracer::RecordSpan(
    const std::string& name, const Span* parent, double start_seconds,
    double end_seconds,
    std::vector<std::pair<std::string, std::string>> args) {
  TraceEvent event;
  event.name = name;
  event.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  event.parent_id = parent != nullptr ? parent->id() : 0;
  if (parent != nullptr) {
    event.trace_hi = parent->trace_hi();
    event.trace_lo = parent->trace_lo();
  }
  event.start_us = start_seconds * 1e6;
  event.dur_us = (end_seconds - start_seconds) * 1e6;
  event.tid = CurrentTid();
  event.args = std::move(args);
  uint64_t id = event.id;
  Record(std::move(event));
  return id;
}

void Tracer::Record(TraceEvent event) {
  if (event.dur_us < 0) event.dur_us = 0;
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() < max_events_) {
      events_.push_back(std::move(event));
    } else {
      events_[head_] = std::move(event);
      head_ = (head_ + 1) % max_events_;
      ++dropped_;
      overwrote = true;
    }
  }
  if (overwrote) {
    // Cached once: registry instruments are never deleted.
    static Counter* dropped_counter =
        MetricsRegistry::Global().GetCounter("trace.events_dropped");
    dropped_counter->Increment();
  }
}

uint32_t Tracer::CurrentTid() {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(),
                    static_cast<uint32_t>(tids_.size() + 1));
  return it->second;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Unwrap the ring into record order (oldest first).
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string Tracer::ExportChromeJson() const {
  std::vector<TraceEvent> events = Events();
  // Chrome renders nesting from ts/dur overlap per tid; sorting by start
  // keeps the file stable and diffable.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
        "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu",
        JsonEscape(e.name).c_str(), e.start_us, e.dur_us, e.tid,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.parent_id));
    if ((e.trace_hi | e.trace_lo) != 0) {
      out += StrFormat(",\"trace\":\"%016llx%016llx\"",
                       static_cast<unsigned long long>(e.trace_hi),
                       static_cast<unsigned long long>(e.trace_lo));
    }
    for (const auto& [k, v] : e.args) {
      out += ",\"" + JsonEscape(k) + "\":\"" + JsonEscape(v) + "\"";
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

Status Tracer::WriteChromeJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ExportChromeJson());
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  head_ = 0;
  dropped_ = 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

Span StartSpan(Tracer* tracer, const std::string& name, const Span* parent) {
  if (tracer == nullptr) return Span();
  return tracer->StartSpan(name, parent);
}

}  // namespace esharp::obs
