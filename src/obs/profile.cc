#include "obs/profile.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/debugz.h"
#include "obs/obs.h"

namespace esharp::obs {

namespace {

/// Emits one complete ("ph":"X") event. `ts`/`dur` are milliseconds
/// relative to query admission; Chrome wants microseconds.
void AppendEvent(std::string* out, bool* first, const std::string& name,
                 uint32_t tid, double start_ms, double dur_ms,
                 const std::string& args_json) {
  *out += *first ? "\n" : ",\n";
  *first = false;
  *out += StrFormat(
      "  {\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
      "\"pid\":1,\"tid\":%u,\"args\":{%s}}",
      JsonEscape(name).c_str(), start_ms * 1e3, dur_ms * 1e3, tid,
      args_json.c_str());
}

void AppendThreadName(std::string* out, bool* first, uint32_t tid,
                      const std::string& name) {
  *out += *first ? "\n" : ",\n";
  *first = false;
  *out += StrFormat(
      "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
      "\"args\":{\"name\":\"%s\"}}",
      tid, JsonEscape(name).c_str());
}

std::string SummaryJson(const QueryProfile& p) {
  std::string out = StrFormat(
      "{\"trace\":\"%s\",\"query\":\"%s\",\"outcome\":\"%s\","
      "\"total_ms\":%.3f,\"merge_ms\":%.3f,\"deadline_ms\":%.3f,"
      "\"shards_total\":%zu,\"shards_answered\":%zu,\"hedges_fired\":%zu,"
      "\"degraded\":%s,\"lanes\":[",
      p.trace.TraceIdHex().c_str(), JsonEscape(p.query).c_str(),
      JsonEscape(p.outcome).c_str(), p.total_ms, p.merge_ms, p.deadline_ms,
      p.shards_total, p.shards_answered, p.hedges_fired,
      p.degraded ? "true" : "false");
  for (size_t i = 0; i < p.lanes.size(); ++i) {
    const ProfileLane& lane = p.lanes[i];
    if (i > 0) out += ",";
    out += StrFormat("{\"shard\":\"%s\",\"annotation\":\"%s\",\"attempts\":[",
                     JsonEscape(lane.name).c_str(),
                     JsonEscape(lane.annotation).c_str());
    for (size_t j = 0; j < lane.attempts.size(); ++j) {
      const LaneAttempt& a = lane.attempts[j];
      if (j > 0) out += ",";
      out += StrFormat(
          "{\"hedge\":%s,\"won\":%s,\"outcome\":\"%s\",\"detail\":\"%s\","
          "\"start_ms\":%.3f,\"dur_ms\":%.3f,\"deadline_ms\":%.3f",
          a.hedge ? "true" : "false", a.won ? "true" : "false",
          JsonEscape(a.outcome).c_str(), JsonEscape(a.detail).c_str(),
          a.start_ms, a.dur_ms, a.deadline_ms);
      if (a.has_breakdown) {
        out += StrFormat(
            ",\"queue_ms\":%.3f,\"expand_ms\":%.3f,\"detect_ms\":%.3f,"
            "\"candidates\":%zu",
            a.queue_ms, a.expand_ms, a.detect_ms, a.candidates);
      }
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace

std::string QueryProfile::ExportChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  AppendThreadName(&out, &first, 0, lanes.empty() ? "engine" : "router");
  for (size_t i = 0; i < lanes.size(); ++i) {
    std::string label = lanes[i].name;
    if (!lanes[i].annotation.empty()) {
      label += " [" + lanes[i].annotation + "]";
    }
    AppendThreadName(&out, &first, static_cast<uint32_t>(i + 1), label);
  }
  // Router lane: the whole query, then its named stages.
  std::string root_args = StrFormat(
      "\"trace\":\"%s\",\"query\":\"%s\",\"outcome\":\"%s\","
      "\"shards_answered\":\"%zu/%zu\",\"hedges_fired\":\"%zu\"",
      trace.TraceIdHex().c_str(), JsonEscape(query).c_str(),
      JsonEscape(outcome).c_str(), shards_answered, shards_total,
      hedges_fired);
  if (deadline_ms > 0) {
    root_args += StrFormat(",\"deadline_ms\":\"%.3f\"", deadline_ms);
  }
  AppendEvent(&out, &first, "request", 0, 0, total_ms, root_args);
  for (const ProfileStage& stage : stages) {
    AppendEvent(&out, &first, stage.name, 0, stage.start_ms, stage.dur_ms,
                "");
  }
  // Shard lanes. An outstanding attempt (shard never answered before the
  // router stopped gathering) renders to the end of the query so the lost
  // time is visible, with the outcome in args telling why.
  for (size_t i = 0; i < lanes.size(); ++i) {
    uint32_t tid = static_cast<uint32_t>(i + 1);
    for (const LaneAttempt& a : lanes[i].attempts) {
      double dur = a.outcome == "outstanding"
                       ? std::max(0.0, total_ms - a.start_ms)
                       : a.dur_ms;
      std::string args = StrFormat(
          "\"outcome\":\"%s\",\"won\":\"%s\",\"deadline_ms\":\"%.3f\"",
          JsonEscape(a.outcome).c_str(), a.won ? "true" : "false",
          a.deadline_ms);
      if (!a.detail.empty()) {
        args += ",\"detail\":\"" + JsonEscape(a.detail) + "\"";
      }
      AppendEvent(&out, &first, a.hedge ? "hedge" : "attempt", tid,
                  a.start_ms, dur, args);
      if (a.has_breakdown) {
        // Shard-side breakdown nested inside the attempt, in wall order.
        double at = a.start_ms;
        AppendEvent(&out, &first, "queue", tid, at, a.queue_ms, "");
        at += a.queue_ms;
        AppendEvent(&out, &first, "expand", tid, at, a.expand_ms, "");
        at += a.expand_ms;
        AppendEvent(&out, &first, "detect", tid, at, a.detect_ms,
                    StrFormat("\"candidates\":\"%zu\"", a.candidates));
      }
    }
  }
  out += "\n]}\n";
  return out;
}

RequestRecord::RequestRecord(const char* root, std::string_view query,
                             double submitted_seconds)
    : query_(query) {
  root_.name = root;
  root_.start_seconds = submitted_seconds;
}

RequestRecord::Stamp& RequestRecord::Append(const char* name,
                                            double start_seconds) {
  // A full record reuses its last slot rather than overrun the array.
  if (num_stages_ == kMaxStages) --num_stages_;
  Stamp& stamp = stages_[num_stages_++];
  stamp = Stamp{};
  stamp.name = name;
  stamp.start_seconds = start_seconds;
  return stamp;
}

RequestRecord::Stamp& RequestRecord::Begin(const char* name) {
  const double now = NowSeconds();
  if (running_) stages_[num_stages_ - 1].end_seconds = now;
  running_ = true;
  live_stage_.store(name, std::memory_order_relaxed);
  return Append(name, now);
}

void RequestRecord::End() {
  if (!running_) return;
  stages_[num_stages_ - 1].end_seconds = NowSeconds();
  running_ = false;
}

void RequestRecord::Add(const char* name, double start_seconds,
                        double end_seconds) {
  End();
  Append(name, start_seconds).end_seconds = end_seconds;
}

void RequestRecord::Finish(const Status& status) {
  End();
  root_.end_seconds = NowSeconds();
  if (root_.outcome == nullptr) {
    root_.outcome = status.ok()                    ? "ok"
                    : status.IsDeadlineExceeded() ? "timeout"
                                                  : "error";
  }
}

double RequestRecord::ElapsedMs() const {
  return (NowSeconds() - root_.start_seconds) * 1e3;
}

double RequestRecord::StageMs(std::string_view name) const {
  for (size_t i = 0; i < num_stages_; ++i) {
    if (name == stages_[i].name) return stages_[i].ms();
  }
  return 0;
}

void RequestRecord::EmitSpans([[maybe_unused]] Tracer* tracer) const {
#if ESHARP_OBS_ENABLED
  if (tracer == nullptr) return;
  Span root = tracer->StartSpanAt(root_.name, /*parent=*/nullptr,
                                  root_.start_seconds);
  root.SetTrace(trace_.trace_hi, trace_.trace_lo);
  root.Annotate("trace", trace_.TraceIdHex());
  for (size_t i = 0; i < num_stages_; ++i) {
    const Stamp& stamp = stages_[i];
    std::vector<std::pair<std::string, std::string>> args;
    for (size_t c = 0; c < stamp.num_counts; ++c) {
      args.emplace_back(
          stamp.counts[c].first,
          StrFormat("%lld", static_cast<long long>(stamp.counts[c].second)));
    }
    if (stamp.outcome != nullptr) args.emplace_back("outcome", stamp.outcome);
    tracer->RecordSpan(stamp.name, &root, stamp.start_seconds,
                       stamp.end_seconds, std::move(args));
  }
  for (size_t c = 0; c < root_.num_counts; ++c) {
    root.Annotate(root_.counts[c].first, root_.counts[c].second);
  }
  if (root_.outcome != nullptr) root.Annotate("outcome", root_.outcome);
  root.End();
#endif
}

void RequestRecord::FillProfile(QueryProfile* profile) const {
  profile->trace = trace_;
  profile->query = std::string(query_);
  profile->outcome = root_.outcome != nullptr ? root_.outcome : "";
  profile->total_ms = total_ms();
  profile->recorded_at_seconds = root_.end_seconds;
  profile->stages.clear();
  for (size_t i = 0; i < num_stages_; ++i) {
    const Stamp& stamp = stages_[i];
    profile->stages.push_back(
        {stamp.name, (stamp.start_seconds - root_.start_seconds) * 1e3,
         stamp.ms()});
  }
}

void LiveRequests::Add(RequestRecord* record) {
  const size_t index = ThreadShard();
  Shard& shard = shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  record->id_ = shard.next_sequence++ * kThreadShards + index;
  record->prev_ = nullptr;
  record->next_ = shard.head;
  if (shard.head != nullptr) shard.head->prev_ = record;
  shard.head = record;
}

void LiveRequests::Remove(RequestRecord* record) {
  Shard& shard = shards_[record->id_ % kThreadShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  (record->prev_ != nullptr ? record->prev_->next_ : shard.head) =
      record->next_;
  if (record->next_ != nullptr) record->next_->prev_ = record->prev_;
  record->prev_ = record->next_ = nullptr;
}

SlowQueryLog::SlowQueryLog(SlowQueryLogOptions options)
    : options_(options) {
  if (options_.top_k == 0) options_.top_k = 1;
  if (options_.recent == 0) options_.recent = 1;
}

void SlowQueryLog::Record(std::shared_ptr<const QueryProfile> profile) {
  if (profile == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (recent_.size() < options_.recent) {
    recent_.push_back(profile);
  } else {
    recent_[recent_pos_] = profile;
    recent_pos_ = (recent_pos_ + 1) % options_.recent;
  }
  // Leaderboard insert: keep top_ sorted descending by total_ms.
  auto pos = std::upper_bound(
      top_.begin(), top_.end(), profile,
      [](const std::shared_ptr<const QueryProfile>& a,
         const std::shared_ptr<const QueryProfile>& b) {
        return a->total_ms > b->total_ms;
      });
  if (pos == top_.end() && top_.size() >= options_.top_k) return;
  top_.insert(pos, std::move(profile));
  if (top_.size() > options_.top_k) top_.pop_back();
}

std::vector<std::shared_ptr<const QueryProfile>> SlowQueryLog::TopK() const {
  std::lock_guard<std::mutex> lock(mu_);
  return top_;
}

std::vector<std::shared_ptr<const QueryProfile>> SlowQueryLog::Recent()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  // Unwrap the ring newest-first.
  std::vector<std::shared_ptr<const QueryProfile>> out;
  out.reserve(recent_.size());
  for (size_t i = 0; i < recent_.size(); ++i) {
    size_t idx =
        (recent_pos_ + recent_.size() - 1 - i) % recent_.size();
    out.push_back(recent_[idx]);
  }
  return out;
}

std::shared_ptr<const QueryProfile> SlowQueryLog::Find(
    std::string_view trace_id) const {
  // Accept a full traceparent header by extracting its id field.
  if (trace_id.size() == 55 && trace_id[2] == '-' && trace_id[35] == '-') {
    trace_id = trace_id.substr(3, 32);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& list : {top_, recent_}) {
    for (const auto& p : list) {
      if (p->trace.TraceIdHex() == trace_id) return p;
    }
  }
  return nullptr;
}

uint64_t SlowQueryLog::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::string SlowQueryLog::RenderJson() const {
  std::string out =
      StrFormat("{\"recorded\":%llu,\"top\":[",
                static_cast<unsigned long long>(recorded()));
  bool first = true;
  for (const auto& p : TopK()) {
    if (!first) out += ",";
    first = false;
    out += SummaryJson(*p);
  }
  out += "],\"recent\":[";
  first = true;
  for (const auto& p : Recent()) {
    if (!first) out += ",";
    first = false;
    out += SummaryJson(*p);
  }
  out += "]}\n";
  return out;
}

namespace {

void AppendProfileRows(
    std::string* body,
    const std::vector<std::shared_ptr<const QueryProfile>>& profiles) {
  *body +=
      "<table><tr><th>trace</th><th>query</th><th>outcome</th>"
      "<th>total ms</th><th>merge ms</th><th>answered</th>"
      "<th>hedges</th><th>lanes</th></tr>\n";
  for (const auto& p : profiles) {
    std::string id = p->trace.TraceIdHex();
    std::string lanes;
    for (const ProfileLane& lane : p->lanes) {
      if (!lanes.empty()) lanes += " ";
      lanes += lane.name;
      if (!lane.annotation.empty()) lanes += "[" + lane.annotation + "]";
    }
    *body += StrFormat(
        "<tr><td><a href=\"/queryz?trace=%s\"><code>%s</code></a></td>"
        "<td>%s</td><td>%s</td><td>%.3f</td><td>%.3f</td>"
        "<td>%zu/%zu</td><td>%zu</td><td>%s</td></tr>\n",
        id.c_str(), id.c_str(), HtmlEscape(p->query).c_str(),
        HtmlEscape(p->outcome).c_str(), p->total_ms, p->merge_ms,
        p->shards_answered, p->shards_total, p->hedges_fired,
        HtmlEscape(lanes).c_str());
  }
  *body += "</table>\n";
}

}  // namespace

void MountQueryz(DebugServer* server, const SlowQueryLog* log) {
  if (server == nullptr || log == nullptr) return;
  server->Handle("/queryz", [log](const HttpRequest& request) {
    HttpResponse response;
    std::string trace = request.Param("trace", "");
    if (!trace.empty()) {
      std::shared_ptr<const QueryProfile> profile = log->Find(trace);
      if (profile == nullptr) {
        response.status = 404;
        response.body = "no profile retained for trace " + trace + "\n";
        return response;
      }
      response.content_type = "application/json";
      response.body = profile->ExportChromeJson();
      return response;
    }
    if (request.Param("format", "") == "json") {
      response.content_type = "application/json";
      response.body = log->RenderJson();
      return response;
    }
    response.content_type = "text/html; charset=utf-8";
    std::string body =
        "<!doctype html><html><head><title>queryz</title><style>\n"
        "body{font-family:monospace;margin:1.5em}\n"
        "table{border-collapse:collapse}\n"
        "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}\n"
        "</style></head><body>\n<h1>/queryz — slow-query log</h1>\n";
    body += StrFormat(
        "<p>%llu queries profiled; retaining top %zu by latency and %zu "
        "most recent. <a href=\"/queryz?format=json\">json</a>; click a "
        "trace id for its Chrome trace (load in chrome://tracing or "
        "ui.perfetto.dev).</p>\n",
        static_cast<unsigned long long>(log->recorded()),
        log->options().top_k, log->options().recent);
    body += "<h2>Slowest</h2>\n";
    AppendProfileRows(&body, log->TopK());
    body += "<h2>Recent</h2>\n";
    AppendProfileRows(&body, log->Recent());
    body += "</body></html>\n";
    response.body = std::move(body);
    return response;
  });
}

}  // namespace esharp::obs
