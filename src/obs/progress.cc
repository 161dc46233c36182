#include "obs/progress.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/metrics.h"

namespace esharp::obs {

JobProgressRegistry::Job::~Job() {
  if (!finished_) registry_->Finish(id_, "aborted");
}

void JobProgressRegistry::Job::SetStage(const std::string& stage) {
  if (!finished_) registry_->Update(id_, &stage, nullptr);
}

void JobProgressRegistry::Job::SetFraction(double fraction) {
  if (finished_) return;
  double clamped = std::min(1.0, std::max(0.0, fraction));
  registry_->Update(id_, nullptr, &clamped);
}

void JobProgressRegistry::Job::Finish(const std::string& outcome) {
  if (finished_) return;
  finished_ = true;
  registry_->Finish(id_, outcome);
}

JobProgressRegistry& JobProgressRegistry::Global() {
  static JobProgressRegistry* registry = new JobProgressRegistry();
  return *registry;
}

JobProgressRegistry::JobProgressRegistry(size_t max_finished)
    : max_finished_(max_finished) {}

std::unique_ptr<JobProgressRegistry::Job> JobProgressRegistry::Start(
    const std::string& name) {
  JobSnapshot job;
  job.name = name;
  job.stage = "started";
  job.started_seconds = NowSeconds();
  job.updated_seconds = job.started_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  job.id = next_id_++;
  uint64_t id = job.id;
  active_.emplace(id, std::move(job));
  return std::unique_ptr<Job>(new Job(this, id));
}

void JobProgressRegistry::Update(uint64_t id, const std::string* stage,
                                 const double* fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  if (stage != nullptr) it->second.stage = *stage;
  if (fraction != nullptr) it->second.fraction = *fraction;
  it->second.updated_seconds = NowSeconds();
}

void JobProgressRegistry::Finish(uint64_t id, const std::string& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = active_.find(id);
  if (it == active_.end()) return;
  JobSnapshot job = std::move(it->second);
  active_.erase(it);
  job.finished = true;
  job.outcome = outcome;
  job.updated_seconds = NowSeconds();
  if (job.fraction >= 0 && outcome == "ok") job.fraction = 1.0;
  finished_.push_back(std::move(job));
  while (finished_.size() > max_finished_) finished_.pop_front();
}

std::vector<JobProgressRegistry::JobSnapshot> JobProgressRegistry::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(active_.size() + finished_.size());
  for (const auto& [id, job] : active_) out.push_back(job);
  for (const JobSnapshot& job : finished_) out.push_back(job);
  return out;
}

size_t JobProgressRegistry::num_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

std::string JobProgressRegistry::RenderText() const {
  std::vector<JobSnapshot> jobs = Snapshot();
  std::string out =
      StrFormat("%zu jobs (%zu active)\n", jobs.size(), num_active());
  for (const JobSnapshot& j : jobs) {
    std::string progress =
        j.fraction >= 0 ? StrFormat("%5.1f%%", 100.0 * j.fraction) : "     -";
    out += StrFormat("#%-4llu %-24s %-10s %s %s  %.3fs\n",
                     static_cast<unsigned long long>(j.id), j.name.c_str(),
                     j.finished ? j.outcome.c_str() : "running",
                     progress.c_str(), j.stage.c_str(),
                     j.updated_seconds - j.started_seconds);
  }
  return out;
}

std::string JobProgressRegistry::RenderJson() const {
  std::vector<JobSnapshot> jobs = Snapshot();
  std::string out = "{\"jobs\":[";
  bool first = true;
  for (const JobSnapshot& j : jobs) {
    out += first ? "\n" : ",\n";
    first = false;
    out += StrFormat(
        "  {\"id\":%llu,\"name\":\"%s\",\"stage\":\"%s\",\"fraction\":%.4f,"
        "\"started\":%.6f,\"updated\":%.6f,\"finished\":%s,\"outcome\":\"%s\"}",
        static_cast<unsigned long long>(j.id), JsonEscape(j.name).c_str(),
        JsonEscape(j.stage).c_str(), j.fraction, j.started_seconds,
        j.updated_seconds, j.finished ? "true" : "false",
        JsonEscape(j.outcome).c_str());
  }
  out += "\n]}\n";
  return out;
}

}  // namespace esharp::obs
