#include "querylog/log.h"

#include "common/hash.h"
#include "common/strings.h"

namespace esharp::querylog {

uint32_t QueryLog::AddQuery(const std::string& text, DomainId true_domain,
                            bool is_variant) {
  auto it = query_index_.find(text);
  if (it != query_index_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(queries_.size());
  queries_.push_back(QueryInfo{id, text, true_domain, is_variant, 0});
  query_index_.emplace(text, id);
  return id;
}

void QueryLog::AddClicks(uint32_t query_id, uint32_t url_id, uint64_t clicks) {
  if (clicks == 0) return;
  uint64_t key = (static_cast<uint64_t>(query_id) << 32) | url_id;
  auto it = record_index_.find(key);
  if (it != record_index_.end()) {
    records_[it->second].clicks += clicks;
    return;
  }
  record_index_.emplace(key, records_.size());
  records_.push_back(ClickRecord{query_id, url_id, clicks});
}

void QueryLog::AddSearches(uint32_t query_id, uint64_t count) {
  queries_[query_id].total_count += count;
}

Result<uint32_t> QueryLog::FindQuery(const std::string& text) const {
  auto it = query_index_.find(text);
  if (it == query_index_.end()) {
    return Status::NotFound("query '", text, "' not in log");
  }
  return it->second;
}

QueryLog QueryLog::FilterByMinCount(uint64_t min_count) const {
  QueryLog out;
  std::vector<uint32_t> remap(queries_.size(), UINT32_MAX);
  for (const QueryInfo& q : queries_) {
    if (q.total_count < min_count) continue;
    uint32_t nid = out.AddQuery(q.text, q.true_domain, q.is_variant);
    out.AddSearches(nid, q.total_count);
    remap[q.id] = nid;
  }
  for (const ClickRecord& r : records_) {
    if (remap[r.query_id] == UINT32_MAX) continue;
    out.AddClicks(remap[r.query_id], r.url_id, r.clicks);
  }
  return out;
}

std::vector<SparseVector> QueryLog::BuildClickVectors() const {
  std::vector<SparseVector> out(queries_.size());
  for (const ClickRecord& r : records_) {
    out[r.query_id].Add(r.url_id, static_cast<double>(r.clicks));
  }
  return out;
}

std::string QueryLog::SerializeTsv() const {
  std::string out;
  for (const ClickRecord& r : records_) {
    out += queries_[r.query_id].text;
    out += '\t';
    out += std::to_string(r.url_id);
    out += '\t';
    out += std::to_string(r.clicks);
    out += '\n';
  }
  return out;
}

Result<QueryLog> QueryLog::ParseTsv(const std::string& tsv) {
  QueryLog log;
  for (std::string_view line : SplitChar(tsv, '\n')) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitChar(line, '\t');
    if (fields.size() != 3) {
      return Status::IOError("malformed TSV line: '", std::string(line), "'");
    }
    uint32_t qid = log.AddQuery(fields[0], kNoDomain, false);
    uint64_t url = 0, clicks = 0;
    try {
      url = std::stoull(fields[1]);
      clicks = std::stoull(fields[2]);
    } catch (const std::exception&) {
      return Status::IOError("non-numeric TSV field in line: '",
                             std::string(line), "'");
    }
    log.AddClicks(qid, static_cast<uint32_t>(url), clicks);
    log.AddSearches(qid, clicks);
  }
  return log;
}

uint64_t QueryLog::SizeBytes() const {
  uint64_t total = 0;
  for (const QueryInfo& q : queries_) total += q.text.size() + 16;
  total += records_.size() * sizeof(ClickRecord);
  return total;
}

}  // namespace esharp::querylog
