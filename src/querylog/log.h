#ifndef ESHARP_QUERYLOG_LOG_H_
#define ESHARP_QUERYLOG_LOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sparse_vector.h"
#include "querylog/universe.h"

namespace esharp::querylog {

/// \brief Metadata of one distinct query string in the log.
struct QueryInfo {
  uint32_t id = 0;
  std::string text;
  /// Latent domain the query belongs to (kNoDomain for noise).
  DomainId true_domain = kNoDomain;
  /// True when the string is a derived variant rather than a canonical term.
  bool is_variant = false;
  /// Total searches of this query over the simulated month.
  uint64_t total_count = 0;
};

/// \brief Aggregated click edge: this query led to `clicks` clicks on `url`.
struct ClickRecord {
  uint32_t query_id = 0;
  uint32_t url_id = 0;
  uint64_t clicks = 0;
};

/// \brief One month of aggregated search behavior: distinct queries and
/// their per-URL click counts. This is the only interface the offline
/// pipeline sees — swapping in a real log would be a drop-in change.
class QueryLog {
 public:
  /// Registers a query string; returns its id. Re-registration of the same
  /// text returns the existing id.
  uint32_t AddQuery(const std::string& text, DomainId true_domain,
                    bool is_variant);

  /// Adds clicks for (query, url), accumulating duplicates.
  void AddClicks(uint32_t query_id, uint32_t url_id, uint64_t clicks);

  /// Adds to a query's total search count.
  void AddSearches(uint32_t query_id, uint64_t count);

  size_t num_queries() const { return queries_.size(); }
  size_t num_records() const { return records_.size(); }
  const QueryInfo& query(uint32_t id) const { return queries_[id]; }
  const std::vector<QueryInfo>& queries() const { return queries_; }
  const std::vector<ClickRecord>& records() const { return records_; }

  /// Id of a query string, if present.
  Result<uint32_t> FindQuery(const std::string& text) const;

  /// Returns a copy containing only queries searched at least `min_count`
  /// times — the paper's noise filter ("we remove all the queries which
  /// appear less than 50 times per month", §4.1). Query ids are re-assigned
  /// densely.
  QueryLog FilterByMinCount(uint64_t min_count) const;

  /// Builds one sparse click vector per query (indexed by query id) — the
  /// vector-space representation of §4.1/Fig. 2.
  std::vector<SparseVector> BuildClickVectors() const;

  /// Serializes to TSV ("query<TAB>url<TAB>clicks" lines); the byte count of
  /// this representation is what the Table 9 bench reports as stage input.
  std::string SerializeTsv() const;

  /// Parses the TSV form (ground-truth domain metadata is not round-tripped;
  /// parsed logs carry kNoDomain).
  static Result<QueryLog> ParseTsv(const std::string& tsv);

  /// Approximate in-memory size of the aggregated log.
  uint64_t SizeBytes() const;

 private:
  std::vector<QueryInfo> queries_;
  std::vector<ClickRecord> records_;
  std::unordered_map<std::string, uint32_t> query_index_;
  // (query_id, url_id) -> index into records_, for click accumulation.
  std::unordered_map<uint64_t, size_t> record_index_;
};

}  // namespace esharp::querylog

#endif  // ESHARP_QUERYLOG_LOG_H_
