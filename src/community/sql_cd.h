#ifndef ESHARP_COMMUNITY_SQL_CD_H_
#define ESHARP_COMMUNITY_SQL_CD_H_

#include <string>

#include "common/result.h"
#include "community/parallel_cd.h"
#include "sqlengine/parser.h"
#include "sqlengine/plan.h"

namespace esharp::community {

/// \name The SQL of Fig. 4
///
/// The algorithm as the SQL a SCOPE/Hive deployment submits, over
/// `graph(query1, query2, distance)` (both directions of every similarity
/// edge) and `communities(comm_name, query)` (vertex memberships, each
/// community named after a member vertex). A caller runs the statements in
/// the order of kFig4Statements and registers each result under the name
/// listed there; the last one replaces `communities`.
/// @{

/// Community degree sums (the symmetric edge table already counts each
/// incident edge once per endpoint, which is what a degree needs).
inline constexpr const char* kDegreesSql = R"sql(
    SELECT c1.comm_name AS comm, sum(graph.distance) AS degree
    FROM graph
    INNER JOIN communities c1 ON graph.query1 = c1.query
    GROUP BY c1.comm_name
)sql";

/// Neighborhood creation: inter-community weights, kept where the merge
/// gain (Eq. 8) is positive.
inline constexpr const char* kNeighborsSql = R"sql(
    SELECT b.comm1 AS comm1, b.comm2 AS comm2,
           modulgain(d1.degree, d2.degree, b.w12) AS gain
    FROM (SELECT c1.comm_name AS comm1, c2.comm_name AS comm2,
                 sum(graph.distance) AS w12
          FROM graph
          INNER JOIN communities c1 ON graph.query1 = c1.query
          INNER JOIN communities c2 ON graph.query2 = c2.query
          WHERE c1.comm_name <> c2.comm_name
          GROUP BY c1.comm_name, c2.comm_name) b
    INNER JOIN degrees d1 ON b.comm1 = d1.comm
    INNER JOIN degrees d2 ON b.comm2 = d2.comm
    WHERE modulgain(d1.degree, d2.degree, b.w12) > 0
)sql";

/// Neighborhood separation: every community keeps its closest neighbor.
inline constexpr const char* kPartitionsSql = R"sql(
    SELECT comm1, argmax(gain, comm2) AS best
    FROM neighbors
    GROUP BY comm1
)sql";

/// Aggregation: every community renames itself LEAST(chosen target,
/// itself); the outer join keeps communities with no positive-gain
/// neighbor, whose target is NULL.
inline constexpr const char* kRenameSql = R"sql(
    SELECT least(p.best, c.comm_name) AS comm_name, c.query AS query
    FROM communities c
    LEFT OUTER JOIN partitions p ON c.comm_name = p.comm1
)sql";

/// One iteration of Fig. 4: each statement with the table its result is
/// registered as.
struct SqlStatement {
  const char* table;
  const char* sql;
};
inline constexpr SqlStatement kFig4Statements[] = {
    {"degrees", kDegreesSql},
    {"neighbors", kNeighborsSql},
    {"partitions", kPartitionsSql},
    {"communities", kRenameSql},
};

/// The UDFs the statements call: `modulgain(d1, d2, w) = w - d1*d2 / (2 m_G)`
/// (Eqs. 8-9, with m_G = `total_weight`) and `least(a, b)`, the smaller of
/// two values, or the non-NULL one.
sql::FunctionRegistry Fig4Functions(double total_weight);
/// @}

/// \brief Options of the SQL-based detection.
struct SqlCdOptions {
  size_t max_iterations = 30;
  /// Execution knobs forwarded to the relational engine; `pool == nullptr`
  /// runs single-threaded, otherwise operators hash-partition across the
  /// pool, which is the paper's map-reduce parallelization (§4.2.3).
  ThreadPool* pool = nullptr;
  size_t num_partitions = 8;
  sql::JoinStrategy join_strategy = sql::JoinStrategy::kReplicated;
  /// Inert: nothing reads it, since the engine has one executor.
  /// perfbench/src/rebuild.cc still assigns it from
  /// OfflineOptions::sql_use_columnar; both fields go with that line.
  bool use_columnar = true;
  ResourceMeter* meter = nullptr;
  /// Optional tracing: each rename iteration becomes an "iteration" span
  /// (annotated with community count and modularity) under `trace_parent`.
  obs::Tracer* tracer = nullptr;
  const obs::Span* trace_parent = nullptr;
  /// When set, the first iteration's `neighbors` statement (the joins,
  /// filters and aggregates of Fig. 4) is profiled into this EXPLAIN
  /// ANALYZE tree with exact per-operator row counts.
  sql::ExplainStats* explain = nullptr;
  /// When > 0, use this as the graph total weight m_G in the ModulGain UDF
  /// and the modularity trace instead of g.TotalWeight(). Set by the
  /// per-component decomposition (component_cd.h) so a component run is
  /// bit-identical to its slice of a full-graph run.
  double total_weight_override = 0;
};

/// \brief The paper's SQL-based modularity maximization: the statements of
/// Fig. 4, parsed once by the engine's text front end and executed every
/// iteration until no community is renamed.
///
/// The LEAST canonicalization is the deterministic tie-break that makes the
/// rename cascade converge (mutual best pairs collapse onto the smaller
/// name instead of swapping forever); it corresponds to the "keep the
/// closest neighborhood" rule of §4.2.2 step 2 with a stable naming choice.
/// Vertex names are zero-padded ids so lexicographic order equals numeric
/// order; the result is then identical, community by community, to
/// DetectCommunitiesParallel, and so are the community counts and the
/// modularity trace, which are computed from each iteration's assignment.
Result<DetectionResult> DetectCommunitiesSql(const graph::Graph& g,
                                             const SqlCdOptions& options = {});

/// \brief Renders the zero-padded vertex name used inside the SQL tables.
std::string SqlVertexName(graph::VertexId v);

}  // namespace esharp::community

#endif  // ESHARP_COMMUNITY_SQL_CD_H_
