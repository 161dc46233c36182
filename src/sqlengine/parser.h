#ifndef ESHARP_SQLENGINE_PARSER_H_
#define ESHARP_SQLENGINE_PARSER_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "sqlengine/plan.h"

namespace esharp::sql {

/// \brief Named scalar functions available to parsed queries.
///
/// The paper's Fig. 4 calls a UDF (`ModulGain(query1, query2)`) from inside
/// its WHERE clause; the registry is how a driver supplies such functions to
/// the text front end.
class FunctionRegistry {
 public:
  /// Registers (or replaces) a scalar function; names are case-insensitive.
  void RegisterScalar(const std::string& name, ScalarUdf fn);

  /// Looks up a scalar function.
  Result<ScalarUdf> LookupScalar(const std::string& name) const;

  /// True iff a scalar of this name exists.
  bool HasScalar(const std::string& name) const;

 private:
  std::map<std::string, ScalarUdf> scalars_;  // keys lower-cased
};

/// \brief Compiles one SQL SELECT statement into an executable Plan.
///
/// Supported grammar (case-insensitive keywords):
///
///   SELECT <expr [AS name]>, ...           -- or SELECT *
///   FROM <table [AS alias]> | (subquery) alias
///   [INNER | LEFT [OUTER]] JOIN <table [alias]> ON a.x = b.y [AND ...]
///   [WHERE <expr>]
///   [GROUP BY col, ...]
///   [ORDER BY col [ASC|DESC], ...]
///   [LIMIT n]
///
/// Expressions: arithmetic (+ - * /), comparisons (= != <> < <= > >=),
/// AND/OR/NOT, literals (numbers, 'strings', TRUE/FALSE/NULL), column
/// references (bare or alias-qualified), scalar UDF calls from `registry`,
/// and — in the SELECT list of a grouped query — the aggregates COUNT(*),
/// COUNT(e), SUM, MIN, MAX, AVG, ARGMAX(order, output), ARGMIN.
///
/// Alias semantics: a FROM/JOIN item with an alias exposes its columns as
/// `alias.column`; bare references resolve to an exact column name first,
/// then to a unique `*.column` suffix (ambiguity is an error at execution).
/// This mirrors how Fig. 4 reads: `communities c1 ... c1.comm_name`.
///
/// Hostile text yields a Status, never an exception or a crash: a numeric
/// literal or LIMIT count its type cannot hold is InvalidArgument, and so
/// is nesting deeper than kMaxSqlNesting.
Result<Plan> ParseSql(std::string_view sql,
                      const FunctionRegistry& registry = {});

/// \brief Deepest nesting ParseSql accepts, counted in parentheses, unary
/// operators, function calls, subqueries, UNION ALL arms, and in the
/// height of left-folded chains (`a + b + c`, `JOIN ... JOIN`). Fig. 4
/// needs three.
inline constexpr size_t kMaxSqlNesting = 256;

/// \brief Convenience: parse and immediately execute against a catalog.
Result<Table> ExecuteSql(std::string_view sql, const Catalog& catalog,
                         const FunctionRegistry& registry = {},
                         const ExecutorOptions& options = {});

}  // namespace esharp::sql

#endif  // ESHARP_SQLENGINE_PARSER_H_
