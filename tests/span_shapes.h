// Golden span shapes shared by the engine and router tracing tests. A
// request's spans are reduced to what trace consumers depend on — span
// names, parent names, annotation keys and recording order — so a change
// to how requests are timed can prove it left the emitted trace intact.
#ifndef ESHARP_TESTS_SPAN_SHAPES_H_
#define ESHARP_TESTS_SPAN_SHAPES_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_context.h"

namespace esharp::testing {

/// One string per span, in recording order:
/// "name<parent{key,key,outcome=value}" with the annotation keys sorted,
/// the "outcome" annotation's value spelled out and "<parent" omitted for
/// a root span.
inline std::vector<std::string> SpanShapes(
    const std::vector<obs::TraceEvent>& events) {
  std::map<uint64_t, std::string> names;
  for (const obs::TraceEvent& e : events) names[e.id] = e.name;
  std::vector<std::string> shapes;
  for (const obs::TraceEvent& e : events) {
    std::vector<std::string> keys;
    for (const auto& [key, value] : e.args) {
      keys.push_back(key == "outcome" ? key + "=" + value : key);
    }
    std::sort(keys.begin(), keys.end());
    std::string shape = e.name;
    if (e.parent_id != 0) shape += "<" + names[e.parent_id];
    shape += "{";
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0) shape += ",";
      shape += keys[i];
    }
    shapes.push_back(shape + "}");
  }
  return shapes;
}

/// The spans of one distributed trace, in recording order.
inline std::vector<obs::TraceEvent> EventsOfTrace(
    const std::vector<obs::TraceEvent>& events,
    const obs::TraceContext& trace) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : events) {
    if (e.trace_hi == trace.trace_hi && e.trace_lo == trace.trace_lo) {
      out.push_back(e);
    }
  }
  return out;
}

/// Every child span starts and ends inside its root span. The slack
/// absorbs the rounding of microsecond doubles, not clock skew.
inline void ExpectChildrenInsideRoots(
    const std::vector<obs::TraceEvent>& events) {
  constexpr double kSlackUs = 1e-3;
  std::map<uint64_t, const obs::TraceEvent*> by_id;
  for (const obs::TraceEvent& e : events) by_id[e.id] = &e;
  for (const obs::TraceEvent& e : events) {
    const obs::TraceEvent* root = &e;
    while (root->parent_id != 0 && by_id.count(root->parent_id) > 0) {
      root = by_id[root->parent_id];
    }
    if (root == &e) continue;
    ASSERT_EQ(root->parent_id, 0u) << e.name << " has no recorded root";
    EXPECT_GE(e.start_us, root->start_us - kSlackUs)
        << e.name << " starts before " << root->name;
    EXPECT_LE(e.start_us + e.dur_us, root->start_us + root->dur_us + kSlackUs)
        << e.name << " ends after " << root->name;
  }
}

}  // namespace esharp::testing

#endif  // ESHARP_TESTS_SPAN_SHAPES_H_
