/**
 * @file
 * Interprocedural summary tests (summary.hh): taint transfer
 * computed bottom-up over call-graph SCCs.
 *
 * The recursion fixtures are the important ones: a self-recursive
 * function and a mutually-recursive pair exercise the SCC fixpoint
 * (termination plus soundness — taint that flows through a cycle's
 * base case is still reported). The cross-function fixture pins the
 * class of finding that is invisible without summaries: a taint
 * chain laundered through a helper for each of several callers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/lint.hh"
#include "lint/summary.hh"

namespace
{

using netchar::lint::FileModel;
using netchar::lint::Finding;
using netchar::lint::FlowHop;
using netchar::lint::LintResult;
using netchar::lint::lintSources;
using netchar::lint::renderJson;
using netchar::lint::SourceBuffer;

std::vector<Finding>
flowsOf(const LintResult &r)
{
    std::vector<Finding> out;
    for (const Finding &f : r.findings)
        if (!f.path.empty())
            out.push_back(f);
    return out;
}

bool
anyHopMentions(const Finding &f, std::string_view needle)
{
    for (const FlowHop &h : f.path)
        if (h.note.find(needle) != std::string::npos)
            return true;
    return false;
}

// ---------------------------------------------------------------
// taint through recursion
// ---------------------------------------------------------------

TEST(Summary, TaintThroughMutualRecursionCycle)
{
    // pingf/pongf form a 2-cycle; the taint escapes through the
    // cycle's base case (`return n` in pongf), so the param→return
    // summary of both members must reach the fixpoint and the
    // caller's clock value must be reported at the sink.
    const auto r = lintSources(
        {{"bench/cycle.cc",
          "double pingf(int n) {\n"
          "  return pongf(n);\n"
          "}\n"
          "double pongf(int n) {\n"
          "  if (n > 1)\n"
          "    return pingf(n - 1);\n"
          "  return n;\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  double v = pingf(t);\n"
          "  row += csvField(v);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_GE(flows.size(), 1u);
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    // The composed path names the entry point of the callee chain
    // (the cycle's interior is summarized, not unrolled).
    EXPECT_TRUE(anyHopMentions(flows[0], "pingf"));
    // The cycle registered as one SCC of size 2 and took at least
    // one extra fixpoint pass to converge.
    EXPECT_EQ(r.summaries.largestScc, 2u);
    EXPECT_GE(r.summaries.fixpointPasses, 1u);
    EXPECT_GE(r.summaries.paramReturnFlows, 2u);
}

TEST(Summary, TaintThroughSelfRecursionTerminates)
{
    const auto r = lintSources(
        {{"bench/spin.cc",
          "double spinf(double x) {\n"
          "  if (x > 0)\n"
          "    return spinf(x - 1);\n"
          "  return x;\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  row += csvField(spinf(t));\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_GE(flows.size(), 1u);
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    EXPECT_TRUE(anyHopMentions(flows[0], "spinf"));
    EXPECT_EQ(r.summaries.largestScc, 1u);
}

TEST(Summary, BaselessCycleTerminatesAndStaysConservative)
{
    // A pure 2-cycle with no base case: the fixpoint must terminate,
    // and the token-level transfer deliberately over-approximates —
    // a parameter used in a return expression taints the return, so
    // exactly one (conservative) flow is reported rather than none.
    const auto r = lintSources(
        {{"bench/loop.cc",
          "double foreverA(int n) {\n"
          "  return foreverB(n);\n"
          "}\n"
          "double foreverB(int n) {\n"
          "  return foreverA(n);\n"
          "}\n"
          "void emit() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  row += csvField(foreverA(t));\n"
          "}\n"}});
    EXPECT_EQ(flowsOf(r).size(), 1u);
    EXPECT_EQ(r.summaries.largestScc, 2u);
}

// ---------------------------------------------------------------
// cross-function taint (previously invisible)
// ---------------------------------------------------------------

TEST(Summary, TwoCallersLaunderThroughOneHelper)
{
    // One identity helper, two callers with different sources: the
    // per-caller summary composition must report BOTH flows, each
    // with its own source — a whole-program first-writer-wins pass
    // collapses them to one.
    const auto r = lintSources(
        {{"bench/helper.cc",
          "double shape(double v) {\n"
          "  return v;\n"
          "}\n"},
         {"bench/one.cc",
          "void emitOne() {\n"
          "  auto t = std::chrono::steady_clock::now()\n"
          "               .time_since_epoch().count();\n"
          "  double a = shape(t);\n"
          "  row += csvField(a);\n"
          "}\n"},
         {"bench/two.cc",
          "void emitTwo() {\n"
          "  int s = rand();\n"
          "  double b = shape(s);\n"
          "  row += csvField(b);\n"
          "}\n"}});
    const auto flows = flowsOf(r);
    ASSERT_EQ(flows.size(), 2u);
    // Sorted by sink file: one.cc (wallclock) before two.cc (rng).
    EXPECT_EQ(flows[0].rule, "flow-wallclock");
    EXPECT_EQ(flows[0].file, "bench/one.cc");
    EXPECT_EQ(flows[1].rule, "flow-rng");
    EXPECT_EQ(flows[1].file, "bench/two.cc");
    EXPECT_TRUE(anyHopMentions(flows[0], "shape"));
    EXPECT_TRUE(anyHopMentions(flows[1], "shape"));
    // The helper's hops land in the helper's file.
    EXPECT_TRUE([&] {
        for (const FlowHop &h : flows[0].path)
            if (h.file == "bench/helper.cc")
                return true;
        return false;
    }());
}

// ---------------------------------------------------------------
// determinism and report schema
// ---------------------------------------------------------------

TEST(Summary, ReportByteIdenticalAcrossBufferOrder)
{
    const std::vector<SourceBuffer> fixtures = {
        {"bench/helper.cc",
         "double shape(double v) {\n  return v;\n}\n"},
        {"bench/one.cc",
         "void emitOne() {\n"
         "  auto t = std::chrono::steady_clock::now()\n"
         "               .time_since_epoch().count();\n"
         "  row += csvField(shape(t));\n"
         "}\n"},
        {"bench/cycle.cc",
         "double pingf(int n) {\n"
         "  return pongf(n);\n"
         "}\n"
         "double pongf(int n) {\n"
         "  if (n > 1)\n"
         "    return pingf(n - 1);\n"
         "  return n;\n"
         "}\n"},
    };
    std::vector<SourceBuffer> reversed(fixtures.rbegin(),
                                       fixtures.rend());
    const std::string a = renderJson(lintSources(fixtures));
    const std::string b = renderJson(lintSources(reversed));
    EXPECT_EQ(a, b);
}

TEST(Summary, JsonCarriesSummariesObject)
{
    const auto r = lintSources(
        {{"bench/helper.cc",
          "double shape(double v) {\n  return v;\n}\n"}});
    const std::string json = renderJson(r);
    EXPECT_NE(json.find("\"version\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"summaries\": {\"functions\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"paramReturnFlows\": 1"),
              std::string::npos);
    // Stats are opt-in: never present in the plain rendering.
    EXPECT_EQ(json.find("\"stats\""), std::string::npos);
}

} // namespace
