/**
 * @file
 * Interprocedural function summaries for netchar-lint.
 *
 * A per-function analysis loses a taint at every call boundary.
 * This module computes, once per function, a closed *summary* of its
 * taint transfer, so callers compose it instead of inlining: whether
 * a nondeterminism source inside the body reaches the return value
 * (`returnTaint`), which parameters flow to the return value
 * (`paramToReturn`), and which parameters reach a serialization sink
 * anywhere in the body — directly or through further calls
 * (`paramSinks`).
 *
 * Summaries are computed bottom-up over the Tarjan strongly-
 * connected components of the call graph: a function's summary only
 * depends on summaries of its callees, so processing SCCs in
 * reverse topological order needs a fixpoint only *inside* a cycle.
 * Within an SCC the taint slots are fill-once (monotone growth ⇒
 * guaranteed termination) under a deterministic iteration cap.
 *
 * Consumer: taint.cc composes `paramSinks`/`returnTaint` at call
 * sites so a source→sink chain spanning any number of helper
 * functions is reported without inlining.
 *
 * Determinism contract (same as every lint layer): files arrive in
 * sorted order, SCC member order and every container iteration is
 * fixed, so identical inputs produce identical summaries — and
 * identical reports — on every run.
 */

#ifndef NETCHAR_LINT_SUMMARY_HH
#define NETCHAR_LINT_SUMMARY_HH

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lint/callgraph.hh"
#include "lint/parser.hh"
#include "lint/rules.hh"

namespace netchar::lint
{

// ---------------------------------------------------------------
// Shared taint vocabulary (one source model for every consumer)
// ---------------------------------------------------------------

/** One nondeterminism source occurrence inside a token range. */
struct TaintSourceHit
{
    std::size_t tok = 0;
    std::string_view rule;
    std::string what; ///< human-readable source description
};

/** All nondeterminism sources inside [begin, end). */
std::vector<TaintSourceHit>
scanTaintSources(const std::vector<Token> &toks, std::size_t begin,
                 std::size_t end);

/** True when `name` is a serialization-surface sink function. */
bool isTaintSinkName(std::string_view name);

/** True when `name` is a run-ledger field sanctioned to carry host
 *  wall time (assignments into it stop the flow). */
bool isLedgerWhitelistedField(std::string_view name);

/** Token rule whose allow() pragma also sanitizes the flow rule's
 *  source site ("" when the flow rule has no token alias). */
std::string_view tokenRuleAliasFor(std::string_view flowRule);

/** One sanitizer pragma's coverage span for one flow rule. */
struct FlowSanitizer
{
    int line = 0;
    int endLine = 0;
    std::string rule;
};

/** The flow sanitizers of one file: allow-flow() pragmas plus
 *  allow(<token-alias>) pragmas, resolved to flow-rule names. */
std::vector<FlowSanitizer> collectFlowSanitizers(const LexedFile &lexed);

/** True when a sanitizer for `rule` covers `line` (a pragma covers
 *  its own span plus the line directly below). */
bool flowSanitizedAt(const std::vector<FlowSanitizer> &sanitizers,
                     int line, std::string_view rule);

// ---------------------------------------------------------------
// Per-function summaries
// ---------------------------------------------------------------

/** A concrete taint: which flow rule, and the hop path so far. */
struct ConcreteTaint
{
    std::string rule;
    std::vector<FlowHop> path;
};

/** One "parameter reaches a sink" fact: if the `param`-th parameter
 *  is tainted, the taint reaches `sinkCallee` at the recorded site.
 *  `hops` are the steps *inside* this function (and its callees),
 *  ending with the sink hop; the caller prepends its own path and
 *  the argument→parameter bridging hop. */
struct ParamSinkFlow
{
    std::size_t param = 0;
    std::string sinkCallee;
    std::size_t sinkArg = 0; ///< 0-based argument index at the sink
    std::string sinkFile;
    int sinkLine = 0;
    int sinkColumn = 0;
    std::vector<FlowHop> hops;
};

/** The closed summary of one function: its taint transfer. */
struct TaintSummary
{
    /** A source inside the body reaches the return value; the path
     *  ends with the "returned from" hop. */
    std::optional<ConcreteTaint> returnTaint;
    /** param index → hops from the parameter to the return value
     *  (ending with the "returned from" hop). */
    std::map<std::size_t, std::vector<FlowHop>> paramToReturn;
    /** Parameters that reach a serialization sink. */
    std::vector<ParamSinkFlow> paramSinks;
};

/** Aggregate statistics, surfaced in the schema-v5 JSON report. */
struct SummaryStats
{
    std::size_t functions = 0;
    std::size_t sccs = 0;
    std::size_t largestScc = 0;
    /** Total per-SCC passes beyond the first (cycle fixpoints). */
    std::size_t fixpointPasses = 0;
    std::size_t returnTaints = 0;
    std::size_t paramReturnFlows = 0;
    std::size_t paramSinkFlows = 0;
};

/** Summaries for every function of a parsed file set. */
class SummarySet
{
  public:
    const TaintSummary &of(FunctionRef ref) const
    {
        return byFile_[ref.file][ref.fn];
    }
    const SummaryStats &stats() const { return stats_; }

  private:
    friend SummarySet computeSummaries(const std::vector<FileModel> &,
                                       const CallGraph &);
    std::vector<std::vector<TaintSummary>> byFile_;
    SummaryStats stats_;
};

/** Compute summaries bottom-up over Tarjan SCCs of the call graph.
 *  `files` must already be in sorted path order; `graph` must have
 *  been built over the same `files`. */
SummarySet computeSummaries(const std::vector<FileModel> &files,
                            const CallGraph &graph);

// ---------------------------------------------------------------
// Concrete-flow enumeration (the taint pass's reporting engine)
// ---------------------------------------------------------------

/** One concrete source→sink flow discovered during reporting. */
struct SinkEvent
{
    std::string rule;
    std::vector<FlowHop> path; ///< source hop first, sink hop last
    std::string sinkFile;
    int sinkLine = 0;
    int sinkColumn = 0;
    std::string sinkCallee;
};

/**
 * Enumerate every concrete source→sink flow: per function, track
 * concrete taints through locals, and at each call compose the
 * callee's summary (`returnTaint`, `paramToReturn`, `paramSinks`)
 * instead of inlining. The callback decides suppression and
 * deduplication; events arrive in deterministic (file, function,
 * statement) order.
 */
void forEachConcreteFlow(const std::vector<FileModel> &files,
                         const CallGraph &graph,
                         const SummarySet &sums,
                         const std::function<void(SinkEvent)> &emit);

} // namespace netchar::lint

#endif // NETCHAR_LINT_SUMMARY_HH
