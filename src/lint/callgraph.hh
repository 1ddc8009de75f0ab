/**
 * @file
 * Cross-file call graph over the parsed file models.
 *
 * Functions are indexed by their unqualified name: the recognizer
 * cannot resolve overloads or receiver types, so a call site
 * `ch.runAll(...)` links to every definition named `runAll` in the
 * analyzed set. That is deliberately conservative — taint flows to
 * every plausible callee — and cheap, because this codebase names
 * its entry points uniquely.
 *
 * The graph is built in one pass over files in their (already
 * sorted) input order, so edge ordering — and therefore taint
 * worklist ordering and report bytes — never depends on directory
 * enumeration order.
 */

#ifndef NETCHAR_LINT_CALLGRAPH_HH
#define NETCHAR_LINT_CALLGRAPH_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/parser.hh"

namespace netchar::lint
{

/**
 * True when qualified name `def` equals `call` or ends with the
 * `::` components of `call` (`a::ns::f` matches call spellings
 * `ns::f` and `f`, but `XParser::parse` does not match
 * `Parser::parse`: the suffix must sit behind a `::` boundary).
 */
bool qualifiedSuffixMatches(const std::string &def,
                            const std::string &call);

/** Index of one function: (file index, function index). */
struct FunctionRef
{
    std::size_t file = 0;
    std::size_t fn = 0;
};

/** Link statistics, surfaced in the JSON `callGraph` object: how
 *  many call sites exist and how many failed to link to any
 *  definition in the analyzed set. */
struct CallGraphStats
{
    std::size_t callSites = 0;
    std::size_t unresolvedCalls = 0;
};

/** Name → definitions, over a parsed file set. */
class CallGraph
{
  public:
    explicit CallGraph(const std::vector<FileModel> &files);

    /**
     * Definitions a call site can reach, in file order. A call
     * written with a qualifier (`serve::parseJson(...)`) links only
     * to definitions whose own qualified spelling ends with the
     * same `::` components, so `ns::f()` no longer links to every
     * unrelated `f`. Bare and member calls keep the conservative
     * all-definitions-of-the-name behavior.
     */
    std::vector<FunctionRef> resolve(const CallSite &call) const;

    const CallGraphStats &stats() const { return stats_; }

  private:
    std::map<std::string, std::vector<FunctionRef>> defs_;
    /** Qualified spelling of each definition, parallel to defs_. */
    std::map<std::string, std::vector<std::string>> defQualified_;
    CallGraphStats stats_;
};

} // namespace netchar::lint

#endif // NETCHAR_LINT_CALLGRAPH_HH
