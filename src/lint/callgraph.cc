#include "lint/callgraph.hh"

namespace netchar::lint
{

bool
qualifiedSuffixMatches(const std::string &def,
                       const std::string &call)
{
    if (def == call)
        return true;
    // The suffix must be preceded by a full `::` separator, so any
    // shorter definition — including one exactly one character
    // longer than the call, where the old `<=` guard let the
    // separator position underflow — cannot match.
    if (def.size() < call.size() + 2)
        return false;
    return def.compare(def.size() - call.size(), call.size(),
                       call) == 0 &&
           def.compare(def.size() - call.size() - 2, 2, "::") == 0;
}

CallGraph::CallGraph(const std::vector<FileModel> &files)
{
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const FileModel &file = files[fi];
        for (std::size_t gi = 0; gi < file.functions.size(); ++gi) {
            const FunctionModel &fn = file.functions[gi];
            defs_[fn.name].push_back({fi, gi});
            defQualified_[fn.name].push_back(
                fn.qualified.empty() ? fn.name : fn.qualified);
        }
    }
    // Second pass, once every definition is known: the
    // resolved/unresolved link statistics.
    for (const FileModel &file : files)
        for (const FunctionModel &fn : file.functions)
            for (const Statement &st : fn.stmts)
                for (const CallSite &call : st.calls) {
                    ++stats_.callSites;
                    if (resolve(call).empty())
                        ++stats_.unresolvedCalls;
                }
}

std::vector<FunctionRef>
CallGraph::resolve(const CallSite &call) const
{
    const auto it = defs_.find(call.callee);
    if (it == defs_.end())
        return {};
    const std::vector<FunctionRef> &all = it->second;
    if (call.qualified.empty() || call.qualified == call.callee)
        return all;
    const std::vector<std::string> &quals =
        defQualified_.at(call.callee);
    std::vector<FunctionRef> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (qualifiedSuffixMatches(quals[i], call.qualified))
            out.push_back(all[i]);
    // Definitions written inside `namespace ns { ... }` carry no
    // `ns::` in their spelling, so a qualified call may match none
    // of them textually; keep the conservative bare-name link set
    // rather than dropping the edge.
    return out.empty() ? all : out;
}

} // namespace netchar::lint
