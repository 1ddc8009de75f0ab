/**
 * @file
 * Child processes of the benchmark program: another instance of
 * netchar_perfbench, started in a role (a set-up probe, or the serve
 * phase's clients) and waited for.
 */

#ifndef PERFBENCH_CHILD_HH
#define PERFBENCH_CHILD_HH

#include <string>
#include <vector>

namespace perfbench
{

/** What a child run of this program left behind. */
struct ChildRun
{
    /** Exit status, or -1 when a signal ended it. */
    int exitCode = -1;
    /** Everything it wrote to stdout (its stderr is shared). */
    std::string out;
    /** nowSeconds() just before the child was spawned. */
    double spawnedAt = 0.0;
};

/** Run this program again with `args`, read its stdout to the end
 *  and wait for it to exit. Throws std::system_error when it cannot
 *  be started. */
ChildRun runSelf(const std::vector<std::string> &args);

} // namespace perfbench

#endif // PERFBENCH_CHILD_HH
