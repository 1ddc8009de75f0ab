/**
 * @file
 * One serial suite sweep: the library path of `netchar suite <s>
 * --jobs 1` (Characterizer::runAll + metricsCsv), every row checked
 * against its golden digest.
 */

#ifndef PERFBENCH_SWEEP_HH
#define PERFBENCH_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "golden.hh"
#include "split.hh"

namespace perfbench
{

struct SweepPass
{
    /** Host seconds of the pass (runs plus CSV export). */
    double wall = 0.0;
    /** Instructions simulated, warmup included. */
    std::uint64_t simInstructions = 0;
    /** One result per profile, in the order swept. */
    std::vector<netchar::RunResult> results;

    // Filled by the traced pass only.
    LayerTimes layers;
    SimCounts counts;
    double exportSeconds = 0.0;
    double subsetSeconds = 0.0;
};

/**
 * Sweep `profiles` serially on `ch` with default run options and
 * check each canonical CSV row against `sweep/<benchmark>`. The
 * traced pass runs each profile through runSplit() instead of
 * runAll, times metricsCsv, and then times buildSubset over the
 * metric matrix outside `wall`.
 */
SweepPass sweepPass(const netchar::Characterizer &ch,
                    const std::vector<netchar::wl::WorkloadProfile> &profiles,
                    const Golden &golden, Tally &tally, bool traced);

/** The canonical CSV rows of a sweep, header dropped, one per
 *  result. */
std::vector<std::string> csvRows(const std::string &csv);

} // namespace perfbench

#endif // PERFBENCH_SWEEP_HH
