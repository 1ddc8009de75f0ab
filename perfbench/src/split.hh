/**
 * @file
 * Outside-in layer split of one characterization run.
 *
 * runSplit() performs exactly the work of Characterizer::run, through
 * the public calls of the layers below it, and times each call:
 *
 *  - workloads.build: sim::Machine, SynthWorkload::makeClr and the
 *    SynthWorkload constructors;
 *  - workloads.warm_start: each core's first SynthWorkload::run(core,
 *    1), which prefaults, ages the heap, tier-0 JITs and preloads the
 *    LLC;
 *  - sim.window: the rest of the warmup and the measured window, in
 *    the same quantum chunks as the characterizer.
 *
 * Its RunResult must equal Characterizer::run's bit for bit; the
 * golden digests check that on every run.
 */

#ifndef PERFBENCH_SPLIT_HH
#define PERFBENCH_SPLIT_HH

#include <cstdint>

#include "core/characterize.hh"

namespace perfbench
{

/** Host seconds per layer, summed over runs. */
struct LayerTimes
{
    double build = 0.0;
    double warmStart = 0.0;
    double window = 0.0;
    /** Instructions simulated inside `window` (all cores). */
    std::uint64_t windowInstructions = 0;

    double total() const { return build + warmStart + window; }
    void add(const LayerTimes &other);
};

/** Exact simulated counts over measured windows, summed over runs. */
struct SimCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t itlbMisses = 0;
    std::uint64_t dtlbMisses = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t gcTriggered = 0;
    std::uint64_t jitStarted = 0;

    void add(const netchar::RunResult &result);
};

/** Instructions a run simulates: warmup plus measured window, per
 *  core. */
std::uint64_t simulatedInstructions(const netchar::wl::WorkloadProfile &p,
                                    const netchar::RunOptions &options);

/** Characterizer::run, decomposed and timed (see the file comment).
 *  Supports the run options the benchmark uses: no GC, heap or
 *  allocation overrides and no cycle budget. */
netchar::RunResult runSplit(const netchar::sim::MachineConfig &config,
                            const netchar::wl::WorkloadProfile &profile,
                            const netchar::RunOptions &options,
                            LayerTimes &times);

} // namespace perfbench

#endif // PERFBENCH_SPLIT_HH
