#include "split.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/metrics.hh"
#include "measure.hh"
#include "sim/machine.hh"
#include "workloads/synth.hh"

namespace perfbench
{

using namespace netchar;

void
LayerTimes::add(const LayerTimes &other)
{
    build += other.build;
    warmStart += other.warmStart;
    window += other.window;
    windowInstructions += other.windowInstructions;
}

void
SimCounts::add(const RunResult &r)
{
    const sim::PerfCounters &c = r.counters;
    instructions += c.instructions;
    l1iMisses += c.l1iMisses;
    l1dMisses += c.l1dMisses;
    llcMisses += c.llcMisses;
    itlbMisses += c.itlbMisses;
    dtlbMisses += c.dtlbLoadMisses + c.dtlbStoreMisses;
    branchMisses += c.branchMisses;
    prefetchesIssued += c.prefetchesIssued;
    gcTriggered += r.events.gcTriggered;
    jitStarted += r.events.jitStarted;
}

std::uint64_t
simulatedInstructions(const wl::WorkloadProfile &p,
                      const RunOptions &options)
{
    const std::uint64_t measured = options.measuredInstructions > 0
        ? options.measuredInstructions
        : p.instructions;
    return (options.warmupInstructions + measured) * options.cores;
}

namespace
{

/** Run `count` instructions per core in the characterizer's quantum
 *  chunks; `first` marks the run's very first chunk, whose first
 *  instruction per core is timed separately as the warm start. */
void
advance(sim::Machine &machine,
        std::vector<std::unique_ptr<wl::SynthWorkload>> &workloads,
        std::uint64_t count, std::uint64_t quantum, bool first,
        LayerTimes &times)
{
    std::uint64_t done = 0;
    while (done < count) {
        const std::uint64_t step =
            std::min<std::uint64_t>(quantum, count - done);
        for (unsigned c = 0; c < machine.coreCount(); ++c) {
            // SynthWorkload::run steps instruction by instruction,
            // so run(1) + run(step - 1) is run(step) exactly.
            std::uint64_t rest = step;
            if (first && done == 0) {
                const double t0 = nowSeconds();
                workloads[c]->run(machine.core(c), 1);
                times.warmStart += nowSeconds() - t0;
                rest = step - 1;
            }
            const double t0 = nowSeconds();
            workloads[c]->run(machine.core(c), rest);
            times.window += nowSeconds() - t0;
            times.windowInstructions += rest;
        }
        done += step;
    }
}

} // namespace

RunResult
runSplit(const sim::MachineConfig &config,
         const wl::WorkloadProfile &raw, const RunOptions &options,
         LayerTimes &times)
{
    if (options.gcMode || options.gcAssist || options.maxHeapBytes ||
        options.allocScale != 1.0 || options.runBudgetCycles != 0)
        throw std::invalid_argument(
            "runSplit: run overrides are not supported");
    // Characterizer::applyOverrides with no overrides set.
    wl::WorkloadProfile profile = raw;
    if (profile.managed && profile.maxHeapBytes < profile.dataFootprint)
        profile.dataFootprint = profile.maxHeapBytes;
    profile.validate();

    double t0 = nowSeconds();
    auto machine = std::make_unique<sim::Machine>(config, options.cores,
                                                  options.seed,
                                                  options.noc);
    machine->setJitHintEnabled(options.jitHint);
    const wl::SpreadFactors spread{config.codeSpreadFactor,
                                   config.dataSpreadFactor};
    std::shared_ptr<rt::Clr> clr;
    if (profile.managed)
        clr = wl::SynthWorkload::makeClr(profile,
                                         profile.seed ^ options.seed,
                                         spread);
    std::vector<std::unique_ptr<wl::SynthWorkload>> workloads;
    for (unsigned c = 0; c < machine->coreCount(); ++c)
        workloads.push_back(std::make_unique<wl::SynthWorkload>(
            profile, options.seed * 1000003ULL + c, clr, spread));
    times.build += nowSeconds() - t0;

    advance(*machine, workloads, options.warmupInstructions,
            options.quantum, true, times);

    const auto snapCounters = machine->totalCounters();
    const auto snapSlots = machine->totalSlots();
    const auto snapEvents =
        clr ? clr->trace().counts() : rt::RuntimeEventCounts{};
    const double snapSeconds = machine->seconds();

    const std::uint64_t measured = options.measuredInstructions > 0
        ? options.measuredInstructions
        : profile.instructions;
    advance(*machine, workloads, measured, options.quantum,
            options.warmupInstructions == 0, times);

    RunResult result;
    result.counters = machine->totalCounters().delta(snapCounters);
    result.slots = machine->totalSlots().delta(snapSlots);
    result.events = clr ? clr->trace().counts().delta(snapEvents)
                        : rt::RuntimeEventCounts{};
    result.seconds = machine->seconds() - snapSeconds;
    result.metrics = computeMetrics(result.counters, result.events,
                                    profile.cpuUtil, result.seconds);
    result.instructionsPerSecond = result.seconds > 0.0
        ? static_cast<double>(result.counters.instructions) /
              result.seconds
        : 0.0;
    return result;
}

} // namespace perfbench
