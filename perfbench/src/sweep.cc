#include "sweep.hh"

#include "core/export.hh"
#include "core/subset.hh"
#include "measure.hh"

namespace perfbench
{

using namespace netchar;

std::vector<std::string>
csvRows(const std::string &csv)
{
    std::vector<std::string> rows;
    std::size_t start = csv.find('\n');
    while (start != std::string::npos && start + 1 < csv.size()) {
        const std::size_t end = csv.find('\n', start + 1);
        rows.push_back(csv.substr(start + 1, end == std::string::npos
                                                 ? std::string::npos
                                                 : end - start - 1));
        start = end;
    }
    return rows;
}

SweepPass
sweepPass(const Characterizer &ch,
          const std::vector<wl::WorkloadProfile> &profiles,
          const Golden &golden, Tally &tally, bool traced)
{
    const RunOptions options;
    std::vector<std::string> names;
    SweepPass pass;
    for (const auto &p : profiles) {
        names.push_back(p.name);
        pass.simInstructions += simulatedInstructions(p, options);
    }

    std::string csv;
    SuiteRunStats stats;
    const double t0 = nowSeconds();
    if (traced) {
        for (const auto &p : profiles)
            pass.results.push_back(
                runSplit(ch.config(), p, options, pass.layers));
        const double e0 = nowSeconds();
        csv = metricsCsv(names, pass.results);
        pass.exportSeconds = nowSeconds() - e0;
    } else {
        Parallelism par;
        par.jobs = 1;
        pass.results = ch.runAll(profiles, options, par, &stats);
        csv = metricsCsv(names, pass.results);
    }
    pass.wall = nowSeconds() - t0;

    if (traced) {
        for (const auto &r : pass.results)
            pass.counts.add(r);
        std::vector<MetricVector> rows;
        for (const auto &r : pass.results)
            rows.push_back(r.metrics);
        const double s0 = nowSeconds();
        const SubsetResult subset = buildSubset(rows);
        pass.subsetSeconds = nowSeconds() - s0;
        if (subset.representatives.empty())
            tally.fail("buildSubset returned no representatives");
    }

    const auto rows = csvRows(csv);
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (!traced && !stats.runs[i].succeeded)
            tally.fail("sweep/" + names[i] + ": run failed: " +
                       stats.runs[i].error);
        else if (i >= rows.size())
            tally.fail("sweep/" + names[i] + ": no CSV row");
        else
            tally.check(golden, "sweep/" + names[i], rows[i]);
    }
    return pass;
}

} // namespace perfbench
