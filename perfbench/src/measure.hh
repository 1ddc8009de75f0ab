/**
 * @file
 * The benchmark's own statistics: medians, quartiles (the same
 * "exclusive" method as Python's statistics.quantiles, so the spread
 * the benchmark reports is the spread an outside check computes) and
 * nearest-rank percentiles that carry their sample counts.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host seconds (steady clock). */
double nowSeconds();

/** Median of `values` (mean of the middle pair for even counts).
 *  Throws std::invalid_argument on an empty input. */
double median(std::vector<double> values);

/** First quartile, median and third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double q2 = 0.0;
    double q3 = 0.0;
};

/** Quartiles by Python's statistics.quantiles(values, n=4) default
 *  ("exclusive") method. Throws on fewer than two values. */
Quartiles quartiles(std::vector<double> values);

/** (q3 - q1) / median: the run-to-run spread as a share. */
double iqrShare(const std::vector<double> &values);

/** Interquartile mean: the mean of `values` without the lowest and
 *  the highest n/4 (rounded down). Throws on an empty input. */
double interquartileMean(std::vector<double> values);

/** Fewest samples a reported percentile must have beyond it. */
inline constexpr std::size_t kMinBeyond = 10;

/** One nearest-rank percentile with the counts that qualify it. */
struct Percentile
{
    double pct = 0.0;
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples ranked strictly above the percentile's rank. */
    std::size_t beyond = 0;

    /** True when at least kMinBeyond samples lie beyond it. */
    bool resolved() const { return beyond >= kMinBeyond; }
};

/** Nearest-rank percentile `pct` (0 < pct <= 100) of `values`.
 *  Throws on an empty input or an out-of-range pct. */
Percentile percentile(std::vector<double> values, double pct);

/** "name p99 = 42.1 ms (n=5616, 56 beyond)" or, when unresolved,
 *  "name p99 UNRESOLVED (n=..., only k beyond, need 10)". */
std::string describe(const std::string &name, const Percentile &p,
                     const std::string &unit);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
