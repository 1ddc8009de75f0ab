#include "measure.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

Quartiles
quartiles(std::vector<double> values)
{
    const long ld = static_cast<long>(values.size());
    if (ld < 2)
        throw std::invalid_argument("quartiles need two values");
    std::sort(values.begin(), values.end());
    // statistics.quantiles(method='exclusive'), integer-exact.
    const long n = 4;
    const long m = ld + 1;
    double out[3] = {};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                      values[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return {out[0], out[1], out[2]};
}

double
iqrShare(const std::vector<double> &values)
{
    const Quartiles q = quartiles(values);
    return q.q2 != 0.0 ? (q.q3 - q.q1) / q.q2 : 0.0;
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("interquartile mean of no values");
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < values.size() - cut; ++i)
        sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * cut);
}

Percentile
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        throw std::invalid_argument("percentile of no values");
    if (!(pct > 0.0 && pct <= 100.0))
        throw std::invalid_argument("percentile out of range");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    Percentile p;
    p.pct = pct;
    p.value = values[rank - 1];
    p.samples = n;
    p.beyond = n - rank;
    return p;
}

std::string
describe(const std::string &name, const Percentile &p,
         const std::string &unit)
{
    char buf[256];
    if (p.resolved())
        std::snprintf(buf, sizeof buf,
                      "%s p%g = %.4f %s (n=%zu, %zu beyond)",
                      name.c_str(), p.pct, p.value, unit.c_str(),
                      p.samples, p.beyond);
    else
        std::snprintf(buf, sizeof buf,
                      "%s p%g UNRESOLVED (n=%zu, only %zu beyond, "
                      "need %zu)",
                      name.c_str(), p.pct, p.samples, p.beyond,
                      kMinBeyond);
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
