/**
 * @file
 * Self-tests of the benchmark's own machinery: median, quartiles
 * (checked against values Python's statistics.quantiles gives), the
 * interquartile mean, nearest-rank percentiles and their sample counts, the seeded
 * schedules, and the client process's hand-back of its results. Run by `python3 perfbench/run.py --selftest` or ctest
 * in the benchmark's build directory.
 */

#include <cmath>
#include <limits>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hh"
#include "plan.hh"
#include "serve_phase.hh"

namespace
{

using namespace perfbench;

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

template <typename F>
void
expectThrows(F &&f, const std::string &what)
{
    try {
        f();
    } catch (const std::invalid_argument &) {
        return;
    }
    expect(false, what + " did not throw");
}

std::vector<double>
range(int from, int to)
{
    std::vector<double> v;
    for (int i = from; i <= to; ++i)
        v.push_back(i);
    return v;
}

void
testMedian()
{
    expectNear(median({3, 1, 2}), 2, "odd median");
    expectNear(median({4, 1, 3, 2}), 2.5, "even median");
    expectNear(median({7}), 7, "single median");
    expectThrows([] { median({}); }, "empty median");
}

void
testQuartiles()
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles(range(1, 10));
    expectNear(q.q1, 2.75, "q1 of 1..10");
    expectNear(q.q2, 5.5, "q2 of 1..10");
    expectNear(q.q3, 8.25, "q3 of 1..10");
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    q = quartiles({4, 2, 3, 1});
    expectNear(q.q1, 1.25, "q1 of 1..4 (unsorted input)");
    expectNear(q.q2, 2.5, "q2 of 1..4");
    expectNear(q.q3, 3.75, "q3 of 1..4");
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    q = quartiles({1, 2});
    expectNear(q.q1, 0.75, "q1 of two values");
    expectNear(q.q3, 2.25, "q3 of two values");
    expectThrows([] { quartiles({1}); }, "quartiles of one value");
    // (8.25 - 2.75) / 5.5
    expectNear(iqrShare(range(1, 10)), 1.0, "iqr share of 1..10");
    expectNear(iqrShare({5, 5, 5, 5}), 0.0, "iqr share of constants");
}

void
testInterquartileMean()
{
    // 1..10 without 1, 2 and 9, 10: mean of 3..8
    expectNear(interquartileMean(range(1, 10)), 5.5, "iqm of 1..10");
    // An outlier in the top quarter does not move it.
    expectNear(interquartileMean({1000, 2, 3, 1}), 2.5,
               "iqm drops the outer quarters (unsorted input)");
    expectNear(interquartileMean({1, 2, 4}), 7.0 / 3.0,
               "iqm of fewer than four values is their mean");
    expectThrows([] { interquartileMean({}); }, "empty iqm");
}

void
testPercentile()
{
    const auto v = range(1, 100);
    Percentile p = percentile(v, 50);
    expectNear(p.value, 50, "p50 of 1..100");
    expect(p.samples == 100 && p.beyond == 50, "p50 counts");
    p = percentile(v, 90);
    expectNear(p.value, 90, "p90 of 1..100");
    expect(p.beyond == 10 && p.resolved(), "p90 of 100 is resolved");
    p = percentile(v, 99);
    expect(p.beyond == 1 && !p.resolved(), "p99 of 100 is unresolved");
    p = percentile(range(1, 1000), 99);
    expect(p.beyond == 10 && p.resolved(), "p99 of 1000 is resolved");
    p = percentile(range(1, 1000), 99.9);
    expect(p.beyond == 1 && !p.resolved(), "p99.9 of 1000 unresolved");
    p = percentile({5}, 100);
    expectNear(p.value, 5, "p100 of one value");
    expect(describe("x", percentile(v, 99), "ms").find("UNRESOLVED") !=
               std::string::npos,
           "unresolved percentile is described as such");
    expectThrows([] { percentile({}, 50); }, "percentile of nothing");
    expectThrows([] { percentile({1}, 0); }, "p0");
    expectThrows([] { percentile({1}, 101); }, "p101");
}

void
testSchedules()
{
    const std::size_t hot = 17;
    const std::size_t pool = 234;
    const auto a = buildSchedules(hot, pool, 7);
    const auto b = buildSchedules(hot, pool, 7);
    const auto c = buildSchedules(hot, pool, 8);
    expect(renderSchedules(a) == renderSchedules(b),
           "same seed, same schedule bytes");
    expect(renderSchedules(a) != renderSchedules(c),
           "different seeds, different schedules");
    expect(a.size() == kClients, "one schedule per client");

    std::size_t hits = 0;
    std::multiset<std::uint32_t> misses;
    bool inRange = true;
    for (const auto &client : a)
        for (const Op &op : client) {
            if (op.miss)
                misses.insert(op.key);
            else
                ++hits;
            inRange = inRange && op.key < (op.miss ? pool : hot);
        }
    expect(inRange, "schedule keys in range");
    expect(hits == pool * kHitsPerMiss, "hit count equals the schedule");
    expect(misses.size() == pool, "miss count equals the pool");
    expect(std::set<std::uint32_t>(misses.begin(), misses.end()).size() ==
               pool,
           "every pool key is a miss exactly once");

    auto order = seededOrder(50, 3);
    expect(std::set<std::size_t>(order.begin(), order.end()).size() == 50,
           "seeded order is a permutation");
    expect(order != seededOrder(50, 4), "seeded order depends on seed");
    expectThrows([] { buildSchedules(0, 3, 1); }, "schedule of no keys");
}

void
testPlans()
{
    for (const auto &name : workloadNames()) {
        const WorkloadPlan plan = workloadPlan(name);
        const std::size_t hits = plan.pool.size() * kHitsPerMiss;
        // Every reported percentile must be resolvable by the plan.
        expect(percentile(std::vector<double>(plan.pool.size(), 1.0), 90)
                   .resolved(),
               name + ": miss p90 resolvable");
        expect(percentile(std::vector<double>(hits, 1.0), 99).resolved(),
               name + ": hit p99 resolvable");
        std::set<std::string> ids;
        for (const auto *set : {&plan.hot, &plan.pool})
            for (const RunKey &k : *set)
                ids.insert(keyId(k));
        expect(ids.size() == plan.hot.size() + plan.pool.size(),
               name + ": keys are distinct");
    }
    expect(!workloadPlan("serve-mix").hot.empty(), "serve-mix hot set");
    const WorkloadPlan spec = workloadPlan("sweep-spec");
    const auto hot = hotKeys(spec, 5);
    expect(hot.size() == sweptProfiles(spec, 5).size() && hot.size() == 20,
           "a sweep hits its own 20 rows");
    expect(hot.front().benchmark != hotKeys(spec, 6).front().benchmark ||
               hot.back().benchmark != hotKeys(spec, 6).back().benchmark,
           "the sweep order depends on the seed");
    expectThrows([] { workloadPlan("nope"); }, "unknown workload");
}

/** The client process's results survive the trip to the parent. */
void
testClientRun()
{
    ServeRun sent;
    sent.wall = 13.25;
    sent.hitMs = {0.125, 51.5};
    sent.missMs = {42.0, std::numeric_limits<double>::infinity()};
    Tally counted;
    counted.attempted = 4;
    counted.ok = 3;
    ServeRun got;
    Tally tally;
    tally.attempted = 1;
    tally.ok = 1;
    expect(parseClientRun(renderClientRun(sent, counted), got, tally),
           "client run parses");
    expect(got.wall == sent.wall && got.hitMs == sent.hitMs &&
               got.missMs == sent.missMs,
           "client run round-trips every latency, inf included");
    expect(tally.attempted == 5 && tally.ok == 4,
           "client tally adds to the run's");
    for (const std::string bad :
         {"", "tally 1 2\nwall 1\n", "tally 2 1\nhit 1\n",
          "tally 2 1\nwall 1\nput 3\n"}) {
        ServeRun r;
        Tally t;
        expect(!parseClientRun(bad, r, t), "malformed client run refused");
    }
}

} // namespace

int
main()
{
    testMedian();
    testQuartiles();
    testInterquartileMean();
    testPercentile();
    testSchedules();
    testPlans();
    testClientRun();
    if (failures != 0) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench selftest: ok\n");
    return 0;
}
