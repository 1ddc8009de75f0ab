#include "plan.hh"

#include <stdexcept>
#include <utility>

#include "serve/protocol.hh"
#include "stats/hash.hh"
#include "workloads/registry.hh"

namespace perfbench
{

netchar::RunOptions
keyOptions(const RunKey &key)
{
    netchar::RunOptions o;
    if (key.seed) {
        o.warmupInstructions = kKeyWarmup;
        o.measuredInstructions = kKeyMeasure;
        o.seed = *key.seed;
    }
    return o;
}

std::string
keyId(const RunKey &key)
{
    return "run/" + key.benchmark + "/" +
           (key.seed ? std::to_string(*key.seed) : "default");
}

std::string
keyLine(const RunKey &key)
{
    netchar::serve::Request r;
    r.verb = netchar::serve::Verb::Run;
    r.benchmark = key.benchmark;
    r.options = keyOptions(key);
    return netchar::serve::requestLine(r);
}

namespace
{

std::vector<RunKey>
keysOf(const std::vector<netchar::wl::WorkloadProfile> &profiles,
       std::uint64_t firstSeed, std::uint64_t seeds)
{
    std::vector<RunKey> keys;
    for (std::uint64_t s = firstSeed; s < firstSeed + seeds; ++s)
        for (const auto &p : profiles)
            keys.push_back({p.name, s});
    return keys;
}

/**
 * Profiles whose data footprint is at most 32 MiB. A miss's warm
 * start preloads the whole footprint into the LLC, so the larger
 * SPEC profiles cost 100-420 ms a miss against 20-100 ms for every
 * other profile; keeping them out makes the misses one latency
 * class, so p50 and p90 sit inside it. The sweeps still run every
 * profile.
 */
std::vector<netchar::wl::WorkloadProfile>
smallFootprint(const std::vector<netchar::wl::WorkloadProfile> &profiles)
{
    std::vector<netchar::wl::WorkloadProfile> out;
    for (const auto &p : profiles)
        if (p.dataFootprint <= 32ULL * 1024 * 1024)
            out.push_back(p);
    return out;
}

/** Seed of the serve-mix hot keys; pool seeds start at 1. */
constexpr std::uint64_t kHotSeed = 1000;

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-spec", "sweep-dotnet", "serve-mix"};
    return names;
}

WorkloadPlan
workloadPlan(const std::string &name)
{
    using netchar::wl::Suite;
    WorkloadPlan plan;
    plan.name = name;
    if (name == "sweep-spec") {
        plan.sweep = Suite::SpecCpu17;
    } else if (name == "sweep-dotnet") {
        plan.sweep = Suite::DotNet;
    } else if (name == "serve-mix") {
        // Every 7th profile of the registry: a hot set spanning all
        // three suites.
        const auto all = netchar::wl::allProfiles();
        for (std::size_t i = 0; i < all.size(); i += 7)
            plan.hot.push_back({all[i].name, kHotSeed});
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    // Every workload serves the same miss pool: .NET, ASP.NET and
    // small-footprint SPEC keys, three seeds each. 318 misses give
    // p90 31 samples beyond it; 24 hits per miss give p99 76.
    for (const Suite suite : {Suite::DotNet, Suite::AspNet,
                              Suite::SpecCpu17}) {
        const auto keys = keysOf(
            smallFootprint(netchar::wl::suiteProfiles(suite)), 1, 3);
        plan.pool.insert(plan.pool.end(), keys.begin(), keys.end());
    }
    return plan;
}

namespace
{

/** Counter-based splitmix64 stream. */
struct SeededStream
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state += 0x9E3779B97F4A7C15ULL;
        return netchar::splitmix64(state);
    }

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }
};

template <typename T>
void
shuffle(std::vector<T> &v, SeededStream &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

} // namespace

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    SeededStream rng{netchar::splitmix64(seed)};
    shuffle(order, rng);
    return order;
}

std::vector<netchar::wl::WorkloadProfile>
sweptProfiles(const WorkloadPlan &plan, std::uint64_t seed)
{
    std::vector<netchar::wl::WorkloadProfile> out;
    if (!plan.sweep)
        return out;
    const auto suite = netchar::wl::suiteProfiles(*plan.sweep);
    for (const std::size_t i : seededOrder(suite.size(), seed))
        out.push_back(suite[i]);
    return out;
}

std::vector<RunKey>
hotKeys(const WorkloadPlan &plan, std::uint64_t seed)
{
    if (!plan.sweep)
        return plan.hot;
    std::vector<RunKey> keys;
    for (const auto &p : sweptProfiles(plan, seed))
        keys.push_back({p.name, std::nullopt});
    return keys;
}

std::vector<std::vector<Op>>
buildSchedules(std::size_t hotCount, std::size_t poolCount,
               std::uint64_t seed)
{
    if (hotCount == 0 || poolCount == 0)
        throw std::invalid_argument("schedule needs hot and pool keys");
    std::vector<std::vector<Op>> out(kClients);
    const auto misses = seededOrder(poolCount, seed);
    SeededStream rng{netchar::splitmix64(seed ^ 0x5ced5ced5ced5cedULL)};
    for (std::size_t i = 0; i < misses.size(); ++i) {
        auto &client = out[i % kClients];
        client.push_back({true, static_cast<std::uint32_t>(misses[i])});
        for (unsigned h = 0; h < kHitsPerMiss; ++h)
            client.push_back(
                {false, static_cast<std::uint32_t>(rng.below(hotCount))});
    }
    for (auto &client : out)
        shuffle(client, rng);
    return out;
}

std::string
renderSchedules(const std::vector<std::vector<Op>> &s)
{
    std::string text;
    for (std::size_t c = 0; c < s.size(); ++c)
        for (const Op &op : s[c]) {
            text += 'c';
            text += std::to_string(c);
            text += op.miss ? " m" : " h";
            text += std::to_string(op.key);
            text += '\n';
        }
    return text;
}

} // namespace perfbench
