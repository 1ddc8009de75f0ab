/**
 * @file
 * What each workload runs: its sweep suite, the serve keys it
 * requests, and the seeded per-client request schedules. Everything
 * here is a pure function of (workload, seed), so the committed
 * golden digests check correctness under any seed.
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/characterize.hh"
#include "workloads/profile.hh"

namespace perfbench
{

/** Warmup and measured instructions of every short serve key: a miss
 *  then costs tens of milliseconds (SPEC keys more: their warm-start
 *  preloads a large data footprint). */
inline constexpr std::uint64_t kKeyWarmup = 50'000;
inline constexpr std::uint64_t kKeyMeasure = 50'000;

/** One `run` request the serve phase sends. */
struct RunKey
{
    std::string benchmark;
    /** Run seed; nullopt = the profile's default run options (the
     *  key a sweep row answers). */
    std::optional<std::uint64_t> seed;
};

/** Run options a key's request carries. */
netchar::RunOptions keyOptions(const RunKey &key);
/** Golden-digest id of a key's response body. */
std::string keyId(const RunKey &key);
/** The NDJSON request line for a key. */
std::string keyLine(const RunKey &key);

/** A workload: an optional serial sweep, then a serve phase. */
struct WorkloadPlan
{
    std::string name;
    /** Suite swept at --jobs 1 before the serve phase (none for
     *  serve-mix). */
    std::optional<netchar::wl::Suite> sweep;
    /** Keys populated during set-up and then hit (empty on the
     *  sweeps, whose hot set is the sweep's own rows). */
    std::vector<RunKey> hot;
    /** Fresh keys; every one is requested exactly once (a miss). */
    std::vector<RunKey> pool;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** The plan of a named workload; throws on an unknown name. */
WorkloadPlan workloadPlan(const std::string &name);

/** The sweep's profiles in the seed's run order; empty without a
 *  sweep. */
std::vector<netchar::wl::WorkloadProfile>
sweptProfiles(const WorkloadPlan &plan, std::uint64_t seed);

/** Keys the serve phase hits: serve-mix's hot set, or a sweep's own
 *  rows (default run options) in swept order. */
std::vector<RunKey> hotKeys(const WorkloadPlan &plan, std::uint64_t seed);

/** Hit requests per miss request (a 4% miss share). */
inline constexpr unsigned kHitsPerMiss = 24;
/** Closed-loop clients of the serve phase. */
inline constexpr unsigned kClients = 2;

/** One scheduled request: a hit on hot key `key`, or the miss of
 *  pool key `key`. */
struct Op
{
    bool miss = false;
    std::uint32_t key = 0;
};

/** Seeded permutation of 0..n-1 (Fisher-Yates on splitmix64). */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/**
 * Per-client request schedules: every pool key once as a miss, dealt
 * round-robin in seeded order; kHitsPerMiss uniformly drawn hot keys
 * per miss; each client's sequence shuffled by the seed.
 */
std::vector<std::vector<Op>>
buildSchedules(std::size_t hotCount, std::size_t poolCount,
               std::uint64_t seed);

/** Canonical text of a schedule set ("c0 h3\nc0 m17\n..."). */
std::string renderSchedules(const std::vector<std::vector<Op>> &s);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
