/**
 * @file
 * The serve phase: an in-process serve::Server on a Unix socket and
 * closed-loop serve::Client threads replaying seeded schedules of
 * `run` requests, every response body checked against its golden
 * digest. The traced helpers split the hit and miss paths into the
 * public calls of each layer.
 */

#ifndef PERFBENCH_SERVE_PHASE_HH
#define PERFBENCH_SERVE_PHASE_HH

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "golden.hh"
#include "plan.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "split.hh"

namespace perfbench
{

/** A serve::Server answering on its own thread. */
class Daemon
{
  public:
    /** Listen on `workDir`/serve.sock with jobs 2 and persistence to
     *  `workDir`/cache.bin (+ .journal). */
    explicit Daemon(const std::string &workDir);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Start the server and its serving thread. */
    bool start(std::string &error);
    /** Send `shutdown`, join the serving thread; idempotent. Returns
     *  false when the server did not stop cleanly. */
    bool stop();

    const std::string &address() const { return address_; }
    /** The server; touch it only once stop() has returned. */
    netchar::serve::Server &server() { return server_; }

  private:
    std::string address_;
    netchar::serve::Server server_;
    std::thread thread_;
    int exitCode_ = 0;
};

/** Path of the daemon's cache snapshot in `workDir`. */
std::string snapshotPath(const std::string &workDir);

/** Request `key`, check the response, and return its body. */
std::string requestChecked(netchar::serve::Client &client,
                           const RunKey &key, bool expectHit,
                           const Golden &golden, Tally &tally);

/** Client options for a daemon: one attempt, so a refusal counts. */
netchar::serve::ClientOptions clientOptions(const std::string &address);

/** Server cache key of a `run` request for `key` on the i9. */
std::string cacheKey(const RunKey &key);

/** What the measured serve phase observed. */
struct ServeRun
{
    std::vector<double> hitMs;
    std::vector<double> missMs;
    /** Host seconds from the first request to the last response. */
    double wall = 0.0;
    /** Server cache lookups during the phase. */
    std::uint64_t serverHits = 0;
    std::uint64_t serverMisses = 0;
    /** Every hit request line, in schedule order per client. */
    std::vector<std::string> hitLines;
};

/**
 * The client side of the serve phase: run the schedules against the
 * daemon at `address`, one closed-loop client thread each, and check
 * every response. Fills hitMs, missMs and wall; counts into `tally`.
 * It runs in a process of its own, so the daemon's process holds
 * only the daemon.
 */
ServeRun runClients(const std::string &address,
                    const std::vector<RunKey> &hot,
                    const std::vector<RunKey> &pool,
                    const std::vector<std::vector<Op>> &schedules,
                    const Golden &golden, Tally &tally);

/** The text a client process hands back: its tally, wall time and
 *  every latency, one per line. */
std::string renderClientRun(const ServeRun &run, const Tally &tally);

/** Read renderClientRun's text into `run` and add its counts to
 *  `tally`; false when the text is malformed. */
bool parseClientRun(const std::string &text, ServeRun &run, Tally &tally);

/** Every hit request line of `schedules`, in schedule order per
 *  client. */
std::vector<std::string>
hitLinesOf(const std::vector<RunKey> &hot,
           const std::vector<std::vector<Op>> &schedules);

/** Per-call medians of each hit-path stage, microseconds. */
struct HitPathTimes
{
    double parse = 0.0;
    double findProfile = 0.0;
    double canonicalize = 0.0;
    double hash = 0.0;
    double lookup = 0.0;
    double frame = 0.0;
    double handle = 0.0;
};

/**
 * Replay `lines` (hits) stage by stage in-process: parseRequest,
 * wl::findProfile, cacheKeyText, contentHashHex, ResultCache::lookup
 * on a cache holding `hotBodies`, okCachedResponse, then the whole
 * Server::handleLine on the stopped `server`. A stage output that
 * differs from the server's response fails the tally.
 */
HitPathTimes replayHits(netchar::serve::Server &server,
                        const std::vector<RunKey> &hot,
                        const std::vector<std::string> &hotBodies,
                        const std::vector<std::string> &lines,
                        Tally &tally);

/** The miss path computed standalone through runSplit. */
struct MissSplit
{
    /** Per-key compute times (build + warm start + windows), ms. */
    std::vector<double> computeMs;
    LayerTimes layers;
    SimCounts counts;
    /** Per-call CacheJournal::append times, microseconds. */
    std::vector<double> appendUs;
};

/** Compute every pool key through runSplit, check each body, and
 *  append the bodies to a scratch journal in `workDir`. */
MissSplit splitMisses(const std::vector<RunKey> &pool,
                      const Golden &golden, Tally &tally,
                      const std::string &workDir);

} // namespace perfbench

#endif // PERFBENCH_SERVE_PHASE_HH
