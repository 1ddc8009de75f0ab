#include "serve_phase.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "core/canonical.hh"
#include "core/export.hh"
#include "measure.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "stats/hash.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace netchar;

namespace
{

serve::ServerOptions
daemonOptions(const std::string &workDir)
{
    serve::ServerOptions o;
    o.listen = workDir + "/serve.sock";
    o.jobs = 2;
    o.persistPath = snapshotPath(workDir);
    return o;
}

/** The profile a key names; throws for an unknown benchmark. */
wl::WorkloadProfile
profileOf(const RunKey &key)
{
    const auto profile = wl::findProfile(key.benchmark);
    if (!profile)
        throw std::invalid_argument("unknown benchmark '" +
                                    key.benchmark + "'");
    return *profile;
}

/** The body of an ok `run` response, or "" when it has none. */
std::string
responseBody(const std::string &response)
{
    static const std::string marker = ",\"body\":";
    const std::size_t at = response.find(marker);
    if (at == std::string::npos || response.back() != '}')
        return {};
    const std::size_t from = at + marker.size();
    return response.substr(from, response.size() - from - 1);
}

/** Check a `run` response: sent, ok, `cache` hit or miss as
 *  expected, and its body's digest. Counts one operation. */
bool
checkResponse(const RunKey &key, bool sent, const std::string &reply,
              const std::string &error, bool expectHit,
              const Golden &golden, Tally &tally)
{
    const std::string id = keyId(key);
    if (!sent) {
        tally.fail(id + ": request failed: " + error);
        return false;
    }
    const std::string status = std::string("{\"ok\":true,\"verb\":\"run\","
                                           "\"cache\":\"") +
                               (expectHit ? "hit" : "miss") + "\"";
    if (reply.compare(0, status.size(), status) != 0) {
        tally.fail(id + ": expected a cache " +
                   (expectHit ? "hit" : "miss") + ", got " +
                   reply.substr(0, 120));
        return false;
    }
    tally.check(golden, id, responseBody(reply));
    return true;
}

} // namespace

std::string
snapshotPath(const std::string &workDir)
{
    return workDir + "/cache.bin";
}

Daemon::Daemon(const std::string &workDir)
    : address_(daemonOptions(workDir).listen),
      server_(daemonOptions(workDir))
{
}

Daemon::~Daemon() { stop(); }

bool
Daemon::start(std::string &error)
{
    if (!server_.start(error))
        return false;
    thread_ = std::thread([this] { exitCode_ = server_.serve(); });
    return true;
}

bool
Daemon::stop()
{
    if (!thread_.joinable())
        return exitCode_ == 0;
    serve::Client client(clientOptions(address_));
    std::string response;
    std::string error;
    const bool sent =
        client.request("{\"verb\":\"shutdown\"}", response, error);
    if (!sent) {
        // The server still has to leave serve(); a drain does that.
        std::fprintf(stderr, "perfbench: shutdown failed: %s\n",
                     error.c_str());
        server_.beginDrain();
    }
    thread_.join();
    return sent && exitCode_ == 0;
}

serve::ClientOptions
clientOptions(const std::string &address)
{
    serve::ClientOptions o;
    o.address = address;
    o.maxAttempts = 1;
    o.backoffBaseMicros = 0;
    o.ioTimeoutMs = 60'000;
    return o;
}

std::string
cacheKey(const RunKey &key)
{
    return contentHashHex("run/" +
                          cacheKeyText(profileOf(key),
                                       sim::MachineConfig::intelCoreI99980Xe(),
                                       keyOptions(key)));
}

std::string
requestChecked(serve::Client &client, const RunKey &key, bool expectHit,
               const Golden &golden, Tally &tally)
{
    std::string reply;
    std::string error;
    const bool sent = client.request(keyLine(key), reply, error);
    checkResponse(key, sent, reply, error, expectHit, golden, tally);
    return responseBody(reply);
}

ServeRun
runClients(const std::string &address, const std::vector<RunKey> &hot,
           const std::vector<RunKey> &pool,
           const std::vector<std::vector<Op>> &schedules,
           const Golden &golden, Tally &tally)
{
    std::vector<std::string> hotLines;
    std::vector<std::string> poolLines;
    for (const auto &k : hot)
        hotLines.push_back(keyLine(k));
    for (const auto &k : pool)
        poolLines.push_back(keyLine(k));

    struct ClientLog
    {
        std::vector<double> hitMs;
        std::vector<double> missMs;
        Tally tally;
    };
    std::vector<ClientLog> logs(schedules.size());
    // A failed request missed every latency limit.
    const double failedMs = std::numeric_limits<double>::infinity();
    // At most one miss is in flight: a miss that queued behind the
    // other client's miss would time both, and which misses collide
    // is chaotic, so miss percentiles moved 10-20% between runs.
    // Likewise at most one hit: back to back, about half of all hits
    // queued behind the other client's hit, so the hit median sat on
    // the edge between the "served at once" and "queued behind one hit"
    // modes and moved 20-30% between runs. A hit and a miss may be in
    // flight together, so hits still queue behind misses (the
    // head-of-line mode). Each request is timed once its token is
    // held.
    std::mutex missInFlight;
    std::mutex hitInFlight;

    const double t0 = nowSeconds();
    {
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < schedules.size(); ++c)
            clients.emplace_back([&, c] {
                serve::Client client(clientOptions(address));
                ClientLog &log = logs[c];
                std::string reply;
                std::string error;
                for (const Op &op : schedules[c]) {
                    const RunKey &key = op.miss ? pool[op.key] : hot[op.key];
                    const std::string &line =
                        op.miss ? poolLines[op.key] : hotLines[op.key];
                    std::unique_lock<std::mutex> token(
                        op.miss ? missInFlight : hitInFlight);
                    const double s = nowSeconds();
                    const bool sent = client.request(line, reply, error);
                    const double ms = (nowSeconds() - s) * 1e3;
                    if (token.owns_lock())
                        token.unlock();
                    const bool ok = checkResponse(key, sent, reply, error,
                                                  !op.miss, golden,
                                                  log.tally);
                    (op.miss ? log.missMs : log.hitMs)
                        .push_back(ok ? ms : failedMs);
                }
            });
        for (auto &t : clients)
            t.join();
    }
    ServeRun run;
    run.wall = nowSeconds() - t0;
    for (const ClientLog &log : logs) {
        run.hitMs.insert(run.hitMs.end(), log.hitMs.begin(),
                         log.hitMs.end());
        run.missMs.insert(run.missMs.end(), log.missMs.begin(),
                          log.missMs.end());
        tally.attempted += log.tally.attempted;
        tally.ok += log.tally.ok;
    }
    return run;
}

std::string
renderClientRun(const ServeRun &run, const Tally &tally)
{
    char buf[64];
    std::string text = "tally " + std::to_string(tally.attempted) + " " +
                       std::to_string(tally.ok) + "\n";
    std::snprintf(buf, sizeof buf, "wall %.17g\n", run.wall);
    text += buf;
    for (const auto &[tag, values] :
         {std::pair{"hit", &run.hitMs}, std::pair{"miss", &run.missMs}})
        for (const double v : *values) {
            std::snprintf(buf, sizeof buf, "%s %.17g\n", tag, v);
            text += buf;
        }
    return text;
}

bool
parseClientRun(const std::string &text, ServeRun &run, Tally &tally)
{
    std::istringstream in(text);
    std::string tag;
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;
    if (!(in >> tag >> attempted >> ok) || tag != "tally" || ok > attempted)
        return false;
    if (!(in >> tag >> run.wall) || tag != "wall")
        return false;
    std::string value;
    while (in >> tag >> value) {
        if (tag != "hit" && tag != "miss")
            return false;
        // "inf" marks a failed request; strtod reads it.
        (tag == "hit" ? run.hitMs : run.missMs)
            .push_back(std::strtod(value.c_str(), nullptr));
    }
    if (!in.eof())
        return false;
    tally.attempted += attempted;
    tally.ok += ok;
    return true;
}

std::vector<std::string>
hitLinesOf(const std::vector<RunKey> &hot,
           const std::vector<std::vector<Op>> &schedules)
{
    std::vector<std::string> lines;
    for (const auto &schedule : schedules)
        for (const Op &op : schedule)
            if (!op.miss)
                lines.push_back(keyLine(hot[op.key]));
    return lines;
}

HitPathTimes
replayHits(serve::Server &server, const std::vector<RunKey> &hot,
           const std::vector<std::string> &hotBodies,
           const std::vector<std::string> &lines, Tally &tally)
{
    serve::ResultCache cache;
    for (std::size_t i = 0; i < hot.size(); ++i)
        cache.insert(cacheKey(hot[i]), hotBodies[i]);
    const sim::MachineConfig i9 = sim::MachineConfig::intelCoreI99980Xe();

    std::vector<double> parse, find, canon, hash, lookup, frame, handle;
    std::size_t mismatches = 0;
    for (const std::string &line : lines) {
        double t = nowSeconds();
        const serve::Request request = serve::parseRequest(line);
        double u = nowSeconds();
        parse.push_back((u - t) * 1e6);

        t = u;
        const auto profile = wl::findProfile(request.benchmark);
        u = nowSeconds();
        find.push_back((u - t) * 1e6);
        if (!profile || request.machine != "i9") {
            ++mismatches;
            continue;
        }

        t = u;
        const std::string text = cacheKeyText(*profile, i9, request.options);
        u = nowSeconds();
        canon.push_back((u - t) * 1e6);

        t = u;
        const std::string key = contentHashHex("run/" + text);
        u = nowSeconds();
        hash.push_back((u - t) * 1e6);

        t = u;
        const std::string *body = cache.lookup(key);
        u = nowSeconds();
        lookup.push_back((u - t) * 1e6);
        if (body == nullptr) {
            ++mismatches;
            continue;
        }

        t = u;
        const std::string framed =
            serve::okCachedResponse("run", true, key, *body);
        u = nowSeconds();
        frame.push_back((u - t) * 1e6);

        t = u;
        const std::string response = server.handleLine(line);
        u = nowSeconds();
        handle.push_back((u - t) * 1e6);
        if (response != framed)
            ++mismatches;
    }
    if (mismatches != 0)
        tally.fail("hit-path replay: " + std::to_string(mismatches) +
                   " stage outputs differ from Server::handleLine");
    HitPathTimes out;
    if (handle.empty())
        return out;
    out.parse = median(parse);
    out.findProfile = median(find);
    out.canonicalize = median(canon);
    out.hash = median(hash);
    out.lookup = median(lookup);
    out.frame = median(frame);
    out.handle = median(handle);
    return out;
}

MissSplit
splitMisses(const std::vector<RunKey> &pool, const Golden &golden,
            Tally &tally, const std::string &workDir)
{
    MissSplit out;
    const sim::MachineConfig i9 = sim::MachineConfig::intelCoreI99980Xe();
    const std::string journalPath = workDir + "/append-probe.journal";
    ::unlink(journalPath.c_str());
    serve::CacheJournal journal;
    std::string error;
    if (!journal.open(journalPath, error)) {
        tally.fail("journal probe: " + error);
        return out;
    }
    for (const RunKey &key : pool) {
        LayerTimes t;
        const wl::WorkloadProfile profile = profileOf(key);
        const RunResult r = runSplit(i9, profile, keyOptions(key), t);
        out.computeMs.push_back(t.total() * 1e3);
        out.layers.add(t);
        out.counts.add(r);
        const std::string body = runResultJson(profile.name, r);
        tally.check(golden, keyId(key), body);

        const double a0 = nowSeconds();
        const bool appended = journal.append(cacheKey(key), body, error);
        out.appendUs.push_back((nowSeconds() - a0) * 1e6);
        if (!appended)
            tally.fail("journal probe: " + error);
    }
    journal.close();
    ::unlink(journalPath.c_str());
    return out;
}

} // namespace perfbench
