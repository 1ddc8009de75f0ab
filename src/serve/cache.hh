/**
 * @file
 * Content-addressed result cache for the serve daemon.
 *
 * Keys are the 128-bit content hash (stats/hash.hh) of the canonical
 * key text (core/canonical.hh) of everything that determines a
 * result: profile, machine config, seed and run options, plus the
 * request shape (verb, suite, format, shard slice) for multi-run
 * verbs. Because every run is deterministic, a repeated identical
 * query can be answered from the cache with a byte-identical body —
 * the "repeat queries are free" half of characterization-as-a-
 * service.
 *
 * Eviction is LRU over both an entry-count and a byte budget, with
 * hit/miss/eviction counters exposed through the `stats` verb.
 * Optional persistence writes entries LRU-first so a reload restores
 * both contents and recency order; the format carries the canonical
 * schema version, so a cache persisted before a canonicalization
 * change misses cleanly rather than serving stale bodies.
 *
 * Not thread-safe: the daemon's event loop is single-threaded and
 * owns the cache; parallelism lives below it, in the executor the
 * run batches fan out on.
 */

#ifndef NETCHAR_SERVE_CACHE_HH
#define NETCHAR_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <vector>

namespace netchar::serve
{

/** Capacity budgets of a ResultCache. */
struct CacheConfig
{
    /** Maximum resident entries (0 = unlimited). */
    std::size_t maxEntries = 256;
    /** Maximum resident body bytes (0 = unlimited). */
    std::uint64_t maxBytes = 64ULL * 1024 * 1024;
};

/** Observability counters (the `stats` verb's cache section). */
struct CacheCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::size_t entries = 0;
    std::uint64_t bytes = 0;
};

/** LRU map from content-hash key to cached response body. */
class ResultCache
{
  public:
    explicit ResultCache(CacheConfig config = {});

    /**
     * Body cached under `key`, or nullptr on a miss. A hit bumps the
     * entry to most-recently-used and counts as a hit; a miss counts
     * as a miss. The pointer is invalidated by the next insert() —
     * copy before mutating the cache.
     */
    const std::string *lookup(const std::string &key);

    /**
     * Insert (or refresh) `key` -> `body`, then evict least-recently-
     * used entries until both budgets hold again. Inserting an
     * existing key replaces its body and bumps it to MRU.
     */
    void insert(const std::string &key, std::string body);

    /**
     * Replay an entry recovered from persistence (checkpoint or
     * journal): same placement and eviction as insert(), but not
     * counted as a fresh insert — counters after a restart reflect
     * only work done since.
     */
    void restore(const std::string &key, std::string body);

    const CacheCounters &counters() const { return counters_; }

    /** Keys most-recently-used first (eviction order is the
     *  reverse); for tests and the stats verb. */
    std::vector<std::string> keysByRecency() const;

    /**
     * Write every entry to `path` (LRU-first, so a load() replays
     * recency). The snapshot is written to `path + ".tmp"` and moved
     * into place with rename(), so a crash mid-persist can never
     * leave a half-written file where a valid one was. Returns false
     * with a message in `error` on I/O failure.
     */
    [[nodiscard]]
    bool save(const std::string &path, std::string &error) const;

    /**
     * Load entries persisted by save() on top of the current
     * contents. A missing file is not an error (fresh daemon); a
     * malformed or version-mismatched file is (the daemon should
     * refuse to serve from a cache it cannot trust).
     */
    [[nodiscard]]
    bool load(const std::string &path, std::string &error);

  private:
    void evictOverBudget();

    struct Entry
    {
        std::string key;
        std::string body;
    };

    CacheConfig config_;
    CacheCounters counters_;
    std::list<Entry> lru_; ///< MRU at front.
    std::map<std::string, std::list<Entry>::iterator> index_;
};

} // namespace netchar::serve

#endif // NETCHAR_SERVE_CACHE_HH
