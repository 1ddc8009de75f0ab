/**
 * @file
 * Committed golden digests and the tally of checks against them.
 *
 * The file holds one `id digest` pair per line (`#` starts a
 * comment). Ids are `sweep/<benchmark>` for a sweep's canonical CSV
 * row and `run/<benchmark>/<seed>` for a serve body. Digests are
 * netchar::contentHashHex of the exact bytes.
 */

#ifndef PERFBENCH_GOLDEN_HH
#define PERFBENCH_GOLDEN_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

class Golden
{
  public:
    /** Read a digest file; false with a message on failure. */
    bool load(const std::string &path, std::string &error);
    /** Write every digest, sorted by id. */
    bool save(const std::string &path, std::string &error) const;

    void set(const std::string &id, const std::string &digest);
    /** Digest of `id`, or nullptr when none is committed. */
    const std::string *find(const std::string &id) const;
    std::size_t size() const { return digests_.size(); }

  private:
    std::map<std::string, std::string> digests_;
};

/** Operations attempted and the ones that succeeded with the right
 *  output; a failure is named on stderr as it is counted. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t ok = 0;

    void pass();
    void fail(const std::string &what);
    std::uint64_t failed() const { return attempted - ok; }

    /**
     * Count one operation whose output is `bytes`: it passes when
     * contentHashHex(bytes) equals the committed digest of `id`.
     */
    void check(const Golden &golden, const std::string &id,
               const std::string &bytes);
};

} // namespace perfbench

#endif // PERFBENCH_GOLDEN_HH
