#include "golden.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "stats/hash.hh"

namespace perfbench
{

bool
Golden::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read golden digests '" + path + "'";
        return false;
    }
    std::string line;
    std::size_t number = 0;
    while (std::getline(in, line)) {
        ++number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string id;
        std::string digest;
        std::string extra;
        if (!(fields >> id >> digest) || (fields >> extra)) {
            error = path + ":" + std::to_string(number) +
                    ": expected `id digest`";
            return false;
        }
        digests_[id] = digest;
    }
    return true;
}

bool
Golden::save(const std::string &path, std::string &error) const
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "# Golden digests of the netchar benchmark: contentHashHex "
           "of each sweep's\n# canonical CSV row (sweep/...) and of "
           "each serve response body (run/...).\n# Re-record only "
           "for an intended behaviour change (see README.md).\n";
    for (const auto &[id, digest] : digests_)
        out << id << ' ' << digest << '\n';
    out.flush();
    if (!out) {
        error = "cannot write golden digests '" + path + "'";
        return false;
    }
    return true;
}

void
Golden::set(const std::string &id, const std::string &digest)
{
    digests_[id] = digest;
}

const std::string *
Golden::find(const std::string &id) const
{
    const auto it = digests_.find(id);
    return it == digests_.end() ? nullptr : &it->second;
}

void
Tally::pass()
{
    ++attempted;
    ++ok;
}

void
Tally::fail(const std::string &what)
{
    ++attempted;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

void
Tally::check(const Golden &golden, const std::string &id,
             const std::string &bytes)
{
    const std::string *want = golden.find(id);
    if (want == nullptr) {
        fail(id + ": no committed golden digest");
        return;
    }
    const std::string got = netchar::contentHashHex(bytes);
    if (got != *want) {
        fail(id + ": digest " + got + " != golden " + *want);
        return;
    }
    pass();
}

} // namespace perfbench
