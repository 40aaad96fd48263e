#include "chk/corpus.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/fnv.hh"

namespace mach::chk
{

namespace
{

std::string
hex16(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** "key: value" split; returns false on lines without a colon. */
bool
splitLine(const std::string &line, std::string *key,
          std::string *value)
{
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos)
        return false;
    *key = line.substr(0, colon);
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ')
        ++start;
    *value = line.substr(start);
    return true;
}

} // namespace

Corpus::Corpus(std::string dir) : dir_(std::move(dir))
{
    loadDir(dir_);
}

bool
Corpus::loadDir(const std::string &dir, std::string *error)
{
    if (dir.empty())
        return true;
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        return true; // nothing committed yet: an empty corpus
    // Deterministic load order: sorted file names, so bucket and
    // entry order never depend on directory iteration order.
    std::vector<std::string> files;
    for (const auto &it : std::filesystem::directory_iterator(dir, ec))
        files.push_back(it.path().string());
    std::sort(files.begin(), files.end());
    for (const std::string &path : files) {
        if (path.size() > 7 &&
            path.compare(path.size() - 7, 7, ".corpus") == 0) {
            std::ifstream in(path);
            std::stringstream body;
            body << in.rdbuf();
            CorpusEntry entry;
            std::string why;
            if (!parseEntry(body.str(), &entry, &why)) {
                if (error != nullptr)
                    *error = path + ": " + why;
                return false;
            }
            absorb(std::move(entry), /*rewrite=*/false);
        } else if (path.size() > 9 &&
                   path.compare(path.size() - 9, 9, "tried.log") ==
                       0) {
            std::ifstream in(path);
            std::string line;
            while (std::getline(in, line)) {
                if (!line.empty())
                    tried_.insert(
                        std::strtoull(line.c_str(), nullptr, 16));
            }
        }
    }
    return true;
}

std::vector<const CorpusEntry *>
Corpus::mutationPool(const std::string &scenario) const
{
    std::vector<const CorpusEntry *> pool;
    for (const CorpusEntry &e : entries_) {
        if (e.scenario == scenario && !e.schedule.empty())
            pool.push_back(&e);
    }
    return pool;
}

std::size_t
Corpus::buckets(const std::string &scenario) const
{
    const auto it = buckets_.find(scenario);
    return it == buckets_.end() ? 0 : it->second.size();
}

void
Corpus::absorb(CorpusEntry entry, bool rewrite)
{
    std::set<std::uint64_t> &seen = buckets_[entry.scenario];
    for (const std::uint64_t s : entry.signatures)
        seen.insert(s);
    tried_.insert(scheduleHash(entry.scenario, entry.schedule));
    if (rewrite && !dir_.empty() && !persistEntry(entry))
        ++unpersisted_entries_;
    entries_.push_back(std::move(entry));
}

std::uint64_t
Corpus::admit(CorpusEntry entry)
{
    std::set<std::uint64_t> &seen = buckets_[entry.scenario];
    std::uint64_t fresh = 0;
    for (const std::uint64_t s : entry.signatures) {
        if (seen.find(s) == seen.end())
            ++fresh;
    }
    if (fresh == 0)
        return 0;
    entry.new_buckets = fresh;
    absorb(std::move(entry), /*rewrite=*/true);
    return fresh;
}

bool
Corpus::markTried(const std::string &scenario,
                  const std::string &schedule)
{
    const std::uint64_t h = scheduleHash(scenario, schedule);
    if (!tried_.insert(h).second)
        return false;
    if (!dir_.empty() && !persistTried(h))
        ++unpersisted_tried_;
    return true;
}

std::uint64_t
Corpus::scheduleHash(const std::string &scenario,
                     const std::string &schedule)
{
    std::uint64_t h = fnv::fold(fnv::kOffset, scenario);
    h = fnv::fold(h, "\n");
    return fnv::fold(h, schedule);
}

std::string
Corpus::formatEntry(const CorpusEntry &entry)
{
    std::ostringstream out;
    out << "# machsim checker corpus entry; replay with\n"
        << "#   machsim --app chk --scenario " << entry.scenario
        << (entry.schedule.empty() ? ""
                                   : " --schedule " + entry.schedule)
        << "\n";
    out << "scenario: " << entry.scenario << "\n";
    out << "schedule: " << entry.schedule << "\n";
    out << "digest: 0x" << hex16(entry.digest) << "\n";
    out << "trial: " << entry.trial << "\n";
    out << "new_buckets: " << entry.new_buckets << "\n";
    out << "failed: " << (entry.failed ? 1 : 0) << "\n";
    for (const std::uint64_t s : entry.signatures)
        out << "signature: 0x" << hex16(s) << "\n";
    return out.str();
}

bool
Corpus::parseEntry(const std::string &text, CorpusEntry *out,
                   std::string *error)
{
    *out = CorpusEntry{};
    bool saw_scenario = false;
    bool saw_schedule = false;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::string key;
        std::string value;
        if (!splitLine(line, &key, &value)) {
            if (error != nullptr)
                *error = "bad line: " + line;
            return false;
        }
        if (key == "scenario") {
            out->scenario = value;
            saw_scenario = true;
        } else if (key == "schedule") {
            out->schedule = value;
            saw_schedule = true;
        } else if (key == "digest") {
            out->digest = std::strtoull(value.c_str(), nullptr, 16);
        } else if (key == "trial") {
            out->trial = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "new_buckets") {
            out->new_buckets =
                std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "failed") {
            out->failed = value == "1";
        } else if (key == "signature") {
            out->signatures.push_back(
                std::strtoull(value.c_str(), nullptr, 16));
        } else {
            if (error != nullptr)
                *error = "unknown key: " + key;
            return false;
        }
    }
    if (!saw_scenario || !saw_schedule) {
        if (error != nullptr)
            *error = "missing scenario/schedule";
        return false;
    }
    return true;
}

std::string
Corpus::entryFileName(const CorpusEntry &entry)
{
    return entry.scenario + "-" +
           hex16(scheduleHash(entry.scenario, entry.schedule)) +
           ".corpus";
}

bool
Corpus::persistEntry(const CorpusEntry &entry) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    std::ofstream out(dir_ + "/" + entryFileName(entry));
    out << formatEntry(entry);
    out.close(); // A failed flush shows only here.
    return !out.fail();
}

bool
Corpus::persistTried(std::uint64_t hash) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    std::ofstream out(dir_ + "/tried.log", std::ios::app);
    out << hex16(hash) << "\n";
    out.close();
    return !out.fail();
}

} // namespace mach::chk
