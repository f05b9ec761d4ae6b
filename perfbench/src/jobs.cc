/**
 * @file
 * Seeded job lists. Every job is a whole sweep document generated
 * before the clock starts, so the program under test only ever sees
 * the generated inputs and a seed names one fixed amount of work.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.h"

using namespace camj;

namespace perfbench
{

uint64_t
Rng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

size_t
Rng::below(size_t n)
{
    return static_cast<size_t>(next() % n);
}

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** @p count distinct values from @p draw, ascending. */
template <typename Draw>
json::Value
distinctSorted(size_t count, Draw draw)
{
    std::vector<double> picked;
    while (picked.size() < count) {
        const double v = draw();
        if (std::find(picked.begin(), picked.end(), v) == picked.end())
            picked.push_back(v);
    }
    std::sort(picked.begin(), picked.end());
    json::Value values = json::Value::makeArray();
    for (double v : picked)
        values.push(json::Value(v));
    return values;
}

json::Value &
gridAxis(json::Value &doc, const std::string &name)
{
    json::Value *grid = doc.find("sweepGrid");
    json::Value *axes = grid != nullptr ? grid->find("axes") : nullptr;
    if (axes != nullptr) {
        for (json::Value &axis : axes->mutableArray()) {
            if (axis.getString("name", "") == name)
                return axis;
        }
    }
    throw std::runtime_error("canonical sweep document has no '" +
                             name + "' axis");
}

/**
 * A seeded variant of the canonical detector study: @p rates frame
 * rates log-uniform in [1, 1000] fps, the four buffer nodes in a
 * seeded order, and three duty cycles in (0, 1].
 */
std::string
detectorVariant(const json::Value &canonical, Rng &rng, size_t rates)
{
    json::Value doc = canonical;
    gridAxis(doc, "rate").set(
        "values", distinctSorted(rates, [&] {
            return static_cast<double>(
                std::llround(std::exp(rng.uniform() * std::log(1000.0))));
        }));
    json::Value &node_axis = gridAxis(doc, "bufnode");
    json::Value::Array nodes = node_axis.at("values").asArray();
    rng.shuffle(nodes);
    json::Value shuffled = json::Value::makeArray();
    for (json::Value &n : nodes)
        shuffled.push(std::move(n));
    node_axis.set("values", std::move(shuffled));
    gridAxis(doc, "duty").set(
        "values", distinctSorted(3, [&] {
            return static_cast<double>(1 + rng.below(100)) / 100.0;
        }));
    return doc.dump(2);
}

/** @p count jobs: whole passes over @p docs documents, each pass in
 *  its own seeded order, so every document runs equally often. */
std::vector<size_t>
passesOver(size_t docs, Rng &rng, size_t count)
{
    std::vector<size_t> order;
    while (order.size() < count) {
        std::vector<size_t> pass(docs);
        for (size_t d = 0; d < docs; ++d)
            pass[d] = d;
        rng.shuffle(pass);
        for (size_t d : pass) {
            if (order.size() < count)
                order.push_back(d);
        }
    }
    return order;
}

} // namespace

GoldenEnergies
loadGoldenEnergies(const std::string &root)
{
    const json::Value doc =
        json::Value::parse(readFile(root + "/tests/golden/energies.json"));
    GoldenEnergies out;
    for (const auto &[study, cats] : doc.asObject()) {
        for (const auto &[cat, value] : cats.asObject())
            out[study][cat] = value.asNumber();
    }
    return out;
}

JobList
makeJobs(const std::string &workload, const std::string &root,
         uint64_t seed, size_t count)
{
    Rng rng(seed);
    JobList list;
    const json::Value canonical = json::Value::parse(
        readFile(root + "/examples/detector_sweep.json"));
    list.probe.text = canonical.dump(2);
    if (workload == "studies") {
        const json::Value energies = json::Value::parse(
            readFile(root + "/tests/golden/energies.json"));
        for (const auto &[key, cats] : energies.asObject()) {
            (void)cats;
            Job job;
            job.study = key;
            job.text = readFile(root + "/tests/golden/" + key + ".json");
            list.docs.push_back(std::move(job));
        }
        if (list.docs.empty())
            throw std::runtime_error("no golden studies found");
        // The canonical small detector is the warm-up.
        list.warmup = list.docs.front();
        for (const Job &s : list.docs) {
            if (s.study == "detector-65nm-30fps")
                list.warmup = s;
        }
        list.order = passesOver(list.docs.size(), rng, count);
        return list;
    }

    // The in-process grid and the served workload warm up on the same
    // small fixed slice of the canonical sweep: one 30 fps rate, 12
    // points through every layer a job uses.
    json::Value warm = canonical;
    json::Value rate = json::Value::makeArray();
    rate.push(json::Value(30));
    gridAxis(warm, "rate").set("values", std::move(rate));
    list.warmup.text = warm.dump(2);
    if (workload == "grid") {
        list.docs.resize((count + kGridRepeats - 1) / kGridRepeats);
        for (size_t d = 0; d < list.docs.size(); ++d) {
            Job &job = list.docs[d];
            job.text = detectorVariant(canonical, rng, 9);
            // Every third document is one strided shard k/N, the
            // order a multi-host sweep visits points in. N cycles
            // through 2, 3, 4, so every seed has the same mix: a
            // shard costs two to four times more per result line.
            if (d % 3 == 0) {
                job.shardCount = 2 + (d / 3) % 3;
                job.shardIndex = rng.below(job.shardCount);
            }
        }
        list.order = passesOver(list.docs.size(), rng, count);
        return list;
    }
    if (workload == "served") {
        for (size_t i = 0; i < count; ++i) {
            Job job;
            job.text = detectorVariant(canonical, rng, 1 + rng.below(2));
            list.docs.push_back(std::move(job));
            list.order.push_back(i);
        }
        return list;
    }
    throw std::runtime_error("unknown workload '" + workload + "'");
}

std::vector<spec::ShardAssignment>
jobSlices(const Job &job, size_t total, bool served)
{
    if (served) {
        // The scheduler's split: contiguous, min(2, total) shards.
        return spec::planShards(total, std::min<size_t>(2, std::max<size_t>(total, 1)),
                                spec::ShardMode::Contiguous)
            .shards;
    }
    if (job.shardCount == 1)
        return spec::planShards(total, 1, spec::ShardMode::Contiguous)
            .shards;
    return {spec::planShards(total, job.shardCount,
                             spec::ShardMode::Strided)
                .shards[job.shardIndex]};
}

} // namespace perfbench
