// CycleSimMemo and CycleSim::topologyHash (declared in cyclesim.h).
// They live apart from cyclesim.cc on purpose: added to that
// translation unit, they shifted gcc's inlining decisions inside the
// cycle loop, which measured about 15% slower on compute-bound points.

#include "digital/cyclesim.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>

namespace camj
{

namespace
{

/** Streamed 64-bit hash over a topology's compared fields. */
class TopologyHasher
{
  public:
    void add(uint64_t v)
    {
        h_ = (h_ ^ v) * 0x100000001b3ull;
        h_ ^= h_ >> 32;
    }
    void add(int64_t v) { add(static_cast<uint64_t>(v)); }
    void add(int v) { add(static_cast<int64_t>(v)); }
    void add(bool v) { add(static_cast<uint64_t>(v)); }
    void add(double v)
    {
        // -0.0 == 0.0 must hash alike.
        if (v == 0.0)
            v = 0.0;
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void add(const std::string &s)
    {
        add(static_cast<uint64_t>(std::hash<std::string>{}(s)));
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace

uint64_t
CycleSim::topologyHash() const
{
    TopologyHasher h;
    h.add(static_cast<uint64_t>(mems_.size()));
    for (const SimMemory &m : mems_) {
        h.add(m.name);
        h.add(m.capacityWords);
        h.add(m.readPorts);
        h.add(m.writePorts);
        h.add(m.prefilled);
    }
    h.add(static_cast<uint64_t>(sources_.size()));
    for (const SimSource &s : sources_) {
        h.add(s.name);
        h.add(s.totalWords);
        h.add(s.wordsPerCycle);
        h.add(s.memIdx);
    }
    h.add(static_cast<uint64_t>(units_.size()));
    for (const SimUnit &u : units_) {
        h.add(u.name);
        h.add(static_cast<uint64_t>(u.inputs.size()));
        for (const SimPort &p : u.inputs) {
            h.add(p.memIdx);
            h.add(p.needWords);
            h.add(p.readWords);
            h.add(p.retireWords);
            h.add(p.expectedWords);
        }
        h.add(u.outMemIdx);
        h.add(u.outWords);
        h.add(u.totalFires);
        h.add(u.latency);
    }
    return h.value();
}

CycleSimResult
CycleSimMemo::run(CycleSim &sim, int64_t max_cycles)
{
    const uint64_t hash = sim.topologyHash();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->hash != hash || it->result.cycles > max_cycles ||
            !it->sim.sameTopology(sim))
            continue;
        ++stats_.hits;
        std::rotate(entries_.begin(), it, std::next(it));
        CycleSimResult result = entries_.front().result;
        result.stats = {};
        return result;
    }
    ++stats_.misses;
    CycleSimResult result = sim.run(max_cycles); // throws: nothing stored
    if (entries_.size() == kCapacity)
        entries_.pop_back();
    entries_.insert(entries_.begin(), Entry{hash, sim, result});
    return result;
}

} // namespace camj
