#include "explore/sink.h"

#include <algorithm>

#include "common/logging.h"
#include "core/report.h"
#include "spec/json.h"

namespace camj
{

// -------------------------------------------------------- CollectSink

bool
CollectSink::accept(SweepResult result)
{
    results_.push_back(std::move(result));
    return true;
}

void
CollectSink::finish()
{
    std::sort(results_.begin(), results_.end(),
              [](const SweepResult &a, const SweepResult &b) {
                  return a.index < b.index;
              });
}

// ------------------------------------------------------- CallbackSink

CallbackSink::CallbackSink(Callback on_result, Finisher on_finish)
    : onResult_(std::move(on_result)), onFinish_(std::move(on_finish))
{
    if (!onResult_)
        fatal("CallbackSink: null result callback");
}

bool
CallbackSink::accept(SweepResult result)
{
    return onResult_(std::move(result));
}

void
CallbackSink::finish()
{
    if (onFinish_)
        onFinish_();
}

// -------------------------------------------------------- InOrderSink

bool
InOrderSink::accept(SweepResult result)
{
    if (result.index != nextIndex_) {
        pending_.emplace(result.index, std::move(result));
        return true;
    }
    if (!inner_.accept(std::move(result)))
        return false;
    ++nextIndex_;
    // Flush any consecutive run the early completion unblocked.
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == nextIndex_) {
        if (!inner_.accept(std::move(it->second)))
            return false;
        pending_.erase(it);
        it = pending_.begin();
        ++nextIndex_;
    }
    return true;
}

void
InOrderSink::finish()
{
    // A cancelled sweep can leave gaps; what's buffered past the gap
    // is dropped so the inner sink only ever sees a strict prefix.
    pending_.clear();
    inner_.finish();
}

// -------------------------------------------------------- ReindexSink

ReindexSink::ReindexSink(ResultSink &inner, Mapper map)
    : inner_(inner), map_(std::move(map))
{
    if (!map_)
        fatal("ReindexSink: null index mapper");
}

bool
ReindexSink::accept(SweepResult result)
{
    result.index = map_(result.index);
    return inner_.accept(std::move(result));
}

// ----------------------------------------------------------- TopKSink

TopKSink::TopKSink(size_t k)
    : k_(k)
{
    if (k_ < 1)
        fatal("TopKSink: k must be >= 1");
}

bool
TopKSink::accept(SweepResult result)
{
    if (!result.feasible) {
        ++dropped_;
        return true;
    }
    const Energy e = result.totalEnergy();
    auto pos = std::upper_bound(
        best_.begin(), best_.end(), e,
        [](Energy lhs, const SweepResult &rhs) {
            return lhs < rhs.totalEnergy();
        });
    if (best_.size() >= k_ && pos == best_.end()) {
        ++dropped_;
        return true;
    }
    best_.insert(pos, std::move(result));
    if (best_.size() > k_) {
        best_.pop_back();
        ++dropped_;
    }
    return true;
}

void
TopKSink::finish()
{
}

// ---------------------------------------------------------- JsonlSink

void
sweepResultToJsonl(const SweepResult &result, std::string &out)
{
    json::Writer w(out);
    w.beginObject();
    w.key("index");
    w.number(static_cast<double>(result.index));
    w.key("design");
    w.string(result.designName);
    w.key("feasible");
    w.boolean(result.feasible);
    if (!result.feasible) {
        w.key("error");
        w.string(result.error);
        if (!result.ruleCode.empty()) {
            w.key("ruleCode");
            w.string(result.ruleCode);
        }
        w.endObject();
        return;
    }
    w.key("frames");
    w.number(result.frames);
    w.key("frameEnergy");
    w.number(result.report.total());
    w.key("totalEnergy");
    w.number(result.totalEnergy());
    w.key("categories");
    w.beginObject();
    for (EnergyCategory cat : allEnergyCategories()) {
        w.key(energyCategoryName(cat));
        w.number(result.report.category(cat));
    }
    w.endObject();
    if (result.snrPenaltyDb != 0.0) {
        w.key("snrPenaltyDb");
        w.number(result.snrPenaltyDb);
    }
    w.endObject();
}

std::string
sweepResultToJsonl(const SweepResult &result)
{
    std::string line;
    // A feasible line is about 320 bytes: one allocation holds it.
    line.reserve(512);
    sweepResultToJsonl(result, line);
    return line;
}

bool
JsonlSink::accept(SweepResult result)
{
    line_.clear();
    sweepResultToJsonl(result, line_);
    line_ += '\n';
    out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
    if (!out_)
        fatal("JsonlSink: write failed after %zu line(s)", written_);
    ++written_;
    return true;
}

void
JsonlSink::finish()
{
    out_.flush();
}

} // namespace camj
