#include "serve/registry.h"

#include "common/logging.h"
#include "serve/protocol.h"

namespace camj::serve
{

const char *
jobStateName(JobState state)
{
    switch (state) {
    case JobState::Queued:
        return "queued";
    case JobState::Running:
        return "running";
    case JobState::Merging:
        return "merging";
    case JobState::Done:
        return "done";
    case JobState::Failed:
        return "failed";
    case JobState::Cancelled:
        return "cancelled";
    }
    panic("jobStateName: unknown state %d", static_cast<int>(state));
}

bool
JobRecord::terminal() const
{
    const JobState s = state();
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
}

void
JobRecord::appendSpool(const std::string &bytes)
{
    if (bytes.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spool_ += bytes;
    }
    cv_.notify_all();
}

void
JobRecord::finishStream(json::Value end_frame)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        streamDone_ = true;
        endFrame_ = std::move(end_frame);
    }
    cv_.notify_all();
}

bool
JobRecord::waitSpool(size_t &offset, std::string &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] {
        return spool_.size() > offset || streamDone_;
    });
    if (offset > spool_.size())
        panic("waitSpool: offset %zu past spool end %zu", offset,
              spool_.size());
    out.append(spool_, offset, spool_.size() - offset);
    offset = spool_.size();
    return !streamDone_;
}

json::Value
JobRecord::endFrame() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return endFrame_;
}

std::string
JobRecord::error() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return error_;
}

void
JobRecord::setError(const std::string &text)
{
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = text;
}

json::Value
JobRecord::statusFrame() const
{
    json::Value frame = makeFrame("status");
    frame.set("job", id_);
    frame.set("state", jobStateName(state()));
    frame.set("pointsTotal", static_cast<int64_t>(
                                 pointsTotal.load(
                                     std::memory_order_relaxed)));
    frame.set("pointsDone", static_cast<int64_t>(
                                pointsDone.load(
                                    std::memory_order_relaxed)));
    frame.set("workerRestarts",
              static_cast<int64_t>(
                  workerRestarts.load(std::memory_order_relaxed)));
    frame.set("monitorPolls",
              static_cast<int64_t>(
                  monitorPolls.load(std::memory_order_relaxed)));
    frame.set("pruned", static_cast<int64_t>(
                            prunedPoints.load(
                                std::memory_order_relaxed)));
    const std::string err = error();
    if (!err.empty())
        frame.set("error", err);
    return frame;
}

std::shared_ptr<JobRecord>
JobRegistry::create()
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t finished = 0;
    for (size_t i = jobs_.size(); i-- > 0;) {
        if (jobs_[i]->terminal() && ++finished > kRetainedFinishedJobs)
            jobs_.erase(jobs_.begin() + static_cast<ptrdiff_t>(i));
    }
    auto job = std::make_shared<JobRecord>(
        strprintf("job-%zu", nextId_++));
    jobs_.push_back(job);
    return job;
}

std::shared_ptr<JobRecord>
JobRegistry::find(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &job : jobs_) {
        if (job->id() == id)
            return job;
    }
    return nullptr;
}

std::vector<std::shared_ptr<JobRecord>>
JobRegistry::jobs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_;
}

size_t
JobRegistry::activeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto &job : jobs_) {
        if (!job->terminal())
            ++n;
    }
    return n;
}

} // namespace camj::serve
