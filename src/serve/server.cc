#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analysis/diagnostic.h"
#include "common/logging.h"

namespace camj::serve
{

namespace
{

/**
 * Stream @p job's spool from byte 0, then the terminal end frame: a
 * `stream` attacher's view of a job another connection runs. The
 * spool only ever grows and is retained after completion, so a late
 * attacher replays the identical byte sequence.
 *
 * @return false when the peer went away mid-stream.
 */
bool
streamJob(int fd, JobRecord &job)
{
    size_t offset = 0;
    for (;;) {
        std::string chunk;
        const bool more = job.waitSpool(offset, chunk);
        if (!chunk.empty() &&
            !writeAll(fd, chunk.data(), chunk.size()))
            return false;
        if (!more)
            break;
    }
    return writeLine(fd, frameLine(job.endFrame()));
}

bool
sendError(int fd, const std::string &message, const char *code = nullptr)
{
    json::Value err = makeFrame("error");
    if (code != nullptr)
        err.set("code", code);
    err.set("message", message);
    return writeLine(fd, frameLine(err));
}

/** The error frame for @p e; a ConfigError names its rule code, as
 *  a rejected frame's diagnostics do. */
bool
sendError(int fd, const std::exception &e)
{
    const auto *config = dynamic_cast<const ConfigError *>(&e);
    return sendError(fd, e.what(), config ? config->code() : nullptr);
}

/** The number member @p key of @p frame, rounded, 0 when absent.
 *  @throws ConfigError when it is not a number or does not fit an
 *  int. */
int
intMember(const json::Value &frame, const char *key)
{
    const json::Value *member = frame.find(key);
    const double v = member ? std::round(member->asNumber()) : 0.0;
    if (!(v >= std::numeric_limits<int>::min() &&
          v <= std::numeric_limits<int>::max()))
        fatal(Rule::E018, "submit: %s %.17g does not fit an int", key,
              v);
    return static_cast<int>(v);
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(options_.scheduler, registry_)
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: socket failed: %s", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: cannot bind 127.0.0.1:%d: %s", options_.port,
              std::strerror(err));
    }
    if (::listen(listenFd_, 16) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: listen failed: %s", std::strerror(err));
    }
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) < 0)
        fatal("serve: getsockname failed: %s",
              std::strerror(errno));
    port_ = static_cast<int>(ntohs(addr.sin_port));
    // Non-blocking, so a signal handler's write never blocks: a full
    // pipe already wakes the loop.
    if (::pipe2(wakeFds_, O_CLOEXEC | O_NONBLOCK) < 0) {
        const int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: pipe failed: %s", std::strerror(err));
    }
}

Server::~Server()
{
    requestStop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    scheduler_.drain();
    joinConnections(false);
    for (int &fd : wakeFds_) {
        ::close(fd);
        fd = -1;
    }
}

void
Server::requestStop()
{
    stop_.store(true, std::memory_order_relaxed);
    // write() is async-signal-safe. A write that fails finds the pipe
    // full, so the loop is already woken; errno is restored for the
    // code a signal interrupted.
    const int saved = errno;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakeFds_[1], &byte, 1);
    errno = saved;
}

void
Server::serve()
{
    while (!stop_.load(std::memory_order_relaxed)) {
        struct pollfd p[2];
        p[0].fd = listenFd_;
        p[1].fd = wakeFds_[0];
        for (struct pollfd &q : p) {
            q.events = POLLIN;
            q.revents = 0;
        }
        const int rc = ::poll(p, 2, -1);
        if (stop_.load(std::memory_order_relaxed))
            break;
        if (rc <= 0 || p[0].revents == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        // The daemon answers a submit with many small writes (the
        // accepted frame, result chunks, the end frame) to a client
        // that sends nothing back until the end: under Nagle a small
        // write queued behind unacknowledged data waits for the
        // client's delayed ACK.
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        // Each connection that has ended since the last accept is
        // joined here, so a long-lived daemon holds a thread per open
        // connection, not one per connection it ever accepted.
        joinConnections(true);
        std::lock_guard<std::mutex> lock(connMutex_);
        Connection &conn = connections_.emplace_back();
        conn.thread = std::thread([this, fd, &conn] {
            handleConnection(fd);
            conn.done.store(true, std::memory_order_release);
            ::close(fd);
        });
    }
    // Drain: running jobs finish on their connection threads and
    // flush their streams; new submits have been rejected since
    // stop_ fired (the scheduler refuses once drained). Then the
    // connection threads — streamers complete naturally, idle
    // readers observe stop_ within one poll slice.
    scheduler_.drain();
    joinConnections(false);
}

void
Server::joinConnections(bool finished_only)
{
    std::list<Connection> taken;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto it = connections_.begin(); it != connections_.end();) {
            const auto next = std::next(it);
            if (!finished_only ||
                it->done.load(std::memory_order_acquire))
                taken.splice(taken.end(), connections_, it);
            it = next;
        }
    }
    for (Connection &conn : taken)
        conn.thread.join();
}

size_t
Server::connectionThreads() const
{
    std::lock_guard<std::mutex> lock(connMutex_);
    return connections_.size();
}

void
Server::handleConnection(int fd)
{
    try {
        LineReader reader(fd, options_.maxFrameBytes, &stop_);
        while (std::optional<std::string> line = reader.next()) {
            json::Value frame;
            try {
                frame = parseFrame(*line);
            } catch (const ConfigError &e) {
                if (!sendError(fd, e))
                    return;
                continue;
            }
            const std::string type = frame.at("type").asString();
            if (type == "ping") {
                if (!writeLine(fd, frameLine(makeFrame("pong"))))
                    return;
            } else if (type == "submit") {
                handleSubmit(fd, frame);
            } else if (type == "status") {
                const std::string id = frame.getString("job", "");
                const auto job = registry_.find(id);
                if (job == nullptr) {
                    if (!sendError(fd, strprintf("unknown job '%s'",
                                                 id.c_str())))
                        return;
                } else if (!writeLine(fd,
                                      frameLine(job->statusFrame()))) {
                    return;
                }
            } else if (type == "cancel") {
                const std::string id = frame.getString("job", "");
                const auto job = registry_.find(id);
                if (job == nullptr) {
                    if (!sendError(fd, strprintf("unknown job '%s'",
                                                 id.c_str())))
                        return;
                } else {
                    job->cancel.cancel();
                    json::Value ack = makeFrame("cancelled");
                    ack.set("job", id);
                    if (!writeLine(fd, frameLine(ack)))
                        return;
                }
            } else if (type == "stream") {
                const std::string id = frame.getString("job", "");
                const auto job = registry_.find(id);
                if (job == nullptr) {
                    if (!sendError(fd, strprintf("unknown job '%s'",
                                                 id.c_str())))
                        return;
                } else if (!streamJob(fd, *job)) {
                    // A re-streamer going away does not cancel the
                    // job — the submitter may still be attached.
                    return;
                }
            } else if (type == "jobs") {
                json::Value reply = makeFrame("jobs");
                json::Value arr = json::Value::makeArray();
                for (const auto &job : registry_.jobs())
                    arr.push(job->statusFrame());
                reply.set("jobs", std::move(arr));
                if (!writeLine(fd, frameLine(reply)))
                    return;
            } else {
                if (!sendError(fd,
                               strprintf("unknown frame type '%s'",
                                         type.c_str())))
                    return;
            }
        }
    } catch (const std::exception &e) {
        // An oversized line or a protocol invariant violation:
        // answer best-effort, then drop the connection.
        sendError(fd, e);
    }
}

void
Server::handleSubmit(int fd, const json::Value &frame)
{
    const json::Value *doc = frame.find("doc");
    if (doc == nullptr) {
        sendError(fd, "submit needs a \"doc\" member carrying the "
                      "sweep document");
        return;
    }
    // Client input, checked before anything starts: every shard's
    // engine starts `threads` threads.
    int frames = 0, threads = 0;
    try {
        frames = intMember(frame, "frames");
        threads = intMember(frame, "threads");
    } catch (const ConfigError &e) {
        sendError(fd, e);
        return;
    }
    const unsigned cores =
        std::max(std::thread::hardware_concurrency(), 1u);
    if (threads > 0 && static_cast<unsigned>(threads) > cores) {
        sendError(fd, strprintf("submit asks for %d threads per worker "
                                "but the host has %u core(s)",
                                threads, cores));
        return;
    }
    Scheduler::Admission adm = scheduler_.submit(*doc, frames, threads);
    if (adm.job == nullptr) {
        json::Value rej = makeFrame("rejected");
        rej.set("reason", adm.reason);
        json::Value diags = json::Value::makeArray();
        for (const analysis::Diagnostic &d : adm.diagnostics) {
            json::Value item = json::Value::makeObject();
            item.set("code", d.code);
            item.set("severity",
                     analysis::severityName(d.severity));
            if (!d.path.empty())
                item.set("path", d.path);
            item.set("message", d.message);
            diags.push(std::move(item));
        }
        rej.set("diagnostics", std::move(diags));
        writeLine(fd, frameLine(rej));
        return;
    }
    json::Value acc = makeFrame("accepted");
    acc.set("job", adm.job->id());
    acc.set("points", static_cast<int64_t>(adm.points));
    acc.set("pruned", static_cast<int64_t>(adm.pruned));
    // The job runs on this thread and writes each commit here. The
    // submitter going away cancels its job: nobody is left to read
    // the stream.
    bool connected = writeLine(fd, frameLine(acc));
    if (!connected)
        adm.job->cancel.cancel();
    scheduler_.run(adm, [fd, &connected](const std::string &bytes) {
        return connected = writeAll(fd, bytes.data(), bytes.size());
    });
    if (connected)
        writeLine(fd, frameLine(adm.job->endFrame()));
}

} // namespace camj::serve
