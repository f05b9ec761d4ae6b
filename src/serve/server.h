/**
 * @file
 * The TCP front of the sweep service: a thread-per-connection accept
 * loop over BSD sockets, speaking the line protocol of
 * serve/protocol.h. Client -> server frames on one connection:
 *
 *   {"type":"submit","doc":{...},"frames":F,"threads":T}
 *       admit the embedded sweep document; on success the SAME
 *       connection streams the job — an "accepted" frame, then every
 *       merged result line verbatim as it commits, then the terminal
 *       "end" frame (summary/top-K or the failure). A rejected
 *       document answers one "rejected" frame carrying its CAMJ-*
 *       diagnostics.
 *   {"type":"status","job":"job-1"}   -> one "status" frame
 *   {"type":"cancel","job":"job-1"}   -> fires the job's CancelToken,
 *                                        answers "cancelled"
 *   {"type":"stream","job":"job-1"}   -> re-stream a job from byte 0
 *                                        (the spool is retained)
 *   {"type":"jobs"}                   -> "jobs" frame listing every
 *                                        job's status
 *   {"type":"ping"}                   -> "pong"
 *
 * A submit connection that drops mid-stream cancels its job (the
 * client is gone; finish the work nobody will read — no). Shutdown is
 * a drain: requestStop() (async-signal-safe — it stores an atomic and
 * writes one byte to a self-pipe the accept loop polls beside the
 * socket) stops the accept loop at once, new submits are rejected,
 * running jobs finish and their streams flush, then serve() returns.
 */

#ifndef CAMJ_SERVE_SERVER_H
#define CAMJ_SERVE_SERVER_H

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace camj::serve
{

/** How the server listens. */
struct ServerOptions
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (read it
     *  back via port()). */
    int port = 0;
    SchedulerOptions scheduler;
    size_t maxFrameBytes = kDefaultMaxFrameBytes;
};

/** The daemon: socket + registry + scheduler. */
class Server
{
  public:
    /** Binds and listens (loopback only). @throws ConfigError when
     *  the port cannot be bound. */
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The bound port (the ephemeral one under port 0). */
    int port() const { return port_; }

    /**
     * Accept loop; returns after requestStop() once every running
     * job has drained and every connection thread has exited.
     */
    void serve();

    /** Stop accepting and drain; wakes serve() at once.
     *  Async-signal-safe. */
    void requestStop();

    JobRegistry &registry() { return registry_; }
    Scheduler &scheduler() { return scheduler_; }

  private:
    void handleConnection(int fd);
    void handleSubmit(int fd, const json::Value &frame);

    ServerOptions options_;
    int listenFd_ = -1;
    /** Self-pipe: requestStop() writes a byte to wakeFds_[1], which
     *  ends serve()'s wait on wakeFds_[0]. */
    int wakeFds_[2] = {-1, -1};
    int port_ = 0;
    std::atomic<bool> stop_{false};
    JobRegistry registry_;
    Scheduler scheduler_;
    std::mutex connMutex_;
    std::vector<std::thread> connections_; // guarded by connMutex_
};

} // namespace camj::serve

#endif // CAMJ_SERVE_SERVER_H
