/**
 * @file
 * The client side of the sweep service protocol: one TCP connection,
 * blocking request/response plus the streamed submit. The streaming
 * rule that preserves byte-identity lives here: result lines (the
 * '{"index":' prefix) are forwarded to the output stream VERBATIM —
 * never parsed, never re-serialized — so the file a client writes is
 * the file a local `camj_sweep run` would have written.
 */

#ifndef CAMJ_SERVE_CLIENT_H
#define CAMJ_SERVE_CLIENT_H

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>

#include "serve/protocol.h"
#include "spec/json.h"

namespace camj::serve
{

/** A connected client. */
class Client
{
  public:
    /** Connect to 127.0.0.1:@p port (or @p host, a numeric IPv4
     *  address). @throws ConfigError when the connection fails. */
    explicit Client(int port, const std::string &host = "127.0.0.1");
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** What one streamed submit produced. */
    struct SubmitOutcome
    {
        std::string jobId;
        /** The "accepted" frame. */
        json::Value accepted;
        /** The terminal "end" frame (state done/failed/cancelled). */
        json::Value end;
        /** Result lines forwarded. */
        size_t resultLines = 0;
    };

    /**
     * Submit @p doc_text (a sweep document) and stream the job:
     * every merged result line is written verbatim (plus newline) to
     * @p out as it arrives. @p frames / @p threads override server
     * defaults when positive.
     *
     * @throws ConfigError on rejection (the message carries the
     *         server's reason and diagnostics) or a broken
     *         connection.
     */
    SubmitOutcome submitAndStream(const std::string &doc_text,
                                  std::ostream &out, int frames = 0,
                                  int threads = 0);

    /** The same, with the stream the lines go to opened by
     *  @p open_out once the daemon has accepted the job: a refused
     *  submission opens none (camj_client's --out file). */
    SubmitOutcome submitAndStream(
        const std::string &doc_text,
        const std::function<std::ostream &()> &open_out, int frames = 0,
        int threads = 0);

    /** One "status" frame for @p job. @throws ConfigError on an
     *  unknown job or connection failure. */
    json::Value status(const std::string &job);

    /** Fire @p job's CancelToken. @throws ConfigError. */
    json::Value cancel(const std::string &job);

    /** Every job's status. @throws ConfigError. */
    json::Value jobs();

    /** Round-trip a ping. @throws ConfigError. */
    void ping();

  private:
    /** Send @p frame, return the next CONTROL frame (result lines
     *  are a protocol error outside a stream). @throws ConfigError. */
    json::Value roundTrip(const json::Value &frame);

    int fd_ = -1;
    LineReader reader_;
};

/** True once a server answers a ping on @p port, retrying for up to
 *  @p timeout_seconds. The CI startup handshake. */
bool waitForServer(int port, double timeout_seconds,
                   const std::string &host = "127.0.0.1");

} // namespace camj::serve

#endif // CAMJ_SERVE_CLIENT_H
