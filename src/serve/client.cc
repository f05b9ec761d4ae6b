#include "serve/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"

namespace camj::serve
{

Client::Client(int port, const std::string &host)
    : reader_(-1)
{
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        fatal("client: socket failed: %s", std::strerror(errno));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd_);
        fd_ = -1;
        fatal("client: '%s' is not a numeric IPv4 address",
              host.c_str());
    }
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) < 0) {
        const int err = errno;
        ::close(fd_);
        fd_ = -1;
        fatal("client: cannot connect to %s:%d: %s", host.c_str(),
              port, std::strerror(err));
    }
    reader_ = LineReader(fd_);
}

Client::~Client()
{
    if (fd_ >= 0)
        ::close(fd_);
}

json::Value
Client::roundTrip(const json::Value &frame)
{
    if (!writeLine(fd_, frameLine(frame)))
        fatal("client: connection lost while sending");
    std::optional<std::string> line = reader_.next();
    if (!line)
        fatal("client: connection closed before the reply");
    if (!isControlFrame(*line))
        fatal("client: expected a control frame, got: %s",
              line->c_str());
    json::Value reply = parseFrame(*line);
    if (reply.at("type").asString() == "error")
        fatal("client: server error: %s",
              reply.getString("message", "").c_str());
    return reply;
}

Client::SubmitOutcome
Client::submitAndStream(const std::string &doc_text,
                        std::ostream &out, int frames, int threads)
{
    return submitAndStream(
        doc_text, [&out]() -> std::ostream & { return out; }, frames,
        threads);
}

Client::SubmitOutcome
Client::submitAndStream(const std::string &doc_text,
                        const std::function<std::ostream &()> &open_out,
                        int frames, int threads)
{
    json::Value submit = makeFrame("submit");
    submit.set("doc", json::Value::parse(doc_text));
    if (frames > 0)
        submit.set("frames", static_cast<int64_t>(frames));
    if (threads > 0)
        submit.set("threads", static_cast<int64_t>(threads));

    json::Value reply = roundTrip(submit);
    const std::string type = reply.at("type").asString();
    if (type == "rejected") {
        std::string text = reply.getString("reason", "rejected");
        if (const json::Value *diags = reply.find("diagnostics")) {
            for (const json::Value &d : diags->asArray())
                text += strprintf(
                    "\n  %s %s: %s",
                    d.getString("severity", "error").c_str(),
                    d.getString("code", "").c_str(),
                    d.getString("message", "").c_str());
        }
        fatal("client: submission rejected: %s", text.c_str());
    }
    if (type != "accepted")
        fatal("client: expected accepted/rejected, got '%s'",
              type.c_str());

    SubmitOutcome outcome;
    outcome.jobId = reply.getString("job", "");
    outcome.accepted = std::move(reply);
    std::ostream &out = open_out();

    for (;;) {
        std::optional<std::string> line = reader_.next();
        if (!line)
            fatal("client: connection closed mid-stream (job %s)",
                  outcome.jobId.c_str());
        if (!isControlFrame(*line)) {
            // A result line: forward the exact bytes.
            out << *line << "\n";
            if (!out)
                fatal("client: output write failed after %zu "
                      "line(s)", outcome.resultLines);
            ++outcome.resultLines;
            continue;
        }
        json::Value frame = parseFrame(*line);
        const std::string ft = frame.at("type").asString();
        if (ft == "end") {
            outcome.end = std::move(frame);
            break;
        }
        if (ft == "error")
            fatal("client: server error mid-stream: %s",
                  frame.getString("message", "").c_str());
        // Unknown interleaved control frames are ignored — room for
        // future progress frames without breaking old clients.
    }
    out.flush();
    return outcome;
}

json::Value
Client::status(const std::string &job)
{
    json::Value frame = makeFrame("status");
    frame.set("job", job);
    return roundTrip(frame);
}

json::Value
Client::cancel(const std::string &job)
{
    json::Value frame = makeFrame("cancel");
    frame.set("job", job);
    return roundTrip(frame);
}

json::Value
Client::jobs()
{
    return roundTrip(makeFrame("jobs"));
}

void
Client::ping()
{
    const json::Value reply = roundTrip(makeFrame("ping"));
    if (reply.at("type").asString() != "pong")
        fatal("client: expected pong, got '%s'",
              reply.at("type").asString().c_str());
}

bool
waitForServer(int port, double timeout_seconds,
              const std::string &host)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeout_seconds));
    for (;;) {
        try {
            Client client(port, host);
            client.ping();
            return true;
        } catch (const ConfigError &) {
            if (std::chrono::steady_clock::now() >= deadline)
                return false;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }
}

} // namespace camj::serve
