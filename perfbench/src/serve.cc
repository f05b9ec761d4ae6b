/**
 * @file
 * The served path: a camj_serve daemon started with its defaults on a
 * fresh work directory, and closed-loop client connections on
 * loopback. Untraced jobs go through serve::Client::submitAndStream,
 * the call `camj_client submit` makes; traced jobs drive the protocol
 * of serve/protocol.h frame by frame so each phase can be timed.
 */
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "perfbench.h"
#include "serve/client.h"
#include "serve/protocol.h"

extern char **environ;

using namespace camj;

namespace perfbench
{

// ------------------------------------------------------------ processes

Spawned
spawnForLine(std::vector<std::string> args)
{
    int out[2];
    if (::pipe2(out, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], 1);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(out[1]);
    if (rc != 0) {
        ::close(out[0]);
        throw std::runtime_error("cannot start " + args[0] + ": " +
                                 std::strerror(rc));
    }
    Spawned child;
    child.pid = pid;
    char c = 0;
    while (child.line.find('\n') == std::string::npos) {
        const ssize_t n = ::read(out[0], &c, 1);
        if (n == 1)
            child.line.push_back(c);
        else if (n < 0 && errno == EINTR)
            continue;
        else
            break;
    }
    ::close(out[0]);
    return child;
}

// -------------------------------------------------------------- daemon

Daemon::Daemon(const std::string &binary, const std::string &dir)
    : dir_(dir)
{
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/work");
    spawned_ = Clock::now();
    const Spawned child =
        spawnForLine({binary, "--port", "0", "--work-dir", dir_ + "/work"});
    pid_ = child.pid;
    // The daemon prints its port once it listens; read that line
    // instead of polling, then one ping proves it serves.
    const size_t colon = child.line.rfind(':');
    if (child.line.find("listening") == std::string::npos ||
        colon == std::string::npos)
        throw std::runtime_error("camj_serve did not start: '" +
                                 child.line + "'");
    port_ = std::atoi(child.line.c_str() + colon + 1);
    serve::Client(port_).ping();
    ready_ = Clock::now();
}

Daemon::~Daemon()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
}

double
Daemon::stop()
{
    ::kill(pid_, SIGTERM);
    int status = 0;
    struct rusage usage;
    std::memset(&usage, 0, sizeof usage);
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("camj_serve did not drain cleanly");
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- clients

namespace
{

/** An output stream target that keeps the bytes and stamps the
 *  first write (the first result line). */
class StampBuf : public std::streambuf
{
  public:
    std::string bytes;
    bool any = false;
    Clock::time_point first;

  protected:
    std::streamsize xsputn(const char *s, std::streamsize n) override
    {
        stamp();
        bytes.append(s, static_cast<size_t>(n));
        return n;
    }

    int_type overflow(int_type ch) override
    {
        if (!traits_type::eq_int_type(ch, traits_type::eof())) {
            stamp();
            bytes.push_back(traits_type::to_char_type(ch));
        }
        return traits_type::not_eof(ch);
    }

  private:
    void stamp()
    {
        if (!any)
            first = Clock::now();
        any = true;
    }
};

/** A raw protocol connection for the traced run. */
class Connection
{
  public:
    explicit Connection(int port) : reader_(-1)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("socket failed");
        struct sockaddr_in addr;
        std::memset(&addr, 0, sizeof addr);
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof addr) < 0) {
            ::close(fd_);
            throw std::runtime_error("connect failed");
        }
        reader_ = serve::LineReader(fd_);
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    void send(const std::string &line)
    {
        if (!serve::writeLine(fd_, line))
            throw std::runtime_error("connection lost while sending");
    }

    std::string receive()
    {
        std::optional<std::string> line = reader_.next();
        if (!line)
            throw std::runtime_error("connection closed mid-job");
        return std::move(*line);
    }

  private:
    int fd_ = -1;
    serve::LineReader reader_;
};

void
finishEnd(ServedRun &run, const json::Value &end)
{
    run.workerRestarts = static_cast<long>(end.getInt("workerRestarts", 0));
    const std::string state = end.getString("state", "");
    if (state != "done")
        run.error = "job ended " + state + ": " + end.getString("error", "");
}

ServedRun
plainSubmit(serve::Client &client, const Job &job)
{
    ServedRun run;
    StampBuf buf;
    std::ostream out(&buf);
    run.start = Clock::now();
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(job.text, out);
    run.endSeconds = secondsBetween(run.start, Clock::now());
    run.bytes = std::move(buf.bytes);
    run.lines = outcome.resultLines;
    if (buf.any)
        run.firstSeconds = secondsBetween(run.start, buf.first);
    finishEnd(run, outcome.end);
    return run;
}

ServedRun
tracedSubmit(Connection &conn, const Job &job, Trace &trace,
             size_t job_index)
{
    ServedRun run;
    json::Value submit = serve::makeFrame("submit");
    submit.set("doc", json::Value::parse(job.text));
    const std::string frame = serve::frameLine(submit);

    run.start = Clock::now();
    const long root = trace.open("job", -1, job_index, run.start);
    conn.send(frame);
    const json::Value reply = serve::parseFrame(conn.receive());
    const Clock::time_point accepted = Clock::now();
    trace.add("serve.admit", root, job_index, run.start, accepted);
    if (reply.at("type").asString() != "accepted")
        throw std::runtime_error("submission " +
                                 reply.at("type").asString() + ": " +
                                 reply.getString("reason", ""));
    Clock::time_point first = accepted;
    Clock::time_point last = accepted;
    for (;;) {
        std::string line = conn.receive();
        const Clock::time_point now = Clock::now();
        if (!serve::isControlFrame(line)) {
            if (run.lines++ == 0)
                first = now;
            last = now;
            run.bytes += line;
            run.bytes += '\n';
            continue;
        }
        const json::Value f = serve::parseFrame(line);
        const std::string type = f.at("type").asString();
        if (type == "error")
            throw std::runtime_error("server error: " +
                                     f.getString("message", ""));
        if (type != "end")
            continue;
        trace.add("serve.first_line", root, job_index, accepted, first);
        trace.add("serve.stream", root, job_index, first, last);
        trace.add("serve.end", root, job_index, last, now);
        trace.close(root, now);
        run.firstSeconds = secondsBetween(run.start, first);
        run.endSeconds = secondsBetween(run.start, now);
        finishEnd(run, f);
        return run;
    }
}

} // namespace

ServedRun
submitOnce(int port, const Job &job, Trace *trace, size_t job_index)
{
    try {
        if (trace != nullptr) {
            Connection conn(port);
            return tracedSubmit(conn, job, *trace, job_index);
        }
        serve::Client client(port);
        return plainSubmit(client, job);
    } catch (const std::exception &e) {
        ServedRun run;
        run.error = e.what();
        return run;
    }
}

std::vector<ServedRun>
runServedJobs(int port, const JobList &list, size_t count,
              size_t clients, Trace *trace)
{
    std::vector<ServedRun> runs(count);
    std::vector<Trace> traces(clients);
    // Connect before the clock starts; a connection that breaks is
    // replaced before its next job.
    std::vector<std::unique_ptr<serve::Client>> plain(clients);
    std::vector<std::unique_ptr<Connection>> raw(clients);
    for (size_t c = 0; c < clients; ++c) {
        if (trace != nullptr)
            raw[c] = std::make_unique<Connection>(port);
        else
            plain[c] = std::make_unique<serve::Client>(port);
    }

    auto client_loop = [&](size_t c) {
        for (size_t i = c; i < count; i += clients) {
            try {
                if (trace != nullptr) {
                    if (!raw[c])
                        raw[c] = std::make_unique<Connection>(port);
                    runs[i] = tracedSubmit(*raw[c], list.job(i), traces[c], i);
                } else {
                    if (!plain[c])
                        plain[c] = std::make_unique<serve::Client>(port);
                    runs[i] = plainSubmit(*plain[c], list.job(i));
                }
            } catch (const std::exception &e) {
                runs[i].error = e.what();
                raw[c].reset();
                plain[c].reset();
            }
        }
    };

    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c)
        threads.emplace_back(client_loop, c);
    for (std::thread &t : threads)
        t.join();
    if (trace != nullptr) {
        for (const Trace &t : traces)
            trace->append(t);
    }
    return runs;
}

} // namespace perfbench
