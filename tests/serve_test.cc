/**
 * @file
 * Tests for the sweep evaluation service: the line protocol (framing
 * over real sockets, control/result discrimination, oversized-frame
 * rejection, hostile nesting), admission linting, and the service
 * contract itself — a served stream is byte-identical to a local
 * in-order run, including after a worker dies mid-sweep and its shard
 * is re-dispatched, with cancellation prompt and completed jobs
 * re-streamable from byte 0.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "explore/jsonl.h"
#include "explore/sweep.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "spec/samples.h"

namespace camj
{
namespace
{

namespace fs = std::filesystem;

class QuietLogging : public ::testing::Environment
{
  public:
    void SetUp() override { setLoggingEnabled(false); }
};

::testing::Environment *const quiet_env =
    ::testing::AddGlobalTestEnvironment(new QuietLogging);

/** A fresh per-test scratch directory under the gtest temp root. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("camj_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The same 12-point study shard_test uses: 4 rates x 3 buffer
 *  nodes, spanning both sides of the feasibility boundary. */
spec::SweepDocument
smallStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {
        {"rate", "fps",
         {json::Value(15.0), json::Value(30.0), json::Value(120.0),
          json::Value(960.0)}},
        {"node", "memories[ActBuf].nodeNm",
         {json::Value(110), json::Value(65), json::Value(45)}},
    };
    return doc;
}

/** @p doc as the parsed document a submit frame carries. */
json::Value
documentValue(const spec::SweepDocument &doc)
{
    return json::Value::parse(spec::toJson(doc));
}

/** The reference bytes: a single-process in-order run. */
std::string
singleProcessJsonl(const spec::SweepDocument &doc)
{
    std::ostringstream out;
    spec::GridSpecSource source = doc.source();
    JsonlSink lines(out);
    InOrderSink ordered(lines);
    SweepEngine engine(SweepOptions{.threads = 2});
    engine.runStream(source, ordered);
    return out.str();
}

/** True when @p dir is absent or holds no entry: in-process workers
 *  hand their lines over in memory, so the daemon writes no file. */
bool
absentOrEmpty(const fs::path &dir)
{
    return !fs::exists(dir) || fs::is_empty(dir);
}

/** A Server on an ephemeral loopback port with serve() running on
 *  its own thread; the destructor drains and joins. */
class ServerHarness
{
  public:
    explicit ServerHarness(serve::SchedulerOptions scheduler)
    {
        serve::ServerOptions options;
        options.port = 0;
        options.scheduler = std::move(scheduler);
        server_ = std::make_unique<serve::Server>(std::move(options));
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~ServerHarness()
    {
        server_->requestStop();
        thread_.join();
    }

    int port() const { return server_->port(); }
    serve::Server &server() { return *server_; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::thread thread_;
};

serve::SchedulerOptions
inProcessOptions(const fs::path &work_dir, size_t shards = 3)
{
    serve::SchedulerOptions options;
    options.shards = shards;
    options.threadsPerWorker = 1;
    options.workDir = work_dir.string();
    return options;
}

/** A raw loopback connection to @p port, or -1. A positive
 *  @p rcvbuf fixes the socket's receive buffer at that size. */
int
connectRaw(int port, int rcvbuf = 0)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (rcvbuf > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/**
 * A study whose stream outgrows any socket buffer: 8,000 points whose
 * lines each carry a 4,000-character axis name (about 4.3 KB a
 * line), so shard 0 of two alone streams some 17 MB — four times a
 * loopback socket's largest default send buffer (tcp_wmem, 4 MB),
 * plus the small receive buffer of a reader that stops reading. A
 * job streaming it cannot finish while its submitter reads nothing.
 */
spec::SweepDocument
outgrowingStudy()
{
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridAxis rate{std::string(4000, 'r'), "fps", {}};
    for (int f = 1; f <= 1000; ++f)
        rate.values.push_back(json::Value(static_cast<double>(f)));
    spec::GridAxis node{"node", "memories[ActBuf].nodeNm", {}};
    for (int nm : {180, 130, 110, 90, 65, 45, 32, 28})
        node.values.push_back(json::Value(nm));
    doc.grid.axes = {rate, node};
    return doc;
}

/** The receive buffer of a submitter that stops reading. */
constexpr int kSmallRcvbuf = 16 << 10;

/** Submit @p doc on the raw connection @p fd; @return the job id
 *  from the accepted frame. */
std::string
submitRaw(int fd, serve::LineReader &reader,
          const spec::SweepDocument &doc)
{
    json::Value submit = serve::makeFrame("submit");
    submit.set("doc", documentValue(doc));
    EXPECT_TRUE(serve::writeLine(fd, serve::frameLine(submit)));
    const std::optional<std::string> reply = reader.next();
    EXPECT_TRUE(reply.has_value());
    if (!reply)
        return "";
    const json::Value accepted = serve::parseFrame(*reply);
    EXPECT_EQ(accepted.getString("type", ""), "accepted") << *reply;
    return accepted.getString("job", "");
}

/** Read result lines off @p reader into @p bytes up to the next
 *  control frame (the end frame of a healthy stream), which is
 *  returned; null when the stream breaks first. */
json::Value
readToEnd(serve::LineReader &reader, std::string &bytes)
{
    while (std::optional<std::string> line = reader.next()) {
        if (serve::isControlFrame(*line))
            return serve::parseFrame(*line);
        bytes += *line + "\n";
    }
    return json::Value();
}

/** Attach to job @p id on a fresh connection with a `stream` frame
 *  and read it to its end frame. */
json::Value
restream(int port, const std::string &id, std::string &bytes)
{
    const int fd = connectRaw(port);
    EXPECT_GE(fd, 0);
    json::Value frame = serve::makeFrame("stream");
    frame.set("job", id);
    EXPECT_TRUE(serve::writeLine(fd, serve::frameLine(frame)));
    serve::LineReader reader(fd);
    json::Value end = readToEnd(reader, bytes);
    ::close(fd);
    return end;
}

// ------------------------------------------------------------- protocol

TEST(Protocol, LineReaderSurvivesPartialWritesCrlfAndNoFinalNewline)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Three lines — LF, CRLF, and an unterminated tail — delivered
    // one byte at a time to force partial reads on the other side.
    const std::string wire = "alpha\nbravo\r\n\r\ncharlie";
    std::thread writer([&] {
        for (char c : wire)
            ASSERT_TRUE(serve::writeAll(fds[0], &c, 1));
        ::close(fds[0]);
    });
    serve::LineReader reader(fds[1]);
    std::vector<std::string> lines;
    while (std::optional<std::string> line = reader.next())
        lines.push_back(*line);
    writer.join();
    ::close(fds[1]);
    // Blank lines (the bare CRLF) are skipped; \r is stripped; the
    // final line arrives without its newline.
    EXPECT_EQ(lines,
              (std::vector<std::string>{"alpha", "bravo", "charlie"}));
}

TEST(Protocol, LineReaderRejectsOversizedLines)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const std::string big(200, 'x');
    ASSERT_TRUE(serve::writeAll(fds[0], big.data(), big.size()));
    ::close(fds[0]);
    serve::LineReader reader(fds[1], 64);
    EXPECT_THROW(reader.next(), ConfigError);
    ::close(fds[1]);
}

TEST(Protocol, ControlFramesAreDistinguishedByTheirFirstMember)
{
    json::Value frame = serve::makeFrame("status");
    frame.set("job", std::string("job-1"));
    const std::string line = serve::frameLine(frame);
    // The insertion-ordered writer puts "type" first — the prefix
    // isControlFrame keys on.
    EXPECT_EQ(line.rfind("{\"type\":", 0), 0u) << line;
    EXPECT_TRUE(serve::isControlFrame(line));

    json::Value back = serve::parseFrame(line);
    EXPECT_EQ(back.at("type").asString(), "status");
    EXPECT_EQ(back.getString("job", ""), "job-1");

    // Result lines lead with '{"index":' and are NOT control frames.
    SweepResult result;
    result.index = 7;
    result.designName = "probe";
    const std::string result_line = sweepResultToJsonl(result);
    EXPECT_EQ(result_line.rfind("{\"index\":", 0), 0u) << result_line;
    EXPECT_FALSE(serve::isControlFrame(result_line));

    EXPECT_THROW(serve::parseFrame("not json"), ConfigError);
    EXPECT_THROW(serve::parseFrame("[1, 2]"), ConfigError);
    EXPECT_THROW(serve::parseFrame("{\"index\": 0}"), ConfigError);
}

// ------------------------------------------------------------ admission

TEST(Admission, StaticAnalysisErrorsRejectBeforeAnyWorkerRuns)
{
    const fs::path dir = scratchDir("serve_admit_lint");
    spec::SweepDocument doc = smallStudy();
    doc.base.mapping.pop_back(); // Classify unmapped: CAMJ-E008
    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir), registry);
    const serve::Scheduler::Admission adm =
        scheduler.submit(documentValue(doc));
    ASSERT_EQ(adm.job, nullptr);
    EXPECT_EQ(adm.reason, "static analysis found errors");
    bool saw_code = false;
    for (const analysis::Diagnostic &d : adm.diagnostics)
        saw_code = saw_code || d.code == "CAMJ-E008";
    EXPECT_TRUE(saw_code);
    EXPECT_TRUE(registry.jobs().empty());
}

TEST(Admission, RejectionReachesTheClientWithItsRuleCodes)
{
    const fs::path dir = scratchDir("serve_reject_client");
    ServerHarness harness(inProcessOptions(dir));
    spec::SweepDocument doc = smallStudy();
    doc.base.mapping.pop_back();
    serve::Client client(harness.port());
    std::ostringstream out;
    try {
        client.submitAndStream(spec::toJson(doc), out);
        FAIL() << "broken document not rejected";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("CAMJ-E008"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(out.str().empty());
}

TEST(Admission, NonObjectDocumentIsRejectedAndTheDaemonKeepsAnswering)
{
    const fs::path dir = scratchDir("serve_reject_non_object");
    ServerHarness harness(inProcessOptions(dir));
    const int fd = connectRaw(harness.port());
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    const std::pair<const char *, const char *> cases[] = {
        {"\"detector\"", "a string"}, {"[1, 2]", "an array"}};
    for (const auto &[doc, kind] : cases) {
        ASSERT_TRUE(serve::writeLine(
            fd, std::string("{\"type\": \"submit\", \"doc\": ") + doc +
                    "}"));
        const std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value()) << kind;
        const json::Value rejected = serve::parseFrame(*reply);
        EXPECT_EQ(rejected.getString("type", ""), "rejected") << *reply;
        EXPECT_EQ(rejected.getString("reason", ""),
                  "static analysis found errors")
            << *reply;
        const json::Value *diags = rejected.find("diagnostics");
        ASSERT_NE(diags, nullptr) << *reply;
        ASSERT_EQ(diags->asArray().size(), 1u) << *reply;
        const json::Value &d = diags->asArray()[0];
        EXPECT_EQ(d.getString("code", ""), "CAMJ-E018") << *reply;
        EXPECT_NE(d.getString("message", "").find(
                      std::string("json: member 'name' requested from ") +
                      kind + " value"),
                  std::string::npos)
            << *reply;
    }
    ASSERT_TRUE(serve::writeLine(
        fd, serve::frameLine(serve::makeFrame("ping"))));
    const std::optional<std::string> pong = reader.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(serve::parseFrame(*pong).getString("type", ""), "pong");
    ::close(fd);
}

TEST(Admission, SubmitAskingForMoreThreadsThanCoresIsRefused)
{
    // `threads` is client input that every shard's engine starts: a
    // submit asking for more than the host's cores, or for a count
    // that does not fit an int, is one error frame before anything
    // runs, and the connection keeps being served.
    const fs::path dir = scratchDir("serve_threads_bound");
    const spec::SweepDocument doc = smallStudy();
    ServerHarness harness(inProcessOptions(dir));
    const int fd = connectRaw(harness.port());
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    const unsigned cores =
        std::max(std::thread::hardware_concurrency(), 1u);
    const std::pair<const char *, json::Value> cases[] = {
        {"threads", json::Value(static_cast<int64_t>(cores) + 1)},
        {"threads", json::Value(static_cast<int64_t>(1) << 40)},
        {"frames", json::Value(static_cast<int64_t>(1) << 40)},
        {"threads", json::Value(1e19)},
    };
    for (const auto &[member, value] : cases) {
        json::Value submit = serve::makeFrame("submit");
        submit.set("doc", documentValue(doc));
        submit.set(member, value);
        ASSERT_TRUE(serve::writeLine(fd, serve::frameLine(submit)));
        const std::optional<std::string> reply = reader.next();
        ASSERT_TRUE(reply.has_value()) << member;
        const json::Value error = serve::parseFrame(*reply);
        EXPECT_EQ(error.getString("type", ""), "error") << *reply;
        EXPECT_NE(error.getString("message", "").find(member),
                  std::string::npos)
            << *reply;
    }
    ASSERT_TRUE(serve::writeLine(
        fd, serve::frameLine(serve::makeFrame("ping"))));
    const std::optional<std::string> pong = reader.next();
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(serve::parseFrame(*pong).getString("type", ""), "pong");
    ::close(fd);
    EXPECT_TRUE(harness.server().registry().jobs().empty());

    // One thread per worker is in bounds and streams the local bytes.
    serve::Client client(harness.port());
    std::ostringstream out;
    client.submitAndStream(spec::toJson(doc), out, 0, 1);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
}

// -------------------------------------------------------- the contract

TEST(ServedSweep, StreamedResultsAreByteIdenticalToALocalRun)
{
    const fs::path dir = scratchDir("serve_identity");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);

    EXPECT_EQ(out.str(), reference);
    EXPECT_EQ(outcome.resultLines, doc.grid.points());
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_EQ(outcome.accepted.getInt("points", 0),
              static_cast<int64_t>(doc.grid.points()));
    // The end frame carries the same summary a batch merge of the
    // local run's file reduces, to the last printed digit.
    const json::Value *summary = outcome.end.find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->getInt("records", 0),
              static_cast<int64_t>(doc.grid.points()));
    const fs::path local = dir.parent_path() / "serve_identity.jsonl";
    std::ofstream(local, std::ios::binary) << reference;
    std::ostringstream merged;
    EXPECT_EQ(summary->getString("text", ""),
              formatMergeSummary(mergeShardFiles({local.string()},
                                                 merged)));
    EXPECT_EQ(merged.str(), reference);
    EXPECT_TRUE(absentOrEmpty(dir));

    // With two engine threads per worker (where the host has two
    // cores), shard 0's lines are committed and written from the
    // engine's threads: the same bytes.
    if (std::thread::hardware_concurrency() >= 2) {
        std::ostringstream threaded;
        client.submitAndStream(spec::toJson(doc), threaded, 0, 2);
        EXPECT_EQ(threaded.str(), reference);
    }
}

TEST(ServedSweep, KilledWorkerIsRedispatchedAndTheStreamStaysExact)
{
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    // Shard 0 runs in place on the submitter's connection thread,
    // shards 1 and 2 on one attempt thread each. Shard 0's hole is
    // re-run in place; shard 1's on a new thread.
    for (const size_t shard : {0u, 1u}) {
        SCOPED_TRACE(shard);
        const fs::path dir =
            scratchDir(strprintf("serve_redispatch_%zu", shard));
        serve::SchedulerOptions options = inProcessOptions(dir);
        options.testFailShards = {shard}; // dies on attempt 1
        ServerHarness harness(std::move(options));
        serve::Client client(harness.port());
        std::ostringstream out;
        const serve::Client::SubmitOutcome outcome =
            client.submitAndStream(spec::toJson(doc), out);

        EXPECT_EQ(out.str(), reference);
        EXPECT_EQ(outcome.end.getString("state", ""), "done");
        EXPECT_EQ(outcome.end.getInt("workerRestarts", -1), 1);
        EXPECT_EQ(outcome.end.getInt("attemptThreads", -1),
                  shard == 0 ? 2 : 3);
        EXPECT_TRUE(absentOrEmpty(dir));
    }
}

TEST(ServedSweep, OverflowingPointStreamsAsOneCodedLineWithoutARestart)
{
    // 1e308 J per MIPI byte overflows the middle point's energy. It
    // is one infeasible CAMJ-D004 line, as in a local run, and no
    // worker fails on it.
    const fs::path dir = scratchDir("serve_overflow");
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    doc.grid.axes = {{"mipi", "mipi.energyPerByte",
                      {json::Value(1e-12), json::Value(1e308),
                       json::Value(2e-12)}}};
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), reference);
    EXPECT_EQ(outcome.resultLines, 3u);
    EXPECT_NE(reference.find("\"ruleCode\":\"CAMJ-D004\""),
              std::string::npos)
        << reference;
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_EQ(outcome.end.getInt("workerRestarts", -1), 0);
}

TEST(ServedSweep, ConcurrentJobsStreamTheLocalBytes)
{
    const fs::path dir = scratchDir("serve_concurrent");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));

    std::string streamed[2];
    std::string state[2];
    std::thread clients[2];
    for (int k = 0; k < 2; ++k) {
        clients[k] = std::thread([&, k] {
            serve::Client client(harness.port());
            std::ostringstream out;
            const serve::Client::SubmitOutcome outcome =
                client.submitAndStream(spec::toJson(doc), out);
            streamed[k] = out.str();
            state[k] = outcome.end.getString("state", "");
        });
    }
    for (std::thread &t : clients)
        t.join();
    for (int k = 0; k < 2; ++k) {
        EXPECT_EQ(streamed[k], reference) << "client " << k;
        EXPECT_EQ(state[k], "done") << "client " << k;
    }
}

TEST(ServedSweep, CompletedJobsRestreamFromByteZero)
{
    const fs::path dir = scratchDir("serve_restream");
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);

    ServerHarness harness(inProcessOptions(dir));
    std::string job_id;
    {
        serve::Client client(harness.port());
        std::ostringstream out;
        job_id = client.submitAndStream(spec::toJson(doc), out).jobId;
        ASSERT_EQ(out.str(), reference);
    }

    // A later attacher on a fresh connection replays the retained
    // spool from byte 0, then the end frame.
    std::string replayed;
    const json::Value end = restream(harness.port(), job_id, replayed);
    EXPECT_EQ(replayed, reference);
    EXPECT_EQ(end.getString("type", ""), "end");
    EXPECT_EQ(end.getString("state", ""), "done");
}

TEST(JobRegistry, KeepsTheNewestFinishedJobsAndEveryRunningOne)
{
    constexpr size_t kKept = serve::JobRegistry::kRetainedFinishedJobs;
    serve::JobRegistry registry;
    const auto running = registry.create();
    running->setState(serve::JobState::Running);
    std::vector<std::shared_ptr<serve::JobRecord>> finished;
    for (size_t i = 0; i < kKept + 10; ++i) {
        finished.push_back(registry.create());
        finished.back()->appendSpool("line\n");
        finished.back()->setState(serve::JobState::Done);
    }
    // This create drops the 10 oldest finished jobs: the registry
    // holds the running job, the newest kKept finished ones and the
    // new job.
    registry.create();
    EXPECT_EQ(registry.jobs().size(), kKept + 2);
    EXPECT_EQ(registry.find(running->id()), running);
    for (size_t i = 0; i < finished.size(); ++i) {
        EXPECT_EQ(registry.find(finished[i]->id()) != nullptr, i >= 10)
            << finished[i]->id();
    }
    // A holder of a dropped job still reads its whole spool.
    finished[0]->finishStream(serve::makeFrame("end"));
    size_t offset = 0;
    std::string spool;
    while (finished[0]->waitSpool(offset, spool)) {
    }
    EXPECT_EQ(spool, "line\n");
}

TEST(ServedSweep, OnlyTheNewestFinishedJobsAreKept)
{
    // More jobs than the registry keeps, one after another: the
    // oldest is unknown, the newest restreams from byte 0.
    constexpr size_t kKept = serve::JobRegistry::kRetainedFinishedJobs;
    const fs::path dir = scratchDir("serve_retention");
    const spec::SweepDocument doc = smallStudy();
    const std::string text = spec::toJson(doc);
    const std::string reference = singleProcessJsonl(doc);
    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    std::vector<std::string> ids;
    for (size_t k = 0; k < kKept + 2; ++k) {
        std::ostringstream out;
        ids.push_back(client.submitAndStream(text, out).jobId);
        ASSERT_EQ(out.str(), reference) << ids.back();
    }
    // The last submit dropped the oldest; the newest kKept that had
    // finished by then stay, plus the last one.
    EXPECT_EQ(harness.server().registry().jobs().size(), kKept + 1);
    try {
        client.status(ids.front());
        FAIL() << ids.front() << " is still known";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown job"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(client.status(ids[1]).getString("state", ""), "done");

    std::string replayed;
    restream(harness.port(), ids.back(), replayed);
    EXPECT_EQ(replayed, reference);
}

TEST(ServedSweep, DeeplyNestedFrameIsAnErrorAndTheDaemonKeepsAnswering)
{
    const fs::path dir = scratchDir("serve_deep_frame");
    ServerHarness harness(inProcessOptions(dir));
    const int fd = connectRaw(harness.port());
    ASSERT_GE(fd, 0);
    // A submit frame whose document nests 100,000 arrays deep: 200 KB,
    // far under the frame budget.
    const std::string frame = "{\"type\": \"submit\", \"doc\": " +
                              std::string(100000, '[') +
                              std::string(100000, ']') + "}";
    ASSERT_TRUE(serve::writeLine(fd, frame));
    serve::LineReader reader(fd);
    std::optional<std::string> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    const json::Value error = serve::parseFrame(*reply);
    EXPECT_EQ(error.getString("type", ""), "error");
    EXPECT_EQ(error.getString("code", ""), "CAMJ-E018") << *reply;
    // The frame object is the first level, so the 512th '[' (column
    // 26 + 512) opens level 513.
    EXPECT_NE(error.getString("message", "").find(
                  "json parse error at line 1, column 538: nesting "
                  "deeper than 512 levels"),
              std::string::npos)
        << *reply;

    // The same connection and a new one are both still served.
    ASSERT_TRUE(serve::writeLine(
        fd, serve::frameLine(serve::makeFrame("ping"))));
    reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(serve::parseFrame(*reply).getString("type", ""), "pong");
    ::close(fd);
    serve::Client client(harness.port());
    EXPECT_NO_THROW(client.ping());
}

TEST(ServedSweep, TruncatedFrameIsAnErrorCarryingItsRuleCode)
{
    const fs::path dir = scratchDir("serve_truncated_frame");
    ServerHarness harness(inProcessOptions(dir));
    const int fd = connectRaw(harness.port());
    ASSERT_GE(fd, 0);
    // A submit frame cut off inside its document.
    ASSERT_TRUE(serve::writeLine(
        fd, "{\"type\": \"submit\", \"doc\": {\"name\": \"cut"));
    serve::LineReader reader(fd);
    std::optional<std::string> reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    const json::Value error = serve::parseFrame(*reply);
    EXPECT_EQ(error.getString("type", ""), "error");
    EXPECT_EQ(error.getString("code", ""), "CAMJ-E018") << *reply;
    EXPECT_NE(error.getString("message", "").find("json parse error"),
              std::string::npos)
        << *reply;

    // The connection is still served.
    ASSERT_TRUE(serve::writeLine(
        fd, serve::frameLine(serve::makeFrame("ping"))));
    reply = reader.next();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(serve::parseFrame(*reply).getString("type", ""), "pong");
    ::close(fd);
}

TEST(ServedSweep, UnknownJobsAnswerAnErrorFrame)
{
    const fs::path dir = scratchDir("serve_unknown");
    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    try {
        client.status("job-99");
        FAIL() << "unknown job not reported";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown job"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServedSweep, CancelStopsARunningJobBeforeItFinishes)
{
    const fs::path dir = scratchDir("serve_cancel");
    // 48 rates x 7 nodes = 336 points on one single-threaded worker.
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    spec::GridAxis rate{"rate", "fps", {}};
    for (int f = 1; f <= 48; ++f)
        rate.values.push_back(json::Value(static_cast<double>(f)));
    spec::GridAxis node{"node", "memories[ActBuf].nodeNm", {}};
    for (int nm : {180, 130, 110, 90, 65, 45, 32})
        node.values.push_back(json::Value(nm));
    doc.grid.axes = {rate, node};

    serve::JobRegistry registry;
    serve::Scheduler scheduler(inProcessOptions(dir, 1), registry);
    serve::Scheduler::Admission adm =
        scheduler.submit(documentValue(doc));
    ASSERT_NE(adm.job, nullptr);
    // The job runs on this thread; the cancel fires while it runs,
    // as its first line commits.
    size_t writes = 0;
    scheduler.run(adm, [&](const std::string &) {
        ++writes;
        adm.job->cancel.cancel();
        return true;
    });
    EXPECT_EQ(writes, 1u);
    EXPECT_EQ(adm.job->state(), serve::JobState::Cancelled);
    EXPECT_LT(adm.job->pointsDone.load(), doc.grid.points());
    EXPECT_EQ(adm.job->endFrame().getString("state", ""),
              "cancelled");
}

TEST(ServedSweep, CancelFromAnotherConnectionStopsShardZeroInPlace)
{
    // The submitter reads one line and stops reading, so the job
    // blocks writing shard 0's lines to it; a cancel from a second
    // connection then ends the job before its last point.
    const fs::path dir = scratchDir("serve_cancel_remote");
    const spec::SweepDocument doc = outgrowingStudy();
    ServerHarness harness(inProcessOptions(dir, 2));
    const int fd = connectRaw(harness.port(), kSmallRcvbuf);
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    const std::string id = submitRaw(fd, reader, doc);
    const std::optional<std::string> first = reader.next();
    ASSERT_TRUE(first.has_value());
    ASSERT_FALSE(serve::isControlFrame(*first)) << *first;

    serve::Client control(harness.port());
    EXPECT_EQ(control.cancel(id).getString("type", ""), "cancelled");

    std::string rest;
    const json::Value end = readToEnd(reader, rest);
    ::close(fd);
    EXPECT_EQ(end.getString("state", ""), "cancelled");
    const size_t lines =
        1 + static_cast<size_t>(std::count(rest.begin(), rest.end(), '\n'));
    EXPECT_LT(lines, doc.grid.points());
    EXPECT_EQ(end.getInt("pointsDone", -1), static_cast<int64_t>(lines));
}

TEST(ServedSweep, StreamAttachedMidJobGetsTheSubmittersBytes)
{
    // The submitter reads one line and pauses, so the job cannot
    // finish; a `stream` attacher then replays the spool from byte 0
    // and follows it to the end.
    const fs::path dir = scratchDir("serve_attach_mid_job");
    const spec::SweepDocument doc = outgrowingStudy();
    ServerHarness harness(inProcessOptions(dir, 2));
    const int fd = connectRaw(harness.port(), kSmallRcvbuf);
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    const std::string id = submitRaw(fd, reader, doc);
    std::optional<std::string> first = reader.next();
    ASSERT_TRUE(first.has_value());

    std::string attached;
    json::Value attached_end;
    std::thread attacher([&] {
        attached_end = restream(harness.port(), id, attached);
    });
    std::string submitted = *first + "\n";
    const json::Value end = readToEnd(reader, submitted);
    attacher.join();
    ::close(fd);
    EXPECT_EQ(end.getString("state", ""), "done");
    EXPECT_EQ(attached_end.getString("state", ""), "done");
    EXPECT_EQ(static_cast<size_t>(std::count(submitted.begin(),
                                             submitted.end(), '\n')),
              doc.grid.points());
    EXPECT_TRUE(attached == submitted);
}

TEST(ServedSweep, SubmitterClosingMidStreamCancelsItsJob)
{
    const fs::path dir = scratchDir("serve_submitter_gone");
    const spec::SweepDocument doc = outgrowingStudy();
    ServerHarness harness(inProcessOptions(dir, 2));
    const int fd = connectRaw(harness.port(), kSmallRcvbuf);
    ASSERT_GE(fd, 0);
    serve::LineReader reader(fd);
    const std::string id = submitRaw(fd, reader, doc);
    ASSERT_TRUE(reader.next().has_value());
    ::close(fd);

    // The job's next write to the closed socket fails and cancels it.
    std::string spooled;
    const json::Value end = restream(harness.port(), id, spooled);
    EXPECT_EQ(end.getString("state", ""), "cancelled");
    EXPECT_LT(end.getInt("pointsDone", -1),
              static_cast<int64_t>(doc.grid.points()));
}

TEST(ServedSweep, OnePointJobStartsNoThread)
{
    // One point is one shard, evaluated in place on the submitter's
    // connection thread.
    const fs::path dir = scratchDir("serve_one_point");
    spec::SweepDocument doc;
    doc.base = spec::sampleDetectorSpec(30.0, 65);
    ServerHarness harness(inProcessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
    EXPECT_EQ(outcome.resultLines, 1u);
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_EQ(outcome.end.getInt("attemptThreads", -1), 0);
    EXPECT_EQ(client.status(outcome.jobId).getInt("attemptThreads", -1),
              0);
}

TEST(ServedSweep, InProcessMonitorWakesOnWorkerEventsNeverOnATimer)
{
    const spec::SweepDocument doc = smallStudy();
    const std::string reference = singleProcessJsonl(doc);
    // Healthy, then with shard 0 dying mid-shard: every line, verdict
    // and re-dispatch reaches the monitor as a worker event, so none
    // of its waits runs out (the heartbeat bound is 30 s).
    for (const std::vector<size_t> &fail :
         {std::vector<size_t>{}, std::vector<size_t>{0}}) {
        const fs::path dir = scratchDir(
            strprintf("serve_wake_%zu", fail.size()));
        serve::SchedulerOptions options = inProcessOptions(dir);
        options.testFailShards = fail;
        ServerHarness harness(std::move(options));
        serve::Client client(harness.port());
        std::ostringstream out;
        const serve::Client::SubmitOutcome outcome =
            client.submitAndStream(spec::toJson(doc), out);
        EXPECT_EQ(out.str(), reference) << fail.size();
        EXPECT_EQ(outcome.end.getString("state", ""), "done");
        EXPECT_EQ(outcome.end.getInt("workerRestarts", -1),
                  static_cast<int64_t>(fail.size()));
        EXPECT_EQ(outcome.end.getInt("monitorPolls", -1), 0);
        EXPECT_EQ(client.status(outcome.jobId).getInt("monitorPolls",
                                                     -1),
                  0);
    }
}

TEST(ServedSweep, BackToBackJobsEachStartOneThreadPerShardButTheFirst)
{
    // A job runs on its submitter's connection thread with shard 0 in
    // place: each of 32 jobs on one connection starts shards - 1
    // attempt threads and streams the local bytes.
    const fs::path dir = scratchDir("serve_back_to_back");
    const spec::SweepDocument doc = smallStudy();
    const std::string text = spec::toJson(doc);
    const std::string reference = singleProcessJsonl(doc);
    const serve::SchedulerOptions options = inProcessOptions(dir);
    const size_t shards = options.shards;
    ServerHarness harness(options);
    serve::Client client(harness.port());
    for (int k = 0; k < 32; ++k) {
        std::ostringstream out;
        const serve::Client::SubmitOutcome outcome =
            client.submitAndStream(text, out);
        EXPECT_EQ(out.str(), reference) << "job " << k;
        EXPECT_EQ(outcome.end.getInt("attemptThreads", -1),
                  static_cast<int64_t>(shards - 1))
            << "job " << k;
    }
}

TEST(Server, FinishedConnectionThreadsAreJoinedOnAccept)
{
    // Every client command opens a connection. Each accept joins the
    // threads of the connections that have ended, so however many
    // came and went, the daemon holds one thread per open connection
    // plus at most one that ended since the last accept.
    const fs::path dir = scratchDir("serve_connection_reap");
    ServerHarness harness(inProcessOptions(dir));
    for (int k = 0; k < 64; ++k) {
        const int fd = connectRaw(harness.port());
        ASSERT_GE(fd, 0);
        serve::LineReader reader(fd);
        ASSERT_TRUE(serve::writeLine(
            fd, serve::frameLine(serve::makeFrame("ping"))));
        ASSERT_TRUE(reader.next().has_value());
        EXPECT_LE(harness.server().connectionThreads(), 2u)
            << "connection " << k << " open";
        // Hang up, and wait for the daemon to close its end: the
        // connection's thread is done by then.
        ::shutdown(fd, SHUT_WR);
        EXPECT_FALSE(reader.next().has_value());
        ::close(fd);
        EXPECT_LE(harness.server().connectionThreads(), 1u)
            << "connection " << k << " closed";
    }
}

TEST(Shutdown, RequestStopEndsServeAtOnce)
{
    // requestStop() wakes the accept loop through its self-pipe, so a
    // daemon with nothing running drains without waiting out a poll
    // timeout (200 ms each time while the loop polled the socket
    // alone).
    const fs::path dir = scratchDir("serve_stop");
    for (int round = 0; round < 3; ++round) {
        serve::ServerOptions options;
        options.scheduler = inProcessOptions(dir);
        serve::Server server(std::move(options));
        std::thread loop([&server] { server.serve(); });
        {
            serve::Client client(server.port());
            client.ping();
        }
        const auto t0 = std::chrono::steady_clock::now();
        server.requestStop();
        loop.join();
        const auto waited = std::chrono::steady_clock::now() - t0;
        EXPECT_LT(waited, std::chrono::milliseconds(100))
            << "round " << round << ": serve() returned after "
            << std::chrono::duration<double, std::milli>(waited).count()
            << " ms";
    }
}

// ------------------------------------------------- subprocess workers

#ifdef CAMJ_SWEEP_BIN

serve::SchedulerOptions
subprocessOptions(const fs::path &work_dir)
{
    serve::SchedulerOptions options = inProcessOptions(work_dir, 2);
    options.subprocessWorkers = true;
    options.sweepBinary = CAMJ_SWEEP_BIN;
    options.heartbeatSeconds = 30.0;
    return options;
}

TEST(ServedSweep, SubprocessWorkersMatchTheLocalRun)
{
    const fs::path dir = scratchDir("serve_subprocess");
    const spec::SweepDocument doc = smallStudy();
    ServerHarness harness(subprocessOptions(dir));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
}

TEST(ServedSweep, SigkilledSubprocessIsRedispatchedGapFree)
{
    const fs::path dir = scratchDir("serve_subprocess_kill");
    const spec::SweepDocument doc = smallStudy();
    serve::SchedulerOptions options = subprocessOptions(dir);
    options.testFailShards = {1}; // SIGKILL shard 1's first attempt
    ServerHarness harness(std::move(options));
    serve::Client client(harness.port());
    std::ostringstream out;
    const serve::Client::SubmitOutcome outcome =
        client.submitAndStream(spec::toJson(doc), out);
    EXPECT_EQ(out.str(), singleProcessJsonl(doc));
    EXPECT_EQ(outcome.end.getString("state", ""), "done");
    EXPECT_GE(outcome.end.getInt("workerRestarts", 0), 1);
}

#endif // CAMJ_SWEEP_BIN

// ------------------------------------------------------ argument errors

#if defined(CAMJ_SERVE_BIN) && defined(CAMJ_CLIENT_BIN)

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** WEXITSTATUS of @p command run under a 20 s timeout (124 when it
 *  ran out), with stdout and stderr written to @p log. */
int
exitUnderTimeout(const std::string &command, const fs::path &log)
{
    const std::string cmd =
        "timeout 20 " + command + " > " + log.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CamjServeCli, OutOfRangeFlagIsAUsageError)
{
    // 4294967297 read into an int used to become 1: the daemon then
    // served with one frame per point instead of refusing the flag.
    const fs::path dir = scratchDir("serve_cli_range");
    const fs::path log = dir / "serve.log";
    EXPECT_EQ(exitUnderTimeout(std::string(CAMJ_SERVE_BIN) +
                                   " --port 0 --frames 4294967297",
                               log),
              2);
    EXPECT_NE(readFile(log).find("--frames wants an integer in [1, "),
              std::string::npos)
        << readFile(log);
}

TEST(CamjClientCli, OutOfRangeFlagIsAUsageError)
{
    // Refused before the document is read, the --out file opened or
    // a socket connected (no daemon listens on port 1).
    const fs::path dir = scratchDir("client_cli_range");
    std::ofstream(dir / "study.json") << spec::toJson(smallStudy());
    const fs::path out = dir / "out.jsonl";
    const fs::path log = dir / "client.log";
    EXPECT_EQ(exitUnderTimeout(std::string(CAMJ_CLIENT_BIN) + " submit " +
                                   (dir / "study.json").string() +
                                   " --port 1 --threads 4294967297" +
                                   " --out " + out.string(),
                               log),
              2);
    EXPECT_NE(readFile(log).find("--threads wants an integer in [0, "),
              std::string::npos)
        << readFile(log);
    EXPECT_FALSE(fs::exists(out));
}

TEST(CamjClientCli, RefusedSubmissionOpensNoOutFile)
{
    // --out is opened once the daemon accepts the job, so a refusal
    // leaves no file behind, as `camj_sweep run` leaves none.
    const fs::path dir = scratchDir("client_cli_refused");
    spec::SweepDocument doc = smallStudy();
    doc.base.mapping.pop_back(); // Classify unmapped: CAMJ-E008
    std::ofstream(dir / "study.json") << spec::toJson(doc);
    const fs::path out = dir / "out.jsonl";
    const fs::path log = dir / "client.log";
    ServerHarness harness(inProcessOptions(dir / "work"));
    EXPECT_EQ(exitUnderTimeout(std::string(CAMJ_CLIENT_BIN) + " submit " +
                                   (dir / "study.json").string() +
                                   " --port " +
                                   std::to_string(harness.port()) +
                                   " --out " + out.string(),
                               log),
              1);
    EXPECT_NE(readFile(log).find("CAMJ-E008"), std::string::npos)
        << readFile(log);
    EXPECT_FALSE(fs::exists(out));
}

TEST(CamjClientCli, UnwritableOutFileIsRefusedBeforeSubmitting)
{
    // An --out in a directory that does not exist used to fail only
    // once the daemon had accepted the job, which it then cancelled
    // part done.
    const fs::path dir = scratchDir("client_cli_unwritable");
    std::ofstream(dir / "study.json") << spec::toJson(smallStudy());
    const fs::path out = dir / "missing" / "out.jsonl";
    const fs::path log = dir / "client.log";
    ServerHarness harness(inProcessOptions(dir / "work"));
    EXPECT_EQ(exitUnderTimeout(std::string(CAMJ_CLIENT_BIN) + " submit " +
                                   (dir / "study.json").string() +
                                   " --port " +
                                   std::to_string(harness.port()) +
                                   " --out " + out.string(),
                               log),
              1);
    EXPECT_NE(readFile(log).find("cannot write"), std::string::npos)
        << readFile(log);
    EXPECT_FALSE(fs::exists(out));
    serve::Client client(harness.port());
    const json::Value jobs = client.jobs();
    ASSERT_NE(jobs.find("jobs"), nullptr) << jobs.dump(0);
    EXPECT_TRUE(jobs.find("jobs")->asArray().empty()) << jobs.dump(0);
}

#ifdef CAMJ_SWEEP_BIN
TEST(CamjClientCli, AcceptedJobWithoutLinesStillCreatesItsOutFile)
{
    // One shard with one attempt, whose subprocess is killed at spawn:
    // the job is accepted and fails before any line, and --out is
    // still created, empty.
    const fs::path dir = scratchDir("client_cli_no_lines");
    std::ofstream(dir / "study.json") << spec::toJson(smallStudy());
    const fs::path out = dir / "out.jsonl";
    const fs::path log = dir / "client.log";
    serve::SchedulerOptions options = subprocessOptions(dir / "work");
    options.shards = 1;
    options.maxAttempts = 1;
    options.testFailShards = {0};
    ServerHarness harness(std::move(options));
    EXPECT_EQ(exitUnderTimeout(std::string(CAMJ_CLIENT_BIN) + " submit " +
                                   (dir / "study.json").string() +
                                   " --port " +
                                   std::to_string(harness.port()) +
                                   " --out " + out.string(),
                               log),
              1);
    EXPECT_NE(readFile(log).find("0 line(s)"), std::string::npos)
        << readFile(log);
    ASSERT_TRUE(fs::exists(out)) << readFile(log);
    EXPECT_EQ(fs::file_size(out), 0u);
}
#endif // CAMJ_SWEEP_BIN

#endif // CAMJ_SERVE_BIN && CAMJ_CLIENT_BIN

} // namespace
} // namespace camj
