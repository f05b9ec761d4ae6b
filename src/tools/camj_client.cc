/**
 * @file
 * camj_client: the CLI of the sweep service. Submit a sweep document
 * and stream its merged results to a file (byte-identical to a local
 * `camj_sweep run` of the same document), query or cancel running
 * jobs, or wait for a daemon to come up:
 *
 *   camj_client ping --port 7070 --wait-sec 10
 *   camj_client submit study.json --port 7070 --out results.jsonl
 *   camj_client status job-1 --port 7070
 *   camj_client cancel job-1 --port 7070
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/cli.h"
#include "common/logging.h"
#include "serve/client.h"

using namespace camj;

namespace
{

int
usage(std::FILE *to)
{
    std::fprintf(to,
"usage:\n"
"  camj_client submit <sweep.json> --port P [options]\n"
"      submit and stream the merged results\n"
"      --out FILE     streamed result lines (default: stdout)\n"
"      --frames F     frames per design point (server default)\n"
"      --threads T    engine threads per worker (server default)\n"
"  camj_client status <job> --port P     one status frame\n"
"  camj_client cancel <job> --port P     fire the job's cancel token\n"
"  camj_client jobs --port P             every job's status\n"
"  camj_client ping --port P [--wait-sec S]\n"
"      exit 0 once the daemon answers (retrying up to S seconds)\n"
"  common options:\n"
"      --host ADDR    numeric IPv4 address (default 127.0.0.1)\n");
    return to == stdout ? 0 : 2;
}

const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s wants a value\n", argv[i]);
        std::exit(usage(stderr));
    }
    return argv[++i];
}

/** Whether a file can be written at @p path, found without creating
 *  one: the path is not a directory, and either names a writable file
 *  or has an existing writable directory as its parent. */
bool
canWriteFile(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path file(path);
    if (fs::is_directory(file, ec))
        return false;
    if (fs::exists(file, ec))
        return ::access(path.c_str(), W_OK) == 0;
    const fs::path parent =
        file.parent_path().empty() ? fs::path(".") : file.parent_path();
    return fs::is_directory(parent, ec) &&
           ::access(parent.c_str(), W_OK) == 0;
}

struct CommonArgs
{
    int port = 0;
    std::string host = "127.0.0.1";
};

} // namespace

int
main(int argc, char **argv)
{
    setLoggingEnabled(false);
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h" || cmd == "help")
        return usage(stdout);

    CommonArgs common;
    std::string positional, out_path;
    int frames = 0, threads = 0;
    double wait_sec = 0.0;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port")
            common.port = parseFlag<int>(
                "--port", flagValue(argc, argv, i), 0, 65535);
        else if (arg == "--host")
            common.host = flagValue(argc, argv, i);
        else if (arg == "--out")
            out_path = flagValue(argc, argv, i);
        else if (arg == "--frames")
            frames = parseFlag<int>("--frames", flagValue(argc, argv, i),
                                    1);
        else if (arg == "--threads")
            threads = parseFlag<int>("--threads", flagValue(argc, argv, i));
        else if (arg == "--wait-sec")
            wait_sec = static_cast<double>(
                parseFlag<int>("--wait-sec", flagValue(argc, argv, i)));
        else if (positional.empty() && arg[0] != '-')
            positional = arg;
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }
    if (common.port == 0) {
        std::fprintf(stderr, "error: --port is required\n");
        return usage(stderr);
    }

    try {
        if (cmd == "ping") {
            if (wait_sec > 0.0) {
                if (!serve::waitForServer(common.port, wait_sec,
                                          common.host)) {
                    std::fprintf(stderr, "error: no daemon on "
                                 "%s:%d after %.0f s\n",
                                 common.host.c_str(), common.port,
                                 wait_sec);
                    return 1;
                }
            } else {
                serve::Client client(common.port, common.host);
                client.ping();
            }
            std::printf("pong\n");
            return 0;
        }
        if (cmd == "submit") {
            if (positional.empty()) {
                std::fprintf(stderr,
                             "error: submit wants <sweep.json>\n");
                return usage(stderr);
            }
            std::ifstream in(positional, std::ios::binary);
            if (!in)
                fatal("client: cannot read '%s'",
                      positional.c_str());
            std::ostringstream buf;
            buf << in.rdbuf();

            // The --out file is opened once the job is accepted, so a
            // refused submission leaves none behind; one that could
            // not be opened then is refused before submitting.
            if (!out_path.empty() && !canWriteFile(out_path))
                fatal("client: cannot write '%s'", out_path.c_str());
            std::ofstream file;
            auto open_out = [&]() -> std::ostream & {
                if (out_path.empty())
                    return std::cout;
                file.open(out_path, std::ios::binary);
                if (!file)
                    fatal("client: cannot write '%s'",
                          out_path.c_str());
                return file;
            };
            serve::Client client(common.port, common.host);
            const serve::Client::SubmitOutcome outcome =
                client.submitAndStream(buf.str(), open_out, frames,
                                       threads);
            const std::string state =
                outcome.end.getString("state", "failed");
            // Human-readable reporting goes to stderr so stdout
            // stays clean when it carries the result stream.
            std::fprintf(stderr,
                         "%s: %s — %zu line(s), %lld worker "
                         "restart(s)\n",
                         outcome.jobId.c_str(), state.c_str(),
                         outcome.resultLines,
                         static_cast<long long>(outcome.end.getInt(
                             "workerRestarts", 0)));
            if (const json::Value *summary =
                    outcome.end.find("summary"))
                std::fputs(
                    summary->getString("text", "").c_str(), stderr);
            if (state != "done") {
                std::fprintf(stderr, "error: job %s: %s\n",
                             outcome.jobId.c_str(),
                             outcome.end.getString("error", state)
                                 .c_str());
                return 1;
            }
            return 0;
        }
        if (cmd == "status" || cmd == "cancel") {
            if (positional.empty()) {
                std::fprintf(stderr, "error: %s wants a job id\n",
                             cmd.c_str());
                return usage(stderr);
            }
            serve::Client client(common.port, common.host);
            const json::Value reply =
                cmd == "status" ? client.status(positional)
                                : client.cancel(positional);
            std::printf("%s\n", reply.dump(0).c_str());
            return 0;
        }
        if (cmd == "jobs") {
            serve::Client client(common.port, common.host);
            std::printf("%s\n", client.jobs().dump(0).c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "error: unknown subcommand '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}
