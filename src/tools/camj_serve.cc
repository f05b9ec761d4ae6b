/**
 * @file
 * camj_serve: the always-on sweep evaluation daemon. Clients submit
 * sweep documents over a line-oriented JSONL protocol on loopback
 * TCP (see docs/service.md); the daemon lints them, shards them
 * across a worker pool, survives worker death by re-dispatching the
 * hole, and streams merged in-order results back — byte-identical to
 * a local `camj_sweep run` of the same document.
 *
 *   camj_serve --port 0 --port-file port.txt --shards 4 &
 *   camj_client submit study.json --port $(cat port.txt) --out r.jsonl
 *
 * SIGTERM/SIGINT drain: in-flight jobs finish and flush their
 * streams, new submissions are rejected, then the daemon exits 0.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <signal.h>

#include "common/cli.h"
#include "common/logging.h"
#include "serve/server.h"

using namespace camj;

namespace
{

serve::Server *g_server = nullptr;

void
onSignal(int)
{
    // Async-signal-safe: requestStop only stores an atomic; the
    // accept loop notices within one poll slice and drains.
    if (g_server != nullptr)
        g_server->requestStop();
}

int
usage(std::FILE *to)
{
    std::fprintf(to,
"usage: camj_serve [options]\n"
"  --port P             TCP port on 127.0.0.1 (default 0: ephemeral)\n"
"  --port-file FILE     write the bound port (for --port 0 callers)\n"
"  --shards N           shards (= workers) per job (default 2)\n"
"  --threads T          engine threads per worker (default 1)\n"
"  --frames F           default frames per design point (default 1)\n"
"  --workers MODE       inprocess (default) or subprocess\n"
"  --sweep-bin PATH     camj_sweep binary (subprocess mode)\n"
"  --work-dir DIR       subprocess workers' attempt files and shard\n"
"                       descriptors (default: camj-serve-<pid> under\n"
"                       the temp dir; unused by in-process workers)\n"
"  --top K              end-of-stream top-K table size (default 5)\n"
"  --heartbeat-sec S    subprocess stall window (default 30)\n"
"  --max-attempts M     dispatch attempts per shard (default 3)\n"
"  --test-fail-shard K  deterministically fail shard K's first\n"
"                       attempt (repeatable; CI fault injection)\n");
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

} // namespace

int
main(int argc, char **argv)
{
    setLoggingEnabled(false);
    serve::ServerOptions options;
    std::string port_file;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        else if (arg == "--port")
            options.port = parseFlag<int>(
                "--port", flagValue(argc, argv, i), 0, 65535);
        else if (arg == "--port-file")
            port_file = flagValue(argc, argv, i);
        else if (arg == "--shards")
            options.scheduler.shards = parseFlag<size_t>(
                "--shards", flagValue(argc, argv, i));
        else if (arg == "--threads")
            options.scheduler.threadsPerWorker = parseFlag<int>(
                "--threads", flagValue(argc, argv, i));
        else if (arg == "--frames")
            options.scheduler.frames = parseFlag<int>(
                "--frames", flagValue(argc, argv, i), 1);
        else if (arg == "--workers") {
            const std::string mode = flagValue(argc, argv, i);
            if (mode == "inprocess")
                options.scheduler.subprocessWorkers = false;
            else if (mode == "subprocess")
                options.scheduler.subprocessWorkers = true;
            else {
                std::fprintf(stderr, "error: --workers wants "
                             "inprocess or subprocess, got '%s'\n",
                             mode.c_str());
                return usage(stderr);
            }
        } else if (arg == "--sweep-bin")
            options.scheduler.sweepBinary = flagValue(argc, argv, i);
        else if (arg == "--work-dir")
            options.scheduler.workDir = flagValue(argc, argv, i);
        else if (arg == "--top")
            options.scheduler.topK = parseFlag<size_t>(
                "--top", flagValue(argc, argv, i));
        else if (arg == "--heartbeat-sec")
            options.scheduler.heartbeatSeconds = static_cast<double>(
                parseFlag<int>("--heartbeat-sec",
                               flagValue(argc, argv, i)));
        else if (arg == "--max-attempts")
            options.scheduler.maxAttempts = parseFlag<size_t>(
                "--max-attempts", flagValue(argc, argv, i));
        else if (arg == "--test-fail-shard")
            options.scheduler.testFailShards.push_back(parseFlag<size_t>(
                "--test-fail-shard", flagValue(argc, argv, i)));
        else {
            std::fprintf(stderr, "error: unexpected argument '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    try {
        serve::Server server(std::move(options));
        g_server = &server;

        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = onSignal;
        ::sigaction(SIGTERM, &sa, nullptr);
        ::sigaction(SIGINT, &sa, nullptr);
        ::signal(SIGPIPE, SIG_IGN);

        if (!port_file.empty()) {
            std::ofstream pf(port_file, std::ios::binary);
            pf << server.port() << "\n";
            pf.flush();
            if (!pf)
                fatal("serve: cannot write port file '%s'",
                      port_file.c_str());
        }
        std::printf("camj_serve: listening on 127.0.0.1:%d\n",
                    server.port());
        std::fflush(stdout);
        server.serve();
        std::printf("camj_serve: drained %zu job(s), exiting\n",
                    server.registry().jobs().size());
        g_server = nullptr;
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
