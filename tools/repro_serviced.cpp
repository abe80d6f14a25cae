/**
 * @file
 * The matching daemon: a persistent process serving the idiom
 * matching pipeline over the line protocol (docs/SERVICE.md).
 *
 * Modes:
 *   repro_serviced                 stdin/stdout REPL (the default)
 *   repro_serviced --unix=PATH     unix-domain socket listener
 *   repro_serviced --tcp=PORT      loopback TCP listener (0 = pick)
 *
 * Options:
 *   --capacity=N          match-cache entry bound (default 1024)
 *   --snapshot=PATH       persist the match cache: load it on start,
 *                         save on shutdown (crash-safe temp+rename)
 *   --autosave-ms=N       also save the snapshot every N ms (0 = off)
 *   --deadline-ms=N       default solve deadline per SUBMIT (0 = off;
 *                         clients override with DEADLINE_MS=)
 *   --max-connections=N   concurrent connections before BUSY-shedding
 *   --max-inflight=N      concurrent SUBMIT solves before BUSY
 *
 * All sessions share one fingerprint-keyed match cache, so repeated
 * or cross-client submissions of unchanged functions replay cached
 * matches instead of re-solving them. With --snapshot that cache
 * survives restarts — including kill -9, which at worst loses the
 * entries since the last committed autosave, never the snapshot file.
 *
 * Shutdown is crash-only: SIGTERM/SIGINT save the snapshot and
 * _exit(), skipping destructor teardown a kill -9 would skip anyway.
 */
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>

#include <unistd.h>

#include "driver/cache_snapshot.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "support/string_utils.h"

using namespace repro;

namespace {

/** Async-signal-safe shutdown request flag (SIGTERM / SIGINT). */
volatile std::sig_atomic_t g_shutdownRequested = 0;

void
onTerminate(int)
{
    g_shutdownRequested = 1;
}

void
logSnapshot(const char *what, const driver::SnapshotResult &result)
{
    std::fprintf(stderr,
                 "repro_serviced: snapshot %s: %s (%zu records, "
                 "%zu skipped, %llu bytes%s%s)\n",
                 what, result.ok ? "ok" : "failed", result.records,
                 result.skipped,
                 static_cast<unsigned long long>(result.bytes),
                 result.detail.empty() ? "" : "; ",
                 result.detail.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string unix_path;
    std::string snapshot_path;
    uint16_t tcp_port = 0;
    bool use_tcp = false;
    size_t capacity = driver::MatchCache::kDefaultCapacity;
    uint64_t autosave_ms = 0;
    uint64_t deadline_ms = 0;
    bool cost_model = false;
    service::ServerOptions server_opts;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        // Numeric flags take digits only, at most the target's
        // maximum: a misparsed limit must not silently become 0 or
        // wrap around.
        bool malformed = false;
        auto numeric = [&](const char *prefix, auto *out) {
            const size_t len = std::strlen(prefix);
            if (std::strncmp(arg, prefix, len) != 0)
                return false;
            malformed = !parseDecimal(arg + len, out);
            return true;
        };
        if (std::strncmp(arg, "--unix=", 7) == 0) {
            unix_path = arg + 7;
        } else if (numeric("--tcp=", &tcp_port)) {
            use_tcp = true;
        } else if (numeric("--capacity=", &capacity) ||
                   numeric("--autosave-ms=", &autosave_ms) ||
                   numeric("--deadline-ms=", &deadline_ms) ||
                   numeric("--max-connections=",
                           &server_opts.maxConnections) ||
                   numeric("--max-inflight=", &server_opts.maxInFlight)) {
            // numeric() stored the value.
        } else if (std::strncmp(arg, "--snapshot=", 11) == 0) {
            snapshot_path = arg + 11;
        } else if (std::strcmp(arg, "--cost-model") == 0) {
            cost_model = true;
        } else {
            malformed = true;
        }
        if (malformed) {
            std::fprintf(
                stderr,
                "usage: %s [--unix=PATH | --tcp=PORT] [--capacity=N]"
                " [--snapshot=PATH] [--autosave-ms=N]"
                " [--deadline-ms=N] [--max-connections=N]"
                " [--max-inflight=N] [--cost-model]\n",
                argv[0]);
            return 2;
        }
    }

    // A client that disconnects mid-response must cost one EPIPE
    // write error, not the whole daemon.
    std::signal(SIGPIPE, SIG_IGN);

    service::ServiceOptions opts;
    opts.cacheCapacity = capacity;
    opts.defaultDeadlineMillis = deadline_ms;
    if (cost_model)
        opts.backendPolicy = transform::BackendPolicy::CostModel;
    service::MatchService svc(opts);

    if (!snapshot_path.empty()) {
        auto result =
            driver::loadSnapshot(svc.cache(), snapshot_path);
        logSnapshot("load", result);
    }

    // Autosave: a plain interval thread; the final save on shutdown
    // is separate, so stopping it early loses nothing committed.
    std::mutex autosave_mutex;
    std::condition_variable autosave_cv;
    bool autosave_stop = false;
    std::thread autosave_thread;
    if (!snapshot_path.empty() && autosave_ms > 0) {
        autosave_thread = std::thread([&] {
            std::unique_lock<std::mutex> lock(autosave_mutex);
            while (!autosave_cv.wait_for(
                lock, std::chrono::milliseconds(autosave_ms),
                [&] { return autosave_stop; })) {
                lock.unlock();
                auto result =
                    driver::saveSnapshot(svc.cache(), snapshot_path);
                if (!result.ok)
                    logSnapshot("autosave", result);
                lock.lock();
            }
        });
    }

    auto stopAutosave = [&] {
        if (!autosave_thread.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(autosave_mutex);
            autosave_stop = true;
        }
        autosave_cv.notify_all();
        autosave_thread.join();
    };

    auto saveFinal = [&] {
        if (snapshot_path.empty())
            return;
        auto result =
            driver::saveSnapshot(svc.cache(), snapshot_path);
        logSnapshot("save", result);
    };

    if (unix_path.empty() && !use_tcp) {
        service::runRepl(svc, std::cin, std::cout);
        stopAutosave();
        saveFinal();
        return 0;
    }

    server_opts.unixPath = unix_path;
    server_opts.tcpPort = use_tcp ? tcp_port : -1;
    service::SocketServer server(svc, server_opts);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "repro_serviced: %s\n", e.what());
        return 1;
    }
    // sigaction without SA_RESTART: the handler must interrupt the
    // blocked stdin read below (std::signal's BSD semantics would
    // transparently restart it and the flag would go unnoticed until
    // the next line arrived).
    struct sigaction term_action;
    std::memset(&term_action, 0, sizeof(term_action));
    term_action.sa_handler = onTerminate;
    sigemptyset(&term_action.sa_mask);
    term_action.sa_flags = 0;
    sigaction(SIGTERM, &term_action, nullptr);
    sigaction(SIGINT, &term_action, nullptr);
    if (!unix_path.empty())
        std::fprintf(stderr, "repro_serviced: listening on %s\n",
                     unix_path.c_str());
    else
        std::fprintf(stderr, "repro_serviced: listening on "
                             "127.0.0.1:%d\n",
                     server.boundTcpPort());

    // The daemon runs until SIGTERM/SIGINT or until its controlling
    // terminal closes stdin (service management's usual teardown for
    // a foreground process); socket clients come and go meanwhile. A
    // signal interrupts the blocked read, so the flag set by the
    // handler is observed promptly with no signal-unsafe work done
    // inside the handler itself.
    std::string line;
    while (!g_shutdownRequested) {
        if (!std::getline(std::cin, line)) {
            // stdin is closed or exhausted — the usual shape under a
            // service manager (stdin=/dev/null). Keep serving until
            // a signal arrives instead of exiting on the spot.
            while (!g_shutdownRequested)
                ::pause();
            break;
        }
        if (line == "QUIT")
            break;
    }

    stopAutosave();
    saveFinal();
    if (g_shutdownRequested) {
        // Crash-only exit: the snapshot is committed, connection
        // threads may be mid-solve — _exit() skips their teardown
        // exactly as a crash would, which recovery must (and does)
        // tolerate anyway.
        std::fprintf(stderr, "repro_serviced: terminating on "
                             "signal\n");
        ::_exit(0);
    }
    server.stop();
    return 0;
}
