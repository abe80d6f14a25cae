/**
 * @file
 * Transports for the matching service: a stdin/stdout (or any
 * iostream) line-protocol REPL, and a socket listener serving the
 * same protocol over unix-domain or loopback TCP connections.
 *
 * Both fronts share one command loop (serve connections are
 * stateless beyond their MatchService reference), so a scripted REPL
 * session in a test exercises exactly the code path a daemon client
 * hits. The socket server runs one thread per connection;
 * MatchService is internally synchronized, so concurrent clients
 * serialize on its mutex and share the one match cache — which is
 * the point: client B's cold submit hits entries client A populated.
 */
#ifndef SERVICE_SERVER_H
#define SERVICE_SERVER_H

#include <atomic>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.h"

namespace repro::service {

/**
 * Serve the line protocol over @p in / @p out until QUIT or EOF.
 * Returns the number of requests handled.
 */
size_t runRepl(MatchService &service, std::istream &in,
               std::ostream &out);

/** Listener configuration: set exactly one of the two endpoints. */
struct ServerOptions
{
    /** Unix-domain socket path ("" = disabled). Unlinked on stop. */
    std::string unixPath;
    /** Loopback TCP port (-1 = disabled, 0 = ephemeral). */
    int tcpPort = -1;

    // Overload protection: past either bound the daemon sheds load
    // with `BUSY retry_after_ms=<n>` instead of queueing unboundedly
    // (connections each cost a thread; SUBMITs each cost a solve).

    /** Concurrent connections admitted; excess get BUSY + close. */
    size_t maxConnections = 64;
    /**
     * SUBMITs allowed in flight at once. The gate is taken after the
     * payload is read (the stream stays in sync), so a shed SUBMIT
     * costs I/O but no compile/solve, and the connection survives.
     */
    size_t maxInFlight = 8;
    /** Client backoff hint carried by every BUSY response. */
    uint64_t busyRetryMs = 100;
};

/** The daemon's socket front. */
class SocketServer
{
  public:
    SocketServer(MatchService &service, ServerOptions opts);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /**
     * Bind, listen and spawn the accept thread. Throws FatalError on
     * any socket failure (already-bound path, privileged port, ...).
     */
    void start();

    /** Stop accepting, shut down live connections, join threads. */
    void stop();

    /** The bound TCP port (after start(); ephemeral ports resolved). */
    int boundTcpPort() const { return boundPort_; }

  private:
    void acceptLoop();
    void reapFinishedConnections();

    MatchService &service_;
    ServerOptions opts_;
    /** Atomic: the accept thread reads it while stop() retires it. */
    std::atomic<int> listenFd_{-1};
    int boundPort_ = -1;
    bool running_ = false;
    std::thread acceptThread_;

    /** Live (admitted, not yet finished) connections. */
    std::atomic<size_t> liveConnections_{0};
    /** SUBMITs currently compiling/solving (admission gate). */
    std::atomic<size_t> inFlight_{0};

    struct Connection;
    std::vector<std::unique_ptr<Connection>> connections_;
    std::mutex connMutex_;
};

} // namespace repro::service

#endif // SERVICE_SERVER_H
