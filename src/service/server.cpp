#include "service/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <exception>
#include <istream>
#include <ostream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "service/protocol.h"
#include "support/diagnostics.h"

namespace repro::service {

namespace {

/**
 * Transport seam of the command loop: line- and byte-granular reads
 * plus buffered writes, implemented over iostreams (REPL) and file
 * descriptors (sockets).
 */
class LineIO
{
  public:
    virtual ~LineIO() = default;
    /** One line, without the trailing newline (CR stripped). */
    virtual bool readLine(std::string *line) = 0;
    /** Exactly @p n bytes (the counted SUBMIT payload). */
    virtual bool readBytes(char *buf, size_t n) = 0;
    virtual bool write(const std::string &data) = 0;
};

class StreamIO final : public LineIO
{
  public:
    StreamIO(std::istream &in, std::ostream &out) : in_(in), out_(out)
    {}

    bool
    readLine(std::string *line) override
    {
        if (!std::getline(in_, *line))
            return false;
        if (!line->empty() && line->back() == '\r')
            line->pop_back();
        return true;
    }

    bool
    readBytes(char *buf, size_t n) override
    {
        in_.read(buf, static_cast<std::streamsize>(n));
        return static_cast<size_t>(in_.gcount()) == n;
    }

    bool
    write(const std::string &data) override
    {
        out_ << data;
        out_.flush();
        return static_cast<bool>(out_);
    }

  private:
    std::istream &in_;
    std::ostream &out_;
};

class FdIO final : public LineIO
{
  public:
    explicit FdIO(int fd) : fd_(fd) {}

    bool
    readLine(std::string *line) override
    {
        line->clear();
        for (;;) {
            if (pos_ == buffer_.size() && !fill())
                return !line->empty();
            char c = buffer_[pos_++];
            if (c == '\n') {
                if (!line->empty() && line->back() == '\r')
                    line->pop_back();
                return true;
            }
            // Bound the line buffer: a client streaming gigabytes
            // without a newline must not OOM the daemon. Excess bytes
            // are consumed but dropped; the truncated line then fails
            // request parsing.
            if (line->size() < kMaxPayloadBytes)
                line->push_back(c);
        }
    }

    bool
    readBytes(char *buf, size_t n) override
    {
        size_t got = 0;
        while (got < n) {
            if (pos_ == buffer_.size() && !fill())
                return false;
            size_t take =
                std::min(n - got, buffer_.size() - pos_);
            std::memcpy(buf + got, buffer_.data() + pos_, take);
            pos_ += take;
            got += take;
        }
        return true;
    }

    bool
    write(const std::string &data) override
    {
        size_t sent = 0;
        while (sent < data.size()) {
            // MSG_NOSIGNAL: a client that vanished between our read
            // and this write must yield EPIPE, not a process-fatal
            // SIGPIPE (the daemon additionally ignores SIGPIPE, but
            // a library user of SocketServer may not).
            ssize_t n = ::send(fd_, data.data() + sent,
                               data.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

  private:
    bool
    fill()
    {
        char chunk[4096];
        ssize_t n;
        do {
            n = ::read(fd_, chunk, sizeof(chunk));
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        buffer_.assign(chunk, chunk + n);
        pos_ = 0;
        return true;
    }

    int fd_;
    std::string buffer_;
    size_t pos_ = 0;
};

void
writeLines(LineIO &io, const std::vector<std::string> &lines)
{
    std::string block;
    for (const auto &line : lines) {
        block += line;
        block += '\n';
    }
    io.write(block);
}

enum class PayloadStatus
{
    Ok,
    Truncated, ///< stream ended inside the payload
    TooLarge,  ///< payload exceeds kMaxPayloadBytes
};

/**
 * Read the SUBMIT payload: counted bytes, or heredoc lines up to the
 * terminator. Truncated payloads tear the connection down —
 * resynchronizing inside a half-read payload is impossible. Payloads
 * over kMaxPayloadBytes fail: an oversized heredoc is drained to its
 * terminator (bounded memory) so the connection stays usable, while
 * an oversized counted payload is rejected before any allocation and
 * before any of its bytes are read (the caller must then close, since
 * the unread bytes would be misparsed as requests).
 */
PayloadStatus
readPayload(LineIO &io, const Request &request, std::string *source)
{
    if (!request.terminator.empty()) {
        std::string line;
        source->clear();
        bool overflow = false;
        for (;;) {
            if (!io.readLine(&line))
                return PayloadStatus::Truncated;
            if (line == request.terminator) {
                return overflow ? PayloadStatus::TooLarge
                                : PayloadStatus::Ok;
            }
            if (overflow)
                continue;
            if (source->size() + line.size() + 1 > kMaxPayloadBytes) {
                overflow = true;
                continue;
            }
            *source += line;
            *source += '\n';
        }
    }
    if (request.payloadBytes > kMaxPayloadBytes)
        return PayloadStatus::TooLarge;
    source->resize(request.payloadBytes);
    if (request.payloadBytes != 0 &&
        !io.readBytes(&(*source)[0], request.payloadBytes))
        return PayloadStatus::Truncated;
    return PayloadStatus::Ok;
}

/**
 * In-flight SUBMIT gate shared by a server's connections. nullptr
 * (the REPL) admits everything.
 */
struct AdmissionGate
{
    std::atomic<size_t> &inFlight;
    size_t maxInFlight;
    uint64_t busyRetryMs;

    /** Try to take a slot; the caller must release() iff true. */
    bool
    acquire()
    {
        size_t cur = inFlight.load();
        do {
            if (cur >= maxInFlight)
                return false;
        } while (!inFlight.compare_exchange_weak(cur, cur + 1));
        return true;
    }

    void release() { --inFlight; }
};

std::string
busyLine(uint64_t retryMs)
{
    return "BUSY retry_after_ms=" + std::to_string(retryMs) + "\n";
}

/** The shared command loop; returns the number of requests served. */
size_t
serveConnection(MatchService &service, LineIO &io,
                AdmissionGate *gate = nullptr)
{
    size_t requests = 0;
    std::string line;
    while (io.readLine(&line)) {
        // Blank lines are tolerated so a counted SUBMIT payload may
        // end with a courtesy newline.
        if (tokenize(line).empty())
            continue;
        ++requests;
        // One request must never take the connection's siblings down:
        // any exception escaping the dispatch (solver FatalError,
        // bad_alloc, ...) would otherwise propagate through the
        // connection thread into std::terminate. In-sync guarantees
        // are gone at that point, so fail this connection only.
        try {
        Request request = parseRequest(line);
        switch (request.verb) {
          case Request::Verb::Hello: {
            io.write("OK service=repro-match protocol=" +
                     std::to_string(kProtocolVersion) + " idiomset=" +
                     hashToken(idioms::idiomSetHash()) + "\n");
            break;
          }
          case Request::Verb::Submit: {
            std::string source;
            switch (readPayload(io, request, &source)) {
              case PayloadStatus::Truncated:
                io.write("ERR truncated SUBMIT payload\n");
                return requests;
              case PayloadStatus::TooLarge:
                io.write("ERR payload too large (max " +
                         std::to_string(kMaxPayloadBytes) +
                         " bytes)\n");
                // A drained heredoc leaves the stream in sync; an
                // unread counted payload cannot.
                if (request.terminator.empty())
                    return requests;
                break;
              case PayloadStatus::Ok: {
                // The gate is taken only now, with the payload fully
                // consumed: shedding earlier would leave unread
                // payload bytes to be misparsed as request lines.
                if (gate && !gate->acquire()) {
                    service.noteShedSubmit();
                    io.write(busyLine(gate->busyRetryMs));
                    break;
                }
                SubmitOutcome outcome;
                try {
                    outcome = service.submit(request.module, source,
                                             request.deadlineMillis);
                } catch (...) {
                    if (gate)
                        gate->release();
                    throw;
                }
                if (gate)
                    gate->release();
                writeLines(io, formatSubmitResponse(outcome));
                break;
              }
            }
            break;
          }
          case Request::Verb::Matches: {
            SubmitOutcome outcome;
            if (service.lastOutcome(request.module, &outcome))
                writeLines(io, formatSubmitResponse(outcome));
            else
                io.write("ERR unknown module: " + request.module +
                         "\n");
            break;
          }
          case Request::Verb::Stats:
            io.write(formatStats(service.cacheCounters(),
                                 service.cacheSize(),
                                 service.cacheCapacity(),
                                 service.sessionCount(),
                                 service.serviceCounters()) +
                     "\n");
            break;
          case Request::Verb::Capacity:
            service.setCacheCapacity(request.capacity);
            io.write("OK capacity=" +
                     std::to_string(service.cacheCapacity()) + "\n");
            break;
          case Request::Verb::Drop:
            io.write(std::string("OK dropped=") +
                     (service.drop(request.module) ? "1" : "0") +
                     "\n");
            break;
          case Request::Verb::Reset:
            service.reset();
            io.write("OK\n");
            break;
          case Request::Verb::Quit:
            io.write("OK bye\n");
            return requests;
          case Request::Verb::Invalid:
            io.write("ERR " + request.error + "\n");
            break;
        }
        } catch (const std::exception &e) {
            io.write(std::string("ERR internal error: ") + e.what() +
                     "\n");
            return requests;
        }
    }
    return requests;
}

} // namespace

size_t
runRepl(MatchService &service, std::istream &in, std::ostream &out)
{
    StreamIO io(in, out);
    return serveConnection(service, io);
}

/** One live socket connection and its handler thread. */
struct SocketServer::Connection
{
    std::atomic<int> fd{-1};
    std::thread thread;
    /**
     * Set by the handler after it closed its fd (under connMutex_):
     * the accept loop may then join the thread and free the slot.
     */
    std::atomic<bool> done{false};
};

SocketServer::SocketServer(MatchService &service, ServerOptions opts)
    : service_(service), opts_(std::move(opts))
{}

SocketServer::~SocketServer()
{
    stop();
}

void
SocketServer::start()
{
    if (running_)
        throw FatalError("SocketServer::start: already running");
    const bool unixMode = !opts_.unixPath.empty();
    if (unixMode == (opts_.tcpPort >= 0)) {
        throw FatalError("SocketServer: configure exactly one of "
                         "unixPath / tcpPort");
    }

    if (unixMode) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (opts_.unixPath.size() >= sizeof(addr.sun_path))
            throw FatalError("SocketServer: unix path too long");
        listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            throw FatalError("SocketServer: socket() failed");
        ::unlink(opts_.unixPath.c_str());
        std::strncpy(addr.sun_path, opts_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw FatalError("SocketServer: bind(" + opts_.unixPath +
                             ") failed");
        }
    } else {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd_ < 0)
            throw FatalError("SocketServer: socket() failed");
        int one = 1;
        ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<uint16_t>(opts_.tcpPort));
        if (::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            ::close(listenFd_);
            listenFd_ = -1;
            throw FatalError("SocketServer: bind(port " +
                             std::to_string(opts_.tcpPort) +
                             ") failed");
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            boundPort_ = ntohs(bound.sin_port);
    }

    if (::listen(listenFd_, 16) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        throw FatalError("SocketServer: listen() failed");
    }
    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
SocketServer::acceptLoop()
{
    for (;;) {
        int lfd = listenFd_.load();
        if (lfd < 0)
            return; // retired by stop()
        int fd = ::accept(lfd, nullptr, nullptr);
        if (fd < 0)
            return; // listen fd closed by stop()

        // Retire finished handlers first: without reaping, a flood of
        // short-lived connections would grow connections_ (and keep
        // one exited-but-unjoined thread each) without bound.
        reapFinishedConnections();

        // Connection-count admission: shed with a backoff hint
        // instead of accumulating a thread per flood connection. The
        // BUSY write is best-effort — the client may already be gone.
        if (liveConnections_.load() >= opts_.maxConnections) {
            service_.noteShedConnection();
            std::string busy = busyLine(opts_.busyRetryMs);
            (void)!::send(fd, busy.data(), busy.size(),
                          MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }

        ++liveConnections_;
        auto conn = std::make_unique<Connection>();
        Connection *raw = conn.get();
        raw->fd.store(fd);
        raw->thread = std::thread([this, raw] {
            try {
                FdIO io(raw->fd.load());
                AdmissionGate gate{inFlight_, opts_.maxInFlight,
                                   opts_.busyRetryMs};
                serveConnection(service_, io, &gate);
            } catch (...) {
                // Last-resort backstop: an exception escaping a
                // detached-from-main handler would std::terminate
                // the whole daemon.
            }
            // Close under connMutex_ so stop() can never observe the
            // fd between this close and a kernel-side reuse of its
            // number (its shutdown pass holds the same mutex).
            {
                std::lock_guard<std::mutex> lock(connMutex_);
                int cfd = raw->fd.exchange(-1);
                if (cfd >= 0)
                    ::close(cfd);
            }
            --liveConnections_;
            // Last: after this store the accept loop may join us.
            raw->done.store(true);
        });
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.push_back(std::move(conn));
    }
}

void
SocketServer::reapFinishedConnections()
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        auto split = std::stable_partition(
            connections_.begin(), connections_.end(),
            [](const std::unique_ptr<Connection> &c) {
                return !c->done.load();
            });
        for (auto it = split; it != connections_.end(); ++it)
            finished.push_back(std::move(*it));
        connections_.erase(split, connections_.end());
    }
    // Join outside connMutex_: a handler's own close takes that
    // mutex, and done=true only proves it is past the close, not
    // that the thread has fully exited.
    for (auto &conn : finished) {
        if (conn->thread.joinable())
            conn->thread.join();
    }
}

void
SocketServer::stop()
{
    if (!running_)
        return;
    running_ = false;
    // Closing the listen fd unblocks accept(); shutting down live
    // connection fds unblocks their reads. Handlers close their own
    // fds, so stop() only ever shuts down (never double-closes), and
    // connMutex_ serializes this pass against those closes — a
    // handler cannot close (and the kernel recycle) an fd between
    // our load and shutdown.
    int lfd = listenFd_.exchange(-1);
    if (lfd >= 0) {
        ::shutdown(lfd, SHUT_RDWR);
        ::close(lfd);
    }
    acceptThread_.join();
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (auto &conn : connections_) {
            int fd = conn->fd.load();
            if (fd >= 0)
                ::shutdown(fd, SHUT_RDWR);
        }
    }
    for (auto &conn : connections_) {
        if (conn->thread.joinable())
            conn->thread.join();
    }
    connections_.clear();
    if (!opts_.unixPath.empty())
        ::unlink(opts_.unixPath.c_str());
    boundPort_ = -1;
}

} // namespace repro::service
