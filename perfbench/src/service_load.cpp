/**
 * @file
 * service-edit and service-churn: a closed-loop client drives an
 * in-process SocketServer + MatchService over a unix socket with the
 * line protocol, the way an editor integration would. One unit is one
 * SUBMIT round trip.
 *
 * Each client owns a ten-function module whose only constants are one
 * knob per function. An edit sets a knob to a value never used before
 * and of the client's parity, so an edited function always misses,
 * clients never share a function body, and the cache behaviour of
 * each client does not depend on how clients interleave.
 *   service-edit:  each SUBMIT edits 1-2 seeded functions. CAPACITY
 *                  256 holds the live functions, so every unchanged
 *                  function replays while old bodies age out.
 *   service-churn: each SUBMIT edits all ten functions and CAPACITY 8
 *                  is below the ten live functions, so every function
 *                  is solved, stored and later evicted.
 *
 * Oracle: every response must be a well-formed OK listing ten
 * functions, with exactly the unedited ones replayed from the cache; a
 * seeded sample of SUBMITs has its MATCH lines compared with a
 * cache-less cold MatchingDriver solve of the same source.
 */
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <tuple>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench.h"
#include "driver/driver.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

using namespace repro;

namespace pb {

namespace {

constexpr int kFunctions = 10;
/** At most this many SUBMITs per client go through the cold oracle. */
constexpr size_t kMaxSamplesPerClient = 200;

/** The client module; knob k[f] is the only constant of function f. */
std::string
moduleSource(const std::vector<int64_t> &k)
{
    std::ostringstream os;
    os << "void reduce_sum(double *a, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 64 + k[0] << "; i++)\n"
          "        s = s + a[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void dot(double *a, double *b, double *out) {\n"
          "    double s = 0.0;\n"
          "    for (int i = 0; i < " << 64 + k[1] << "; i++)\n"
          "        s = s + a[i] * b[i];\n"
          "    out[0] = s;\n"
          "}\n"
          "void histogram(int *keys, int *bins) {\n"
          "    for (int i = 0; i < " << 64 + k[2] << "; i++)\n"
          "        bins[keys[i]] = bins[keys[i]] + 1;\n"
          "}\n"
          "void blur3(double *in, double *out) {\n"
          "    for (int i = 1; i < " << 64 + k[3] << "; i++)\n"
          "        out[i] = in[i - 1] + in[i] + in[i + 1];\n"
          "}\n"
          "void matmul(double *a, double *b, double *c) {\n"
          "    for (int i = 0; i < " << 8 + k[4] << "; i++)\n"
          "        for (int j = 0; j < 16; j++) {\n"
          "            double s = 0.0;\n"
          "            for (int p = 0; p < 16; p++)\n"
          "                s = s + a[i * 16 + p] * b[p * 16 + j];\n"
          "            c[i * 16 + j] = s;\n"
          "        }\n"
          "}\n"
          "void scale(double *a, double *out) {\n"
          "    for (int i = 0; i < 256; i++)\n"
          "        out[i] = a[i] * " << k[5] << ".0;\n"
          "}\n"
          "void axpy(double *x, double *y, double *out) {\n"
          "    for (int i = 0; i < " << 64 + k[6] << "; i++)\n"
          "        out[i] = 3.0 * x[i] + y[i];\n"
          "}\n"
          "int clamp_low(int x) {\n"
          "    if (x < " << k[7] << ")\n"
          "        return " << k[7] << ";\n"
          "    return x;\n"
          "}\n"
          "int mix(int a, int b) {\n"
          "    return a * " << 3 + k[8] << " + b;\n"
          "}\n"
          "void fill(int *a) {\n"
          "    for (int i = 0; i < 128; i++)\n"
          "        a[i] = " << k[9] << ";\n"
          "}\n";
    return os.str();
}

/** Blocking unix-socket line client with a read buffer. */
class Connection
{
  public:
    ~Connection() { close(); }

    bool
    open(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0) {
            close();
            return false;
        }
        return true;
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        buf_.clear();
        pos_ = 0;
    }

    bool
    send(const std::string &data)
    {
        size_t sent = 0;
        while (sent < data.size()) {
            ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += size_t(n);
        }
        return true;
    }

    bool
    readLine(std::string *line)
    {
        for (;;) {
            size_t nl = buf_.find('\n', pos_);
            if (nl != std::string::npos) {
                line->assign(buf_, pos_, nl - pos_);
                pos_ = nl + 1;
                if (pos_ == buf_.size()) {
                    buf_.clear();
                    pos_ = 0;
                }
                return true;
            }
            char chunk[8192];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk),
                               poll_ ? MSG_DONTWAIT : 0);
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                continue;
            if (n <= 0)
                return false;
            buf_.append(chunk, size_t(n));
        }
    }

    /**
     * Wait for a reply by polling instead of blocking. A client woken
     * from sleep adds the host's wake-up latency (milliseconds on a
     * loaded virtual machine) to every round trip it times; a polling
     * client keeps a CPU busy.
     */
    void setPolling(bool on) { poll_ = on; }

  private:
    int fd_ = -1;
    bool poll_ = false;
    std::string buf_;
    size_t pos_ = 0;
};

/** Value of "key=" in an OK line, or -1. */
double
field(const std::string &line, const char *key)
{
    std::string needle = std::string(" ") + key + "=";
    size_t at = line.find(needle);
    return at == std::string::npos
               ? -1
               : std::atof(line.c_str() + at + needle.size());
}

struct Sample
{
    std::string source;
    std::vector<std::string> matchLines; ///< sorted
};

/** One SUBMIT as the client saw it. */
struct Reply
{
    double roundTripMs = 0;
    double compileMs = 0;
    double matchMs = 0;
    bool busy = false;
    bool ok = false;
};

struct Client
{
    int index = 0;
    Connection conn;
    Rng rng{0};
    std::vector<int64_t> knobs;
    int64_t fresh = 0;
    uint64_t submits = 0;
    uint64_t streamHash = kFnvBasis;
    uint64_t hits = 0, misses = 0;
    std::vector<Sample> samples;
    std::vector<Reply> replies;
    std::vector<double> doneAtS;
    uint64_t failed = 0;
};

class ServiceLoad : public Workload
{
  public:
    ServiceLoad(const Options &opts, bool churn)
        : opts_(opts), churn_(churn)
    {
        // Relative to the working directory: sun_path holds 108 bytes.
        socketPath_ = std::filesystem::relative(opts.outDir).string() +
                      "/svc-" + std::to_string(::getpid()) + ".sock";
    }

    ~ServiceLoad() override { teardown(); }

    void
    setup() override
    {
        svc_ = std::make_unique<service::MatchService>();
        service::ServerOptions so;
        so.unixPath = socketPath_;
        server_ = std::make_unique<service::SocketServer>(*svc_, so);
        server_->start();
        clients_.clear();
        clients_.resize(clientCount());
        for (int k = 0; k < clientCount(); ++k) {
            Client &c = clients_[k];
            c.index = k;
            c.rng = Rng(opts_.seed * 0x9e3779b97f4a7c15ull + 17 * (k + 1));
            c.fresh = int64_t(c.rng.next() % 1000000);
            c.knobs.assign(kFunctions, 0);
            for (int f = 0; f < kFunctions; ++f)
                c.knobs[f] = newKnob(c);
            if (!c.conn.open(socketPath_))
                throw std::runtime_error("cannot connect to " + socketPath_);
            // Measured per workload (METRICS.md): polling steadied the
            // short SUBMITs of service-edit, blocking those of
            // service-churn.
            c.conn.setPolling(!churn_);
        }
        std::string line;
        Connection &admin = clients_[0].conn;
        if (!admin.send("HELLO\n") || !admin.readLine(&line) ||
            line.rfind("OK service=", 0) != 0)
            throw std::runtime_error("bad HELLO reply: " + line);
        const size_t capacity = churn_ ? 8 : 256;
        if (!admin.send("CAPACITY " + std::to_string(capacity) + "\n") ||
            !admin.readLine(&line) || line.rfind("OK", 0) != 0)
            throw std::runtime_error("bad CAPACITY reply: " + line);
        // The cold first submission of every client belongs to set-up.
        for (Client &c : clients_) {
            Reply r = submit(c, false);
            if (!r.ok)
                throw std::runtime_error("cold SUBMIT failed");
        }
    }

    void
    teardown() override
    {
        for (Client &c : clients_) {
            std::string line;
            if (c.conn.send("QUIT\n"))
                c.conn.readLine(&line);
            c.conn.close();
        }
        if (server_)
            server_->stop();
        server_.reset();
        svc_.reset();
    }

    Phase
    measure(double seconds, uint64_t units) override
    {
        const driver::CacheCounters before = svc_->cacheCounters();
        for (Client &c : clients_) {
            c.replies.clear();
            c.doneAtS.clear();
            c.hits = c.misses = 0;
        }
        const double t0 = nowS();
        std::vector<std::thread> threads;
        for (Client &c : clients_) {
            threads.emplace_back([&, t0] {
                for (uint64_t i = 0;; ++i) {
                    if (units ? i >= units : nowS() - t0 >= seconds)
                        break;
                    c.replies.push_back(submit(c, true));
                    c.doneAtS.push_back(nowS() - t0);
                }
            });
        }
        for (auto &t : threads)
            t.join();
        Phase ph;
        ph.elapsedS = nowS() - t0;
        const driver::CacheCounters after = svc_->cacheCounters();
        phaseHits_ = after.hits - before.hits;
        phaseMisses_ = after.misses - before.misses;
        phaseEvictions_ = after.evictions - before.evictions;
        phaseSubmits_ = 0;
        // (completion time, round trip, server compile+match)
        std::vector<std::tuple<double, double, double>> done;
        for (Client &c : clients_) {
            for (size_t i = 0; i < c.replies.size(); ++i) {
                const Reply &r = c.replies[i];
                done.push_back({c.doneAtS[i], r.roundTripMs,
                                r.compileMs + r.matchMs});
            }
            phaseSubmits_ += c.replies.size();
            ph.failed += c.failed;
            c.failed = 0;
        }
        std::sort(done.begin(), done.end());
        for (const auto &[t, ms, server] : done) {
            ph.doneAtS.push_back(t);
            ph.latencyMs.push_back(ms);
            ph.compileMs.push_back(server);
        }
        return ph;
    }

    uint64_t
    verify() override
    {
        uint64_t failed = 0;
        irInsts_.clear();
        for (Client &c : clients_) {
            for (const Sample &s : c.samples) {
                ir::Module module;
                driver::MatchingDriver cold;
                driver::MatchReport report =
                    cold.compileAndMatch(s.source, module);
                irInsts_.push_back(double(instructionCount(module)));
                std::vector<std::string> expected;
                for (const auto &m : report.allMatches())
                    expected.push_back(
                        "MATCH function=" + m.function->name() +
                        " idiom=" + m.idiom +
                        " class=" + service::classToken(m.cls));
                std::sort(expected.begin(), expected.end());
                if (expected != s.matchLines) {
                    std::fprintf(stderr,
                                 "perfbench: client%d MATCH lines differ "
                                 "from a cold solve (%zu vs %zu)\n",
                                 c.index, s.matchLines.size(),
                                 expected.size());
                    ++failed;
                }
            }
        }
        return failed;
    }

    std::vector<Metric>
    endToEnd() override
    {
        return {
            {"code_insts", median(irInsts_), "count"},
        };
    }

    std::vector<Metric>
    layers(const trace::Analysis &a) override
    {
        const double n = workUnits();
        double rt = 0, compile = 0, match = 0, busy = 0;
        for (const Client &c : clients_) {
            for (const Reply &r : c.replies) {
                rt += r.roundTripMs;
                compile += r.compileMs;
                match += r.matchMs;
                busy += r.busy;
            }
        }
        const double lookups = double(phaseHits_ + phaseMisses_);
        return {
            {"driver.cache_hits", phaseHits_ / n, "count"},
            {"driver.cache_misses", phaseMisses_ / n, "count"},
            {"driver.cache_evictions", phaseEvictions_ / n, "count"},
            {"driver.cache_hit_ratio", lookups ? phaseHits_ / lookups : 0,
             "ratio"},
            {"service.submit_ms", rt / n, "ms"},
            {"service.compile_ms", compile / n, "ms"},
            {"service.match_ms", match / n, "ms"},
            {"service.wire_ms", (rt - compile - match) / n, "ms"},
            {"service.protocol_parse_us",
             1e3 * perUnitMs(a, "service.protocol_parse", n), "us"},
            {"service.protocol_format_us",
             1e3 * perUnitMs(a, "service.protocol_format", n), "us"},
            {"service.busy", busy, "count"},
        };
    }

    std::map<std::string, double>
    info() override
    {
        double hits = 0, misses = 0;
        for (const Client &c : clients_) {
            hits += c.hits;
            misses += c.misses;
        }
        return {{"submits", double(phaseSubmits_)},
                {"hit_ratio", hits + misses ? hits / (hits + misses) : 0},
                {"evictions", double(phaseEvictions_)},
                {"oracle_samples", double(irInsts_.size())}};
    }

    std::map<std::string, uint64_t>
    deterministic() override
    {
        std::map<std::string, uint64_t> out;
        for (const Client &c : clients_) {
            std::string k = "client" + std::to_string(c.index);
            out[k + ".stream_hash"] = c.streamHash;
            out[k + ".submits"] = c.submits;
            out[k + ".cache_hits"] = c.hits;
            out[k + ".cache_misses"] = c.misses;
        }
        out["cache_evictions"] = phaseEvictions_;
        return out;
    }

    double
    workUnits() const override
    {
        return double(phaseSubmits_);
    }

  private:
    /**
     * Both workloads run one editor session. With two clients their
     * SUBMITs contend for the service's session lock, and on a shared
     * 4-CPU host lock hand-offs and thread wake-ups then made up the
     * latency tail, which varied from run to run by as much as the
     * largest bound the benchmark can set (METRICS.md). The code keeps
     * serving any number of clients, each with its own module.
     */
    int
    clientCount() const
    {
        return 1;
    }

    /**
     * A knob value this client never used and the other never will:
     * a seeded starting point, then counting up, with the client's
     * parity.
     */
    static int64_t
    newKnob(Client &c)
    {
        return 2 * (c.fresh++) + c.index + 2;
    }

    /** Edit the module for the next SUBMIT; returns functions edited. */
    int
    edit(Client &c)
    {
        std::vector<bool> edited(kFunctions, churn_);
        if (!churn_) {
            const int touched = 1 + int(c.rng.next() % 2);
            for (int t = 0; t < touched; ++t)
                edited[c.rng.next() % kFunctions] = true;
        }
        int n = 0;
        for (int f = 0; f < kFunctions; ++f) {
            if (edited[f]) {
                c.knobs[f] = newKnob(c);
                ++n;
            }
        }
        return n;
    }

    bool
    sampled(const Client &c, uint64_t i) const
    {
        Rng r(opts_.seed ^ (i * 0x2545f4914f6cdd1dull) ^ (c.index + 1));
        return r.next() % 8 == 0 && c.samples.size() < kMaxSamplesPerClient;
    }

    /** One SUBMIT round trip, checked against the client's history. */
    Reply
    submit(Client &c, bool measured)
    {
        const uint64_t i = c.submits++;
        const uint64_t expectHits = i > 0 ? kFunctions - edit(c) : 0;
        const std::string source = moduleSource(c.knobs);
        const std::string request = "SUBMIT client" +
                                    std::to_string(c.index) + " " +
                                    std::to_string(source.size()) + "\n" +
                                    source;
        c.streamHash = fnv1a(c.streamHash, request);

        Reply r;
        std::vector<std::string> lines;
        if (measured)
            trace::setUnit(int64_t(i) * clientCount() + c.index);
        const int64_t t0 = trace::nowNs();
        bool io = true;
        {
            trace::Span span("service.roundtrip", c.index);
            io = c.conn.send(request);
            std::string line;
            while (io && (io = c.conn.readLine(&line))) {
                lines.push_back(line);
                if (line == "END" ||
                    (lines.size() == 1 && line.rfind("OK", 0) != 0))
                    break;
            }
        }
        r.roundTripMs = double(trace::nowNs() - t0) / 1e6;
        trace::setUnit(-1);

        const std::string head = lines.empty() ? "" : lines.front();
        r.busy = head.rfind("BUSY", 0) == 0;
        const double hits = field(head, "hits");
        const double misses = field(head, "misses");
        r.compileMs = std::max(0.0, field(head, "compile_ms"));
        r.matchMs = std::max(0.0, field(head, "match_ms"));
        r.ok = io && head.rfind("OK module=", 0) == 0 &&
               lines.back() == "END" &&
               field(head, "functions") == kFunctions &&
               hits == double(expectHits) &&
               misses == double(kFunctions - expectHits) &&
               field(head, "degraded") < 0;
        if (!r.ok) {
            std::fprintf(stderr,
                         "perfbench: client%d SUBMIT %llu: unexpected "
                         "reply \"%s\" (expected hits=%llu)\n",
                         c.index, (unsigned long long)i, head.c_str(),
                         (unsigned long long)expectHits);
            ++c.failed;
        }
        c.hits += std::max(0.0, hits);
        c.misses += std::max(0.0, misses);
        if (measured && r.ok && sampled(c, i)) {
            Sample s;
            s.source = source;
            for (const std::string &l : lines)
                if (l.rfind("MATCH ", 0) == 0)
                    s.matchLines.push_back(l);
            std::sort(s.matchLines.begin(), s.matchLines.end());
            c.samples.push_back(std::move(s));
        }
        return r;
    }

    Options opts_;
    bool churn_;
    std::string socketPath_;
    std::unique_ptr<service::MatchService> svc_;
    std::unique_ptr<service::SocketServer> server_;
    std::vector<Client> clients_;
    uint64_t phaseHits_ = 0, phaseMisses_ = 0, phaseEvictions_ = 0;
    uint64_t phaseSubmits_ = 0;
    std::vector<double> irInsts_;
};

} // namespace

std::unique_ptr<Workload>
makeService(const Options &opts, bool churn)
{
    return std::make_unique<ServiceLoad>(opts, churn);
}

} // namespace pb
