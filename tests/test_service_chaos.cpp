/**
 * @file
 * Service chaos harness: deterministic, seeded fault injection
 * against the crash-safe matching service.
 *
 * Campaigns:
 *  - snapshot round trip, and recovery after kill -9 lands mid-save
 *    (child process SIGKILLed inside the write/fsync/rename window);
 *  - a corruption sweep flipping one bit at every byte offset of a
 *    committed snapshot, and truncation at every offset stratum —
 *    recovery must never crash and, checked by resubmitting through
 *    a service restored from the damaged file, never serve a wrong
 *    match;
 *  - clients dropped mid-SUBMIT (clean FIN and SO_LINGER RST, at
 *    several cut points) — the daemon survives and keeps serving;
 *  - a connection flood past the admission limit — shed with BUSY,
 *    admitted clients unaffected, slots recycled after disconnects;
 *  - the in-flight SUBMIT gate — shed with BUSY after the payload is
 *    consumed, so the same connection keeps working;
 *  - budget / deadline exhaustion mid-batch — responses degrade with
 *    partial (valid) results, and the degraded results are NOT
 *    deposited into the shared cache: a warm resubmission re-solves
 *    instead of replaying a truncated match list.
 *
 * Everything is seeded and bounded; there is no wall-clock
 * dependence anywhere except the deliberately pre-expired deadline
 * (which is deterministic by construction: the solver's entry probe
 * degrades before any search work).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "driver/cache_snapshot.h"
#include "driver/driver.h"
#include "driver/match_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

using namespace repro;

namespace {

constexpr uint64_t kSeed = 0x5eed5eed2026ull;

/** Deterministic PRNG (splitmix64); no std::random in tests. */
struct Rng
{
    uint64_t state;
    explicit Rng(uint64_t seed) : state(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint64_t
    below(uint64_t bound)
    {
        return bound == 0 ? 0 : next() % bound;
    }
};

/** The usual three-function client module (see test_service.cpp). */
std::string
clientSource(int redBound = 100, int histBound = 50)
{
    std::ostringstream os;
    os << R"(
void reduce(double *a, double *out) {
    double s = 0.0;
    for (int i = 0; i < )"
       << redBound << R"(; i++)
        s = s + a[i];
    out[0] = s;
}
void histo(int *keys, int *bins) {
    for (int i = 0; i < )"
       << histBound << R"(; i++)
        bins[keys[i]] = bins[keys[i]] + 1;
}
int helper(int x) {
    return x * 3 + 1;
}
)";
    return os.str();
}

std::string
tempPath(const std::string &leaf)
{
    return "/tmp/repro_chaos_" + std::to_string(::getpid()) + "_" +
           leaf;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** The (function, idiom, class) triples of an outcome, sorted. */
std::vector<std::string>
matchTriples(const service::SubmitOutcome &outcome)
{
    std::vector<std::string> triples;
    for (const auto &mo : outcome.matchList)
        triples.push_back(mo.function + "/" + mo.idiom + "/" +
                          service::classToken(mo.cls));
    std::sort(triples.begin(), triples.end());
    return triples;
}

/** Populate a fresh service with the canonical module; outcome out. */
service::SubmitOutcome
populate(service::MatchService &svc)
{
    auto outcome = svc.submit("chaos", clientSource());
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_TRUE(outcome.degraded.empty());
    EXPECT_GT(outcome.matches, 0u);
    return outcome;
}

} // namespace

// -------------------------------------------------- snapshot basics

TEST(SnapshotChaos, RoundTripPreservesEntriesAndServesWarmHits)
{
    const std::string path = tempPath("roundtrip.snap");
    service::MatchService svc;
    auto cold = populate(svc);

    auto saved = driver::saveSnapshot(svc.cache(), path);
    ASSERT_TRUE(saved.ok) << saved.detail;
    EXPECT_EQ(saved.records, 3u);
    EXPECT_EQ(saved.skipped, 0u);
    EXPECT_GT(saved.bytes, 0u);

    // A restarted daemon: fresh service, restored cache.
    service::MatchService restarted;
    auto loaded = driver::loadSnapshot(restarted.cache(), path);
    ASSERT_TRUE(loaded.ok) << loaded.detail;
    EXPECT_EQ(loaded.records, 3u);
    EXPECT_EQ(loaded.skipped, 0u);
    EXPECT_EQ(restarted.cacheSize(), 3u);
    // Restored entries are not request activity.
    EXPECT_EQ(restarted.cacheCounters().insertions, 0u);

    auto warm = populate(restarted);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(matchTriples(warm), matchTriples(cold));

    ::unlink(path.c_str());
}

TEST(SnapshotChaos, MissingFileIsACleanColdStart)
{
    service::MatchService svc;
    auto result = driver::loadSnapshot(
        svc.cache(), tempPath("never_written.snap"));
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.detail.find("cold start"), std::string::npos);
    EXPECT_EQ(svc.cacheSize(), 0u);
}

TEST(SnapshotChaos, RestoreRespectsCapacityAndKeepsHottestEntries)
{
    const std::string path = tempPath("capacity.snap");
    service::MatchService svc;
    populate(svc);
    ASSERT_TRUE(driver::saveSnapshot(svc.cache(), path).ok);

    // A restarted daemon configured smaller must keep the MRU prefix
    // (snapshot order), not crash or overfill.
    service::ServiceOptions opts;
    opts.cacheCapacity = 2;
    service::MatchService small(opts);
    auto loaded = driver::loadSnapshot(small.cache(), path);
    EXPECT_TRUE(loaded.ok) << loaded.detail;
    ASSERT_EQ(small.cacheSize(), 2u);

    // The survivors are the two hottest entries — the ones most
    // recently touched before the save (histo and helper were
    // processed after reduce), not an arbitrary pair.
    std::vector<uint64_t> kept;
    for (const auto &[key, entry] : small.cache().entriesMruFirst())
        kept.push_back(key.contentHash);
    std::sort(kept.begin(), kept.end());
    service::SubmitOutcome cold;
    ASSERT_TRUE(svc.lastOutcome("chaos", &cold));
    std::vector<uint64_t> hottest;
    for (size_t i = 1; i < cold.perFunction.size(); ++i)
        hottest.push_back(cold.perFunction[i].contentHash);
    std::sort(hottest.begin(), hottest.end());
    EXPECT_EQ(kept, hottest);

    // And a warm resubmit through the shrunken cache still produces
    // the full, correct match set (possibly re-solving).
    auto warm = populate(small);
    EXPECT_EQ(warm.cacheHits + warm.cacheMisses, 3u);
    EXPECT_EQ(warm.matches, cold.matches);

    ::unlink(path.c_str());
}

// ------------------------------------------------ kill -9 mid-save

TEST(SnapshotChaos, Kill9MidSaveNeverLosesTheCommittedSnapshot)
{
    const std::string path = tempPath("kill9.snap");
    service::MatchService svc;
    auto cold = populate(svc);

    // Commit one good snapshot first: the invariant under attack is
    // "a kill at ANY point leaves the last committed file intact".
    ASSERT_TRUE(driver::saveSnapshot(svc.cache(), path).ok);
    const std::vector<uint8_t> committed = readFile(path);
    ASSERT_FALSE(committed.empty());

    Rng rng(kSeed);
    for (int round = 0; round < 12; ++round) {
        int ready[2];
        ASSERT_EQ(::pipe(ready), 0);
        pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            // Child: signal readiness, then save in a tight loop so
            // the parent's SIGKILL lands at an arbitrary point of the
            // write/fsync/rename cycle.
            ::close(ready[0]);
            char byte = 'r';
            (void)!::write(ready[1], &byte, 1);
            for (;;)
                driver::saveSnapshot(svc.cache(), path);
        }
        ::close(ready[1]);
        char byte = 0;
        ASSERT_EQ(::read(ready[0], &byte, 1), 1);
        ::close(ready[0]);
        ::usleep(static_cast<useconds_t>(rng.below(3000)));
        ASSERT_EQ(::kill(child, SIGKILL), 0);
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status));

        // The committed file must be byte-identical (the child only
        // ever rewrote it via atomic rename of identical content) —
        // and must recover to a fully warm cache.
        EXPECT_EQ(readFile(path), committed) << "round " << round;
        service::MatchService restarted;
        auto loaded = driver::loadSnapshot(restarted.cache(), path);
        ASSERT_TRUE(loaded.ok) << loaded.detail;
        EXPECT_EQ(loaded.records, 3u);
        auto warm = populate(restarted);
        EXPECT_EQ(warm.cacheHits, 3u);
        EXPECT_EQ(matchTriples(warm), matchTriples(cold));
    }

    // A leftover .tmp from a killed save must not break later saves.
    auto resaved = driver::saveSnapshot(svc.cache(), path);
    EXPECT_TRUE(resaved.ok) << resaved.detail;
    ::unlink(path.c_str());
    ::unlink((path + ".tmp").c_str());
}

// ------------------------------------------- corruption / truncation

namespace {

/**
 * Load @p bytes as a snapshot into a fresh service. Must never
 * crash. When @p verifyMatches, also resubmit the canonical module
 * through the restored service and require the exact reference match
 * set — entries may be skipped (misses re-solve), but a wrong replay
 * is a campaign failure.
 */
void
recoverAndVerify(const std::vector<uint8_t> &bytes,
                 const std::vector<std::string> &reference,
                 bool verifyMatches, const std::string &what)
{
    const std::string path = tempPath("damaged.snap");
    writeFile(path, bytes);
    service::MatchService svc;
    auto loaded = driver::loadSnapshot(svc.cache(), path);
    EXPECT_LE(svc.cacheSize(), 3u) << what;
    (void)loaded; // ok or cold start are both acceptable; crashing
                  // or wrong matches below are not.
    if (verifyMatches) {
        auto warm = svc.submit("chaos", clientSource());
        ASSERT_TRUE(warm.ok) << what << ": " << warm.error;
        EXPECT_EQ(matchTriples(warm), reference) << what;
        EXPECT_EQ(warm.cacheHits + warm.cacheMisses, 3u) << what;
    }
    ::unlink(path.c_str());
}

} // namespace

TEST(SnapshotChaos, BitFlipAtEveryOffsetNeverCrashesNeverLies)
{
    const std::string path = tempPath("flip.snap");
    service::MatchService svc;
    auto cold = populate(svc);
    const auto reference = matchTriples(cold);
    ASSERT_TRUE(driver::saveSnapshot(svc.cache(), path).ok);
    const std::vector<uint8_t> good = readFile(path);
    ASSERT_GT(good.size(), 64u);
    ::unlink(path.c_str());

    Rng rng(kSeed ^ 0xf11fu);
    for (size_t off = 0; off < good.size(); ++off) {
        std::vector<uint8_t> bad = good;
        bad[off] ^= static_cast<uint8_t>(1u << rng.below(8));
        // Parse-only at every offset; the full resubmit verification
        // on a seeded stratified sample (compile+solve per probe).
        const bool verify = off % 29 == rng.state % 29;
        recoverAndVerify(bad, reference, verify,
                         "bit flip at offset " +
                             std::to_string(off));
    }
}

TEST(SnapshotChaos, TruncationAtEveryStratumNeverCrashesNeverLies)
{
    const std::string path = tempPath("trunc.snap");
    service::MatchService svc;
    auto cold = populate(svc);
    const auto reference = matchTriples(cold);
    ASSERT_TRUE(driver::saveSnapshot(svc.cache(), path).ok);
    const std::vector<uint8_t> good = readFile(path);
    ::unlink(path.c_str());

    // Strata: inside the magic, the header fields, the first record
    // frame, every later power-of-two-ish point, and the tail.
    std::vector<size_t> cuts;
    for (size_t i = 0; i <= 48 && i < good.size(); ++i)
        cuts.push_back(i);
    for (size_t i = 48; i < good.size(); i += 7)
        cuts.push_back(i);
    cuts.push_back(good.size() - 1);

    for (size_t cut : cuts) {
        std::vector<uint8_t> bad(good.begin(), good.begin() + cut);
        recoverAndVerify(bad, reference, cut % 13 == 0,
                         "truncated to " + std::to_string(cut));
    }

    // And appended garbage past a valid image.
    std::vector<uint8_t> padded = good;
    padded.insert(padded.end(), 33, 0xa5);
    recoverAndVerify(padded, reference, true, "trailing garbage");
}

// ----------------------------------------------------- socket chaos

namespace {

/** Minimal blocking unix-socket client (mirrors test_service.cpp). */
class UnixClient
{
  public:
    explicit UnixClient(const std::string &path)
    {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        connected_ =
            fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) == 0;
    }

    ~UnixClient() { closeNow(); }

    bool connected() const { return connected_; }

    void
    closeNow()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    /** Abort the connection: RST instead of FIN. */
    void
    closeWithReset()
    {
        if (fd_ < 0)
            return;
        struct linger lg;
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        closeNow();
    }

    bool
    send(const std::string &data)
    {
        size_t sent = 0;
        while (sent < data.size()) {
            ssize_t n = ::send(fd_, data.data() + sent,
                               data.size() - sent, MSG_NOSIGNAL);
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read until the peer closes. */
    std::string
    drain()
    {
        std::string all;
        char buf[4096];
        for (;;) {
            ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0)
                return all;
            all.append(buf, static_cast<size_t>(n));
        }
    }

    /** Read until @p marker appears (the peer stays open). */
    std::string
    readUntil(const std::string &marker)
    {
        std::string all;
        char buf[4096];
        while (all.find(marker) == std::string::npos) {
            ssize_t n = ::read(fd_, buf, sizeof(buf));
            if (n <= 0)
                return all;
            all.append(buf, static_cast<size_t>(n));
        }
        return all;
    }

  private:
    int fd_ = -1;
    bool connected_ = false;
};

/** One full scripted round trip proving the server still serves. */
void
expectServerAlive(const std::string &path)
{
    const std::string src = clientSource();
    UnixClient probe(path);
    ASSERT_TRUE(probe.connected());
    std::ostringstream script;
    script << "SUBMIT alive " << src.size() << "\n" << src;
    script << "QUIT\n";
    ASSERT_TRUE(probe.send(script.str()));
    const std::string transcript = probe.drain();
    EXPECT_NE(transcript.find("OK module=alive"), std::string::npos);
    EXPECT_NE(transcript.find("OK bye"), std::string::npos);
}

} // namespace

TEST(SocketChaos, MidSubmitDropsDoNotKillTheServer)
{
    const std::string path = tempPath("drop.sock");
    service::MatchService svc;
    service::ServerOptions opts;
    opts.unixPath = path;
    service::SocketServer server(svc, opts);
    server.start();

    const std::string src = clientSource();
    const std::string counted =
        "SUBMIT dropmod " + std::to_string(src.size()) + "\n";

    Rng rng(kSeed ^ 0xd20bu);
    for (int round = 0; round < 14; ++round) {
        UnixClient client(path);
        ASSERT_TRUE(client.connected());
        switch (round % 4) {
          case 0: // cut inside the request line
            client.send("SUBMIT dropm");
            break;
          case 1: // cut inside a counted payload
            client.send(counted +
                        src.substr(0, rng.below(src.size())));
            break;
          case 2: // heredoc without its terminator
            client.send("SUBMIT dropmod <<EOF\nvoid f() {}\n");
            break;
          case 3: // complete request, vanish before the response
            client.send(counted + src);
            break;
        }
        if (round % 2 == 0)
            client.closeWithReset(); // RST path
        else
            client.closeNow(); // FIN path
    }

    expectServerAlive(path);
    server.stop();
}

TEST(SocketChaos, FloodPastConnectionLimitShedsWithBusy)
{
    const std::string path = tempPath("flood.sock");
    service::MatchService svc;
    service::ServerOptions opts;
    opts.unixPath = path;
    opts.maxConnections = 2;
    opts.busyRetryMs = 7;
    service::SocketServer server(svc, opts);
    server.start();

    // Two held clients occupy every slot (HELLO proves admission).
    UnixClient held1(path), held2(path);
    ASSERT_TRUE(held1.connected());
    ASSERT_TRUE(held2.connected());
    ASSERT_TRUE(held1.send("HELLO\n"));
    ASSERT_TRUE(held2.send("HELLO\n"));
    EXPECT_NE(held1.readUntil("\n").find("OK service=repro-match"),
              std::string::npos);
    EXPECT_NE(held2.readUntil("\n").find("OK service=repro-match"),
              std::string::npos);

    // Every flood connection is shed with the backoff hint.
    for (int i = 0; i < 8; ++i) {
        UnixClient flood(path);
        ASSERT_TRUE(flood.connected());
        const std::string response = flood.drain();
        EXPECT_NE(response.find("BUSY retry_after_ms=7"),
                  std::string::npos)
            << "flood connection " << i;
    }

    // Held clients were unaffected by the flood.
    ASSERT_TRUE(held1.send("STATS\n"));
    EXPECT_NE(held1.readUntil("\n").find("OK entries="),
              std::string::npos);

    // Freeing a slot re-admits: clients retry after BUSY, and the
    // reaper recycles the slot on a subsequent accept.
    held2.send("QUIT\n");
    held2.drain();
    held2.closeNow();
    bool admitted = false;
    for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
        UnixClient retry(path);
        ASSERT_TRUE(retry.connected());
        if (!retry.send("HELLO\n"))
            continue;
        const std::string response = retry.readUntil("\n");
        if (response.find("OK service=repro-match") !=
            std::string::npos) {
            admitted = true;
        } else {
            EXPECT_NE(response.find("BUSY"), std::string::npos);
            ::usleep(2000);
        }
    }
    EXPECT_TRUE(admitted);

    held1.closeNow();
    server.stop();
}

TEST(SocketChaos, InFlightGateShedsSubmitButKeepsTheConnection)
{
    const std::string path = tempPath("inflight.sock");
    service::MatchService svc;
    service::ServerOptions opts;
    opts.unixPath = path;
    // Zero in-flight slots: every SUBMIT is deterministically shed.
    opts.maxInFlight = 0;
    opts.busyRetryMs = 11;
    service::SocketServer server(svc, opts);
    server.start();

    const std::string src = clientSource();
    UnixClient client(path);
    ASSERT_TRUE(client.connected());
    std::ostringstream script;
    script << "SUBMIT shedme " << src.size() << "\n" << src;
    script << "STATS\n";
    script << "QUIT\n";
    ASSERT_TRUE(client.send(script.str()));
    const std::string transcript = client.drain();

    // The payload was consumed before shedding, so the connection
    // stayed in sync: BUSY, then a clean STATS, then a clean QUIT.
    EXPECT_NE(transcript.find("BUSY retry_after_ms=11"),
              std::string::npos);
    EXPECT_NE(transcript.find("OK entries=0"), std::string::npos);
    EXPECT_NE(transcript.find("OK bye"), std::string::npos);
    // And no solve ran.
    EXPECT_EQ(svc.sessionCount(), 0u);

    server.stop();
}

// ----------------------------------------- degradation, not failure

TEST(Degradation, ExpiredDeadlineDegradesDeterministically)
{
    // A deadline already in the past when the solve starts: the
    // solver's entry probe degrades every function before any search
    // work — deterministic, no timing dependence.
    service::ServiceOptions opts;
    opts.limits.deadline = std::chrono::steady_clock::now() -
                           std::chrono::seconds(1);
    service::MatchService svc(opts);

    auto degraded = svc.submit("chaos", clientSource());
    ASSERT_TRUE(degraded.ok) << degraded.error;
    EXPECT_EQ(degraded.degraded, "deadline");
    EXPECT_EQ(degraded.functions, 3u);
    EXPECT_EQ(degraded.matches, 0u);
    EXPECT_EQ(degraded.cacheHits, 0u);

    // The OK line carries the reason.
    auto lines = service::formatSubmitResponse(degraded);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find(" degraded=deadline"),
              std::string::npos);
    // Nothing was deposited for the degraded functions.
    EXPECT_EQ(svc.cacheSize(), 0u);
}

TEST(Degradation, DegradedResultsAreNotCachedWarmResubmitResolves)
{
    // Same service: first submit under the (expired) default
    // deadline, then a per-request DEADLINE_MS override long enough
    // to complete. If the degraded run had poisoned the shared
    // cache, the second submit would replay empty match lists.
    service::ServiceOptions opts;
    opts.limits.deadline = std::chrono::steady_clock::now() -
                           std::chrono::seconds(1);
    service::MatchService svc(opts);

    auto degraded = svc.submit("chaos", clientSource());
    ASSERT_TRUE(degraded.ok);
    EXPECT_EQ(degraded.degraded, "deadline");
    EXPECT_EQ(degraded.matches, 0u);

    auto warm = svc.submit("chaos", clientSource(), 60'000);
    ASSERT_TRUE(warm.ok);
    EXPECT_TRUE(warm.degraded.empty());
    EXPECT_EQ(warm.cacheHits, 0u); // nothing to replay: re-solved
    EXPECT_EQ(warm.cacheMisses, 3u);
    EXPECT_GT(warm.matches, 0u);

    // The complete results ARE cached.
    auto replay = svc.submit("chaos", clientSource(), 60'000);
    EXPECT_EQ(replay.cacheHits, 3u);
    EXPECT_EQ(matchTriples(replay), matchTriples(warm));
}

TEST(Degradation, BudgetExhaustionMidBatchDoesNotPoisonTheCache)
{
    auto cache = std::make_shared<driver::MatchCache>();
    driver::MatchingDriver drv;
    drv.attachCache(cache);

    // Starve the solver: whatever completes may be cached, whatever
    // degrades must not be.
    solver::SolverLimits tiny;
    tiny.maxAssignments = 1;
    drv.setSolverLimits(tiny);
    ir::Module starved;
    auto degraded = drv.compileAndMatch(clientSource(), starved);
    EXPECT_EQ(degraded.status, solver::SolveStatus::BudgetExhausted);
    std::vector<std::string> starvedFuncs;
    for (const auto &fr : degraded.functions) {
        if (fr.status != solver::SolveStatus::Complete)
            starvedFuncs.push_back(fr.function->name());
    }
    ASSERT_FALSE(starvedFuncs.empty());

    // Full-budget resubmission: every starved function re-solves
    // (no poisoned replay) and the batch matches a fresh reference.
    drv.setSolverLimits(solver::SolverLimits{});
    ir::Module warm;
    auto recovered = drv.compileAndMatch(clientSource(), warm);
    EXPECT_EQ(recovered.status, solver::SolveStatus::Complete);
    for (const auto &fr : recovered.functions) {
        const bool wasStarved =
            std::find(starvedFuncs.begin(), starvedFuncs.end(),
                      fr.function->name()) != starvedFuncs.end();
        if (wasStarved)
            EXPECT_FALSE(fr.fromCache) << fr.function->name();
    }

    driver::MatchingDriver reference;
    ir::Module ref;
    auto expected = reference.compileAndMatch(clientSource(), ref);
    EXPECT_EQ(recovered.matchCount(), expected.matchCount());

    // Third pass: now everything replays, and still matches.
    ir::Module replayed;
    auto replay = drv.compileAndMatch(clientSource(), replayed);
    EXPECT_EQ(replay.cacheMisses, 0u);
    EXPECT_EQ(replay.matchCount(), expected.matchCount());
}

TEST(Degradation, BatchWithoutDeadlineIsByteIdenticalToBaseline)
{
    // The no-deadline solve path must do byte-identical work with
    // the deadline machinery compiled in: equal stats against a
    // plain driver proves the probes touch nothing when unarmed.
    driver::MatchingDriver a, b;
    b.setSolverLimits(solver::SolverLimits{}); // explicit default
    ir::Module ma, mb;
    auto ra = a.compileAndMatch(clientSource(), ma);
    auto rb = b.compileAndMatch(clientSource(), mb);
    EXPECT_EQ(ra.totals.assignments, rb.totals.assignments);
    EXPECT_EQ(ra.totals.checks, rb.totals.checks);
    EXPECT_EQ(ra.totals.solutions, rb.totals.solutions);
    EXPECT_EQ(ra.status, solver::SolveStatus::Complete);
    EXPECT_EQ(ra.matchCount(), rb.matchCount());
}
