/**
 * @file
 * Tests of matching-as-a-service: the structural content hash, the
 * cross-request MatchCache (cold/warm/edited/evicted paths, portable
 * capture/re-anchor), the module-aware matchFingerprint, the
 * MatchService session core and both transports (iostream REPL and
 * unix-socket listener).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "driver/driver.h"
#include "driver/match_cache.h"
#include "frontend/compiler.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"

using namespace repro;

namespace {

/**
 * A three-function client module: a scalar reduction, a histogram and
 * a non-idiomatic helper. @p redBound / @p histBound parameterize
 * embedded constants so "edits" of individual functions are one
 * string away.
 */
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

std::vector<std::string>
fingerprints(const std::vector<idioms::IdiomMatch> &matches)
{
    std::vector<std::string> keys;
    for (const auto &m : matches)
        keys.push_back(idioms::matchFingerprint(m));
    return keys;
}

uint64_t
hashOf(const ir::Module &module, const std::string &func)
{
    return module.functionByName(func)->contentHash();
}

} // namespace

// ------------------------------------------------------- content hash

TEST(ContentHash, StableAcrossRecompiles)
{
    // Recompiling the same source (byte-stable LICM, PR 5) must
    // reproduce every function hash even though all heap addresses
    // and Type pointers differ.
    ir::Module a, b;
    frontend::compileMiniCOrDie(clientSource(), a);
    frontend::compileMiniCOrDie(clientSource(), b);
    for (const char *f : {"reduce", "histo", "helper"})
        EXPECT_EQ(hashOf(a, f), hashOf(b, f)) << f;
}

TEST(ContentHash, SensitiveToLocalEditsOnly)
{
    ir::Module a, b;
    frontend::compileMiniCOrDie(clientSource(100, 50), a);
    frontend::compileMiniCOrDie(clientSource(101, 50), b);
    // Only the edited function's hash moves.
    EXPECT_NE(hashOf(a, "reduce"), hashOf(b, "reduce"));
    EXPECT_EQ(hashOf(a, "histo"), hashOf(b, "histo"));
    EXPECT_EQ(hashOf(a, "helper"), hashOf(b, "helper"));
}

TEST(ContentHash, IndependentOfModuleAndFunctionNames)
{
    // The same body under different module names hashes equal — the
    // cache key is structural, which is what lets two clients share
    // entries.
    ir::Module a, b;
    a.setName("client_a");
    b.setName("client_b");
    frontend::compileMiniCOrDie(clientSource(), a);
    frontend::compileMiniCOrDie(clientSource(), b);
    EXPECT_EQ(hashOf(a, "reduce"), hashOf(b, "reduce"));
}

// ---------------------------------------------- fingerprint identity

TEST(MatchFingerprint, DisambiguatesSameNamedFunctionsAcrossModules)
{
    // Regression (ISSUE 6 satellite): the fingerprint used to key on
    // the bare function name, so two modules with a same-named
    // function collided in any cross-module store. It now embeds the
    // module name and the content hash.
    ir::Module a, b, c;
    a.setName("client_a");
    b.setName("client_b");
    c.setName("client_a"); // same name as a, edited body
    frontend::compileMiniCOrDie(clientSource(100, 50), a);
    frontend::compileMiniCOrDie(clientSource(100, 50), b);
    frontend::compileMiniCOrDie(clientSource(101, 50), c);

    driver::MatchingDriver drv;
    auto fa = fingerprints(drv.matchModule(a).allMatches());
    auto fb = fingerprints(drv.matchModule(b).allMatches());
    auto fc = fingerprints(drv.matchModule(c).allMatches());

    ASSERT_FALSE(fa.empty());
    ASSERT_EQ(fa.size(), fb.size());
    // Same body, different module identity: distinct fingerprints.
    for (size_t i = 0; i < fa.size(); ++i)
        EXPECT_NE(fa[i], fb[i]);
    // Same module name, edited reduce: the reduce match must differ.
    EXPECT_NE(fa, fc);
}

// --------------------------------------------------- portable replay

TEST(MatchCache, CaptureReanchorRoundTrip)
{
    ir::Module a, b;
    frontend::compileMiniCOrDie(clientSource(), a);
    frontend::compileMiniCOrDie(clientSource(), b);
    ir::Function *fa = a.functionByName("reduce");
    ir::Function *fb = b.functionByName("reduce");

    analysis::FunctionAnalyses analyses(fa);
    idioms::IdiomDetector detector;
    auto matches = detector.detect(fa, analyses);
    ASSERT_FALSE(matches.empty());

    std::vector<driver::PortableMatch> portable;
    ASSERT_TRUE(driver::MatchCache::capture(matches, fa, &portable));

    // Re-anchored onto the structurally identical recompile, every
    // binding resolves to the value at the same position — i.e. to
    // the same handle text.
    std::vector<idioms::IdiomMatch> replayed;
    ASSERT_TRUE(
        driver::MatchCache::reanchor(portable, fb, &replayed));
    ASSERT_EQ(replayed.size(), matches.size());
    for (size_t i = 0; i < matches.size(); ++i) {
        EXPECT_EQ(replayed[i].idiom, matches[i].idiom);
        ASSERT_EQ(replayed[i].solution.bindings.size(),
                  matches[i].solution.bindings.size());
        for (const auto &[name, value] :
             matches[i].solution.bindings) {
            const ir::Value *other =
                replayed[i].solution.lookup(name);
            ASSERT_NE(other, nullptr) << name;
            EXPECT_NE(other, value) << name; // different module...
            EXPECT_EQ(other->handle(), value->handle()) << name;
        }
    }

    // Against a structurally different function the membership
    // validation must reject the replay instead of mis-anchoring.
    ir::Function *helper = b.functionByName("helper");
    std::vector<idioms::IdiomMatch> bogus;
    EXPECT_FALSE(
        driver::MatchCache::reanchor(portable, helper, &bogus));
}

TEST(MatchCache, LruEvictionAndCounters)
{
    driver::MatchCache cache(2);
    driver::CacheKey k1{1, 9}, k2{2, 9}, k3{3, 9};
    cache.insert(k1, {});
    cache.insert(k2, {});
    EXPECT_EQ(cache.size(), 2u);

    // Touch k1 so k2 is the LRU victim of the next insert.
    EXPECT_NE(cache.lookup(k1), nullptr);
    cache.insert(k3, {});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.lookup(k1), nullptr);
    EXPECT_EQ(cache.lookup(k2), nullptr);
    EXPECT_NE(cache.lookup(k3), nullptr);

    auto counters = cache.counters();
    EXPECT_EQ(counters.insertions, 3u);
    EXPECT_EQ(counters.evictions, 1u);

    // Shrinking evicts immediately.
    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.counters().evictions, 2u);
}

// ------------------------------------------------ incremental driver

TEST(CachedDriver, WarmResubmissionDoesNoSolverWork)
{
    auto cache = std::make_shared<driver::MatchCache>();
    driver::MatchingDriver drv;
    drv.attachCache(cache);

    ir::Module cold;
    auto coldReport = drv.compileAndMatch(clientSource(), cold);
    EXPECT_EQ(coldReport.cacheHits, 0u);
    EXPECT_EQ(coldReport.cacheMisses, 3u);
    const auto coldTotals = drv.totals();
    EXPECT_GT(coldTotals.assignments, 0u);

    // Identical resubmission: every function replays; the driver's
    // lifetime totals (real solver effort) must not move, while the
    // report totals stay byte-identical to the cold run.
    ir::Module warm;
    auto warmReport = drv.compileAndMatch(clientSource(), warm);
    EXPECT_EQ(warmReport.cacheHits, 3u);
    EXPECT_EQ(warmReport.cacheMisses, 0u);
    EXPECT_EQ(drv.totals().assignments, coldTotals.assignments);
    EXPECT_EQ(drv.totals().checks, coldTotals.checks);
    EXPECT_EQ(warmReport.totals.assignments,
              coldReport.totals.assignments);
    EXPECT_EQ(warmReport.totals.checks, coldReport.totals.checks);
    EXPECT_EQ(warmReport.totals.solutions,
              coldReport.totals.solutions);
    for (const auto &fr : warmReport.functions)
        EXPECT_TRUE(fr.fromCache) << fr.function->name();

    // And the replayed matches bind the *fresh* module's IR with the
    // same solution shapes (fingerprints embed module name + hash,
    // which are equal here by construction).
    EXPECT_EQ(fingerprints(warmReport.allMatches()),
              fingerprints(coldReport.allMatches()));
}

TEST(CachedDriver, EditedResubmissionResolvesOnlyEditedFunctions)
{
    auto cache = std::make_shared<driver::MatchCache>();
    driver::MatchingDriver drv;
    drv.attachCache(cache);

    ir::Module cold;
    drv.compileAndMatch(clientSource(100, 50), cold);
    const auto before = drv.totals();

    // Edit reduce only: exactly one miss, two replays, and solver
    // effort grows by the edited function alone.
    ir::Module edited;
    auto report = drv.compileAndMatch(clientSource(101, 50), edited);
    EXPECT_EQ(report.cacheHits, 2u);
    EXPECT_EQ(report.cacheMisses, 1u);
    EXPECT_GT(drv.totals().assignments, before.assignments);
    for (const auto &fr : report.functions) {
        if (fr.function->name() == "reduce")
            EXPECT_FALSE(fr.fromCache);
        else
            EXPECT_TRUE(fr.fromCache) << fr.function->name();
    }

    // The edited module's matches must equal a fresh uncached solve.
    driver::MatchingDriver plain;
    ir::Module reference;
    auto expected =
        plain.compileAndMatch(clientSource(101, 50), reference);
    // Fingerprints embed the (empty) module name and content hashes,
    // identical across these two compiles of the same source.
    EXPECT_EQ(fingerprints(report.allMatches()),
              fingerprints(expected.allMatches()));
}

TEST(CachedDriver, EvictionForcesResolve)
{
    const std::string srcA = clientSource(100, 50);
    const std::string srcB = clientSource(200, 60);

    auto cache = std::make_shared<driver::MatchCache>(3);
    driver::MatchingDriver drv;
    drv.attachCache(cache);

    // Fill the three-entry cache with module A, then push module B
    // through. B's reduce and histo differ (fresh inserts, each
    // evicting an A entry); B's helper is byte-identical to A's and
    // replays A's entry instead of inserting.
    ir::Module a1, b1;
    drv.compileAndMatch(srcA, a1);
    EXPECT_EQ(cache->size(), 3u);
    EXPECT_EQ(cache->counters().evictions, 0u);
    auto crossed = drv.compileAndMatch(srcB, b1);
    EXPECT_EQ(crossed.cacheHits, 1u);
    EXPECT_EQ(crossed.cacheMisses, 2u);
    EXPECT_EQ(cache->size(), 3u);
    EXPECT_EQ(cache->counters().evictions, 2u);

    // A's evicted entries force a re-solve; the surviving shared
    // helper still replays...
    ir::Module a2;
    auto evicted = drv.compileAndMatch(srcA, a2);
    EXPECT_EQ(evicted.cacheHits, 1u);
    EXPECT_EQ(evicted.cacheMisses, 2u);

    // ...and is cached again afterwards.
    ir::Module a3;
    auto warm = drv.compileAndMatch(srcA, a3);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.cacheMisses, 0u);
}

TEST(CachedDriver, CollidingEntryWithDifferentShapeIsNotReplayed)
{
    auto cache = std::make_shared<driver::MatchCache>();
    driver::MatchingDriver drv;
    drv.attachCache(cache);

    ir::Module cold;
    auto coldReport = drv.compileAndMatch(clientSource(), cold);
    ASSERT_EQ(coldReport.cacheMisses, 3u);

    // Emulate a 64-bit contentHash collision: keep each entry's key
    // but make its structural signature describe a different body.
    // Replay must degrade to a fresh solve, not re-anchor the
    // colliding entry's matches.
    for (const auto &fr : coldReport.functions) {
        driver::CacheKey key{fr.contentHash,
                             idioms::idiomSetHash()};
        auto entry = cache->lookup(key);
        ASSERT_NE(entry, nullptr);
        driver::CachedMatches poisoned = *entry;
        poisoned.signature.numInsts += 1;
        cache->insert(key, std::move(poisoned));
    }

    ir::Module warm;
    auto warmReport = drv.compileAndMatch(clientSource(), warm);
    EXPECT_EQ(warmReport.cacheHits, 0u);
    EXPECT_EQ(warmReport.cacheMisses, 3u);
    for (const auto &fr : warmReport.functions)
        EXPECT_FALSE(fr.fromCache) << fr.function->name();
}

// -------------------------------------------------- service sessions

TEST(MatchService, ColdWarmEditedAcrossSessions)
{
    service::MatchService svc;

    auto cold = svc.submit("clientA", clientSource(100, 50));
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.functions, 3u);
    EXPECT_EQ(cold.cacheMisses, 3u);
    EXPECT_GT(cold.matches, 0u);

    auto warm = svc.submit("clientA", clientSource(100, 50));
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.matches, cold.matches);

    auto edited = svc.submit("clientA", clientSource(100, 51));
    ASSERT_TRUE(edited.ok);
    EXPECT_EQ(edited.cacheHits, 2u);
    EXPECT_EQ(edited.cacheMisses, 1u);
    for (const auto &fo : edited.perFunction)
        EXPECT_EQ(fo.fromCache, fo.name != "histo") << fo.name;

    // A second client submitting the original body shares the first
    // client's entries: all hits, no solver work.
    auto shared = svc.submit("clientB", clientSource(100, 50));
    ASSERT_TRUE(shared.ok);
    EXPECT_EQ(shared.cacheHits, 3u);
    EXPECT_EQ(shared.cacheMisses, 0u);
    EXPECT_EQ(svc.sessionCount(), 2u);
}

TEST(MatchService, CompileErrorKeepsPreviousSession)
{
    service::MatchService svc;
    auto good = svc.submit("clientA", clientSource());
    ASSERT_TRUE(good.ok);

    auto bad = svc.submit("clientA", "void broken( {");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    // `__protect` is an ordinary identifier, so it cannot start a
    // declaration: the SUBMIT is a located compile error.
    auto annotated =
        svc.submit("clientA", "__protect int f() { return 0; }");
    EXPECT_FALSE(annotated.ok);
    EXPECT_NE(annotated.error.find("error at 1:"), std::string::npos)
        << annotated.error;

    service::SubmitOutcome last;
    ASSERT_TRUE(svc.lastOutcome("clientA", &last));
    EXPECT_TRUE(last.ok);
    EXPECT_EQ(last.matches, good.matches);
    EXPECT_EQ(svc.sessionCount(), 1u);

    EXPECT_TRUE(svc.drop("clientA"));
    EXPECT_FALSE(svc.drop("clientA"));
    EXPECT_EQ(svc.sessionCount(), 0u);
}

TEST(MatchService, ResubmissionReusesUnchangedFunctions)
{
    service::MatchService svc;
    ASSERT_TRUE(svc.submit("clientA", clientSource(100, 50)).ok);
    EXPECT_EQ(svc.serviceCounters().compileReused, 0u);

    // Only histo changed: reduce and helper keep their compiled IR,
    // and the result is what a cold service computes.
    auto edited = svc.submit("clientA", clientSource(100, 51));
    ASSERT_TRUE(edited.ok) << edited.error;
    EXPECT_EQ(svc.serviceCounters().compileReused, 2u);
    service::MatchService cold;
    auto fresh = cold.submit("clientA", clientSource(100, 51));
    ASSERT_EQ(edited.perFunction.size(), fresh.perFunction.size());
    for (size_t i = 0; i < fresh.perFunction.size(); ++i) {
        EXPECT_EQ(edited.perFunction[i].name, fresh.perFunction[i].name);
        EXPECT_EQ(edited.perFunction[i].contentHash,
                  fresh.perFunction[i].contentHash);
    }
    EXPECT_EQ(edited.matches, fresh.matches);

    // A failed SUBMIT leaves the session to reuse from intact...
    EXPECT_FALSE(svc.submit("clientA", "void broken( {").ok);
    EXPECT_EQ(svc.serviceCounters().compileReused, 2u);
    auto again = svc.submit("clientA", clientSource(100, 52));
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(svc.serviceCounters().compileReused, 4u);
    EXPECT_EQ(again.cacheHits, 2u);

    // ...a session of another module is never a source, and DROP
    // removes the source along with the session.
    ASSERT_TRUE(svc.submit("clientB", clientSource(100, 52)).ok);
    EXPECT_EQ(svc.serviceCounters().compileReused, 4u);
    EXPECT_TRUE(svc.drop("clientA"));
    ASSERT_TRUE(svc.submit("clientA", clientSource(100, 52)).ok);
    EXPECT_EQ(svc.serviceCounters().compileReused, 4u);
    EXPECT_EQ(svc.serviceCounters().invalidIr, 0u);
}

TEST(MatchService, BadNumberLiteralIsACompileError)
{
    service::MatchService svc;
    ASSERT_TRUE(svc.submit("clientA", clientSource()).ok);
    const char *sources[] = {
        "int f() { return 99999999999999999999; }",
        "double f() { return 1e999; }",
        "int f(int a[99999999999999999999]) { return 0; }",
        "double f() { return 1.2.3; }",
    };
    for (const char *src : sources) {
        service::SubmitOutcome bad;
        ASSERT_NO_THROW(bad = svc.submit("clientA", src)) << src;
        EXPECT_FALSE(bad.ok) << src;
        EXPECT_EQ(bad.error.rfind("error at 1:", 0), 0u) << bad.error;
    }
    service::SubmitOutcome last;
    ASSERT_TRUE(svc.lastOutcome("clientA", &last));
    EXPECT_TRUE(last.ok);
}

// A SUBMIT nested past frontend::kMaxNesting is a located compile
// error; the service keeps the previous session and serves the next
// SUBMIT as usual.
TEST(MatchService, DeepNestingIsALocatedError)
{
    service::MatchService svc;
    auto good = svc.submit("clientA", clientSource());
    ASSERT_TRUE(good.ok) << good.error;

    const size_t n = 1000000;
    auto deep = svc.submit("clientA", "int f(int a) { return " +
                                          std::string(n, '(') + "a" +
                                          std::string(n, ')') + "; }");
    EXPECT_FALSE(deep.ok);
    EXPECT_EQ(deep.error,
              "error at 1:522: nesting deeper than 1000 levels");
    service::SubmitOutcome last;
    ASSERT_TRUE(svc.lastOutcome("clientA", &last));
    EXPECT_EQ(last.matches, good.matches);

    auto next = svc.submit("clientA", clientSource(100, 51));
    ASSERT_TRUE(next.ok) << next.error;
    EXPECT_EQ(next.matches, good.matches);
}

// ------------------------------------------------------- line proto

TEST(Protocol, ParseRequests)
{
    auto submit = service::parseRequest("SUBMIT mod 123");
    EXPECT_EQ(submit.verb, service::Request::Verb::Submit);
    EXPECT_EQ(submit.module, "mod");
    EXPECT_EQ(submit.payloadBytes, 123u);

    auto heredoc = service::parseRequest("SUBMIT mod <<EOF");
    EXPECT_EQ(heredoc.verb, service::Request::Verb::Submit);
    EXPECT_EQ(heredoc.terminator, "EOF");

    EXPECT_EQ(service::parseRequest("SUBMIT mod x7").verb,
              service::Request::Verb::Invalid);
    EXPECT_EQ(service::parseRequest("FROBNICATE").verb,
              service::Request::Verb::Invalid);
    EXPECT_EQ(service::parseRequest("CAPACITY 64").capacity, 64u);
}

TEST(Protocol, ReplScriptedEditSession)
{
    // Counted SUBMIT payloads through the iostream REPL — exactly
    // what a daemon client sends over a socket.
    const std::string v1 = clientSource(100, 50);
    const std::string v2 = clientSource(100, 51);
    std::ostringstream script;
    script << "HELLO\n";
    script << "SUBMIT editsess " << v1.size() << "\n" << v1;
    script << "SUBMIT editsess " << v2.size() << "\n" << v2;
    script << "MATCHES editsess\n";
    script << "STATS\n";
    script << "BOGUS\n";
    script << "QUIT\n";

    service::MatchService svc;
    std::istringstream in(script.str());
    std::ostringstream out;
    size_t served = service::runRepl(svc, in, out);
    EXPECT_EQ(served, 7u);

    const std::string transcript = out.str();
    EXPECT_NE(transcript.find("OK service=repro-match protocol=1"),
              std::string::npos);
    // Cold submit: all three functions solved.
    EXPECT_NE(transcript.find("misses=3"), std::string::npos);
    // Edited resubmit: two replayed, one solved.
    EXPECT_NE(transcript.find("hits=2 misses=1"), std::string::npos);
    EXPECT_NE(transcript.find("source=cache"), std::string::npos);
    EXPECT_NE(transcript.find("source=solve"), std::string::npos);
    EXPECT_NE(transcript.find("idiom=Reduction"), std::string::npos);
    EXPECT_NE(transcript.find("ERR unknown verb: BOGUS"),
              std::string::npos);
    EXPECT_NE(transcript.find("OK bye"), std::string::npos);
}

TEST(Protocol, StatsCountsReuseAndInvalidIr)
{
    const std::string v1 = clientSource(100, 50);
    const std::string v2 = clientSource(100, 51);
    std::ostringstream script;
    script << "STATS\n";
    script << "SUBMIT editsess " << v1.size() << "\n" << v1;
    script << "SUBMIT editsess " << v2.size() << "\n" << v2;
    script << "STATS\n";

    service::MatchService svc;
    std::istringstream in(script.str());
    std::ostringstream out;
    EXPECT_EQ(service::runRepl(svc, in, out), 4u);
    const std::string transcript = out.str();
    // The new keys follow sessions=, which keeps its place.
    EXPECT_NE(transcript.find(" insertions=0 sessions=0 "
                              "compile_reused=0 invalid_ir=0 "
                              "degraded_budget=0 degraded_deadline=0\n"),
              std::string::npos)
        << transcript;
    EXPECT_NE(transcript.find(" sessions=1 compile_reused=2 "
                              "invalid_ir=0 degraded_budget=0 "
                              "degraded_deadline=0\n"),
              std::string::npos)
        << transcript;

    // A return without a value in an int function is a located
    // compile error, not a verifier rejection: invalid_ir stays 0
    // under either VerifyMode.
    service::SubmitOutcome bad = svc.submit("editsess", "int f() { return; }");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.error,
              "error at 1:11: non-void function 'f' should return a value");
    std::istringstream stats("STATS\n");
    std::ostringstream statsOut;
    service::runRepl(svc, stats, statsOut);
    EXPECT_NE(statsOut.str().find(" sessions=1 compile_reused=2 "
                                  "invalid_ir=0 degraded_budget=0 "
                                  "degraded_deadline=0\n"),
              std::string::npos)
        << statsOut.str();
}

// An ill-typed SUBMIT is a located compile error: the connection
// stays open for the next request and the verifier counter stays 0.
// An array parameter compiles.
TEST(Protocol, IllTypedSubmitKeepsConnection)
{
    struct Case
    {
        const char *source;
        const char *reply;
    };
    const Case cases[] = {
        {"int f(int *a) { return a[0][0]; }",
         "ERR error at 1:28: subscripted value of type i32 is not a "
         "pointer or array"},
        {"int h(int a) { return *a; }",
         "ERR error at 1:23: dereferenced value of type i32 is not a "
         "pointer or array"},
        {"void k(int a) { a[0] = 1; }",
         "ERR error at 1:18: subscripted value of type i32 is not a "
         "pointer or array"},
        // This one used to kill the daemon with SIGSEGV.
        {"void k(int a) { *a = 1; }",
         "ERR error at 1:17: dereferenced value of type i32 is not a "
         "pointer or array"},
        {"int f(double d) { return d % 2; }",
         "ERR error at 1:28: invalid operand type double for '%'"},
        {"int f(double d) { return d << 1; }",
         "ERR error at 1:28: invalid operand type double for '<<'"},
        {"int f(int a) { return; }",
         "ERR error at 1:16: non-void function 'f' should return a "
         "value"},
        {"double f(double a[][8], double x[], int n) {\n"
         "    double s = 0.0;\n"
         "    for (int i = 0; i < n; i++)\n"
         "        s = s + a[i][i] * x[i];\n"
         "    return s;\n"
         "}\n",
         "OK module=typed "},
    };
    std::ostringstream script;
    for (const Case &c : cases) {
        script << "SUBMIT typed " << std::strlen(c.source) << "\n"
               << c.source;
        script << "STATS\n";
    }
    script << "QUIT\n";

    service::MatchService svc;
    std::istringstream in(script.str());
    std::ostringstream out;
    const size_t n = sizeof(cases) / sizeof(cases[0]);
    EXPECT_EQ(service::runRepl(svc, in, out), 2 * n + 1);

    std::vector<std::string> lines;
    std::istringstream transcript(out.str());
    for (std::string line; std::getline(transcript, line);)
        lines.push_back(line);
    size_t at = 0;
    for (const Case &c : cases) {
        ASSERT_LT(at, lines.size());
        EXPECT_EQ(lines[at].rfind(c.reply, 0), 0u)
            << c.source << "\n" << lines[at];
        if (lines[at].rfind("OK ", 0) == 0) {
            while (at < lines.size() && lines[at] != "END")
                ++at;
        }
        ++at;
        ASSERT_LT(at, lines.size());
        EXPECT_EQ(lines[at].rfind("OK entries=", 0), 0u) << lines[at];
        EXPECT_NE(lines[at].find(" invalid_ir=0 "), std::string::npos)
            << lines[at];
        ++at;
    }
    ASSERT_LT(at, lines.size());
    EXPECT_EQ(lines[at], "OK bye");
    EXPECT_EQ(svc.serviceCounters().invalidIr, 0u);
}

/** The reply to one STATS request against @p svc. */
std::string
statsReply(service::MatchService &svc)
{
    std::istringstream in("STATS\n");
    std::ostringstream out;
    service::runRepl(svc, in, out);
    return out.str();
}

TEST(Protocol, StatsCountsBudgetDegradations)
{
    // With forward checking the costliest solve of clientSource()
    // still needs over 30 assignments; a budget of 10 trips it on
    // every SUBMIT, since degraded results are never cached.
    service::ServiceOptions opts;
    opts.limits.maxAssignments = 10;
    service::MatchService svc(opts);
    for (int i = 0; i < 2; ++i) {
        service::SubmitOutcome out = svc.submit("starved", clientSource());
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_EQ(out.degraded, "budget");
    }
    EXPECT_EQ(svc.serviceCounters().degradedBudget, 2u);
    EXPECT_EQ(svc.serviceCounters().degradedDeadline, 0u);
    const std::string reply = statsReply(svc);
    EXPECT_NE(reply.find(" invalid_ir=0 degraded_budget=2 "
                         "degraded_deadline=0\n"),
              std::string::npos)
        << reply;
}

TEST(Protocol, StatsCountsDeadlineDegradations)
{
    // A default deadline already past when the solve starts degrades
    // deterministically; a complete SUBMIT counts as neither.
    service::ServiceOptions opts;
    opts.limits.deadline =
        std::chrono::steady_clock::now() - std::chrono::seconds(1);
    service::MatchService svc(opts);
    service::SubmitOutcome late = svc.submit("late", clientSource());
    ASSERT_TRUE(late.ok) << late.error;
    EXPECT_EQ(late.degraded, "deadline");
    service::SubmitOutcome done =
        svc.submit("late", clientSource(), 60'000);
    ASSERT_TRUE(done.ok) << done.error;
    EXPECT_TRUE(done.degraded.empty());
    EXPECT_EQ(svc.serviceCounters().degradedBudget, 0u);
    EXPECT_EQ(svc.serviceCounters().degradedDeadline, 1u);
    const std::string reply = statsReply(svc);
    EXPECT_NE(reply.find(" invalid_ir=0 degraded_budget=0 "
                         "degraded_deadline=1\n"),
              std::string::npos)
        << reply;
}

TEST(Protocol, OversizedCountedSubmitIsRejectedBeforeAllocation)
{
    // A hostile byte count must never reach std::string::resize
    // (std::length_error would escape the handler and terminate the
    // daemon): it is refused before any of the payload is read, and
    // the connection — no longer synchronizable — is torn down.
    std::istringstream in("SUBMIT big 18446744073709551615\nSTATS\n");
    std::ostringstream out;
    service::MatchService svc;
    EXPECT_EQ(service::runRepl(svc, in, out), 1u);
    EXPECT_NE(out.str().find("ERR payload too large"),
              std::string::npos);
    // The unread "payload" cannot be skipped, so STATS never runs.
    EXPECT_EQ(out.str().find("entries="), std::string::npos);
}

TEST(Protocol, OversizedHeredocFailsRequestButKeepsConnection)
{
    // The heredoc form is drained to its terminator with bounded
    // memory: the one request fails, the stream stays in sync.
    std::ostringstream script;
    script << "SUBMIT big <<EOF\n";
    const std::string chunk(1u << 20, 'x');
    for (int i = 0; i < 17; ++i)
        script << chunk << "\n";
    script << "EOF\n";
    script << "STATS\n";
    script << "QUIT\n";

    service::MatchService svc;
    std::istringstream in(script.str());
    std::ostringstream out;
    EXPECT_EQ(service::runRepl(svc, in, out), 3u);
    const std::string transcript = out.str();
    EXPECT_NE(transcript.find("ERR payload too large"),
              std::string::npos);
    EXPECT_NE(transcript.find("OK entries=0"), std::string::npos);
    EXPECT_NE(transcript.find("OK bye"), std::string::npos);
}

// ------------------------------------------------------ socket front

namespace {

/** Minimal blocking unix-socket client for the round-trip test. */
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

    ~UnixClient()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    bool connected() const { return connected_; }

    void
    send(const std::string &data)
    {
        size_t sent = 0;
        while (sent < data.size()) {
            ssize_t n = ::write(fd_, data.data() + sent,
                                data.size() - sent);
            ASSERT_GT(n, 0);
            sent += static_cast<size_t>(n);
        }
    }

    /** Read until the peer closes (server side of QUIT). */
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

  private:
    int fd_ = -1;
    bool connected_ = false;
};

} // namespace

TEST(SocketServer, UnixSocketEditSessionRoundTrip)
{
    const std::string path =
        "/tmp/repro_service_test_" + std::to_string(::getpid()) +
        ".sock";
    service::MatchService svc;
    service::ServerOptions opts;
    opts.unixPath = path;
    service::SocketServer server(svc, opts);
    server.start();

    {
        const std::string v1 = clientSource(100, 50);
        UnixClient client(path);
        ASSERT_TRUE(client.connected());
        std::ostringstream script;
        script << "HELLO\n";
        script << "SUBMIT sockmod " << v1.size() << "\n" << v1;
        script << "SUBMIT sockmod " << v1.size() << "\n" << v1;
        script << "STATS\n";
        script << "QUIT\n";
        client.send(script.str());

        const std::string transcript = client.drain();
        EXPECT_NE(transcript.find("OK service=repro-match"),
                  std::string::npos);
        EXPECT_NE(transcript.find("misses=3"), std::string::npos);
        EXPECT_NE(transcript.find("hits=3 misses=0"),
                  std::string::npos);
        EXPECT_NE(transcript.find("OK bye"), std::string::npos);
    }

    // The warm submission went through the shared service state.
    EXPECT_EQ(svc.sessionCount(), 1u);
    EXPECT_EQ(svc.cacheCounters().hits, 3u);

    {
        // An out-of-range literal is an ordinary compile error: the
        // connection survives it (it used to escape the handler as
        // std::out_of_range and close the connection).
        const std::string bad = "int f() { return 99999999999999999999; }";
        UnixClient client(path);
        ASSERT_TRUE(client.connected());
        std::ostringstream script;
        script << "SUBMIT sockmod " << bad.size() << "\n" << bad;
        script << "STATS\n";
        script << "QUIT\n";
        client.send(script.str());

        const std::string transcript = client.drain();
        EXPECT_NE(transcript.find("ERR error at 1:18: integer literal "
                                  "'99999999999999999999' out of range\n"
                                  "OK entries="),
                  std::string::npos)
            << transcript;
        EXPECT_EQ(transcript.find("internal error"), std::string::npos);
        EXPECT_NE(transcript.find("OK bye"), std::string::npos);
    }
    server.stop();
}
