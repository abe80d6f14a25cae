/**
 * @file
 * Matching-as-a-service session core.
 *
 * The batch pipeline recompiles, re-analyzes and re-solves everything
 * on every invocation; MatchService is the long-lived alternative a
 * daemon fronts. It keeps one session per client module name (its
 * compiled ir::Module, the keys its functions were compiled from, and
 * the last report). A submission recompiles only the functions that
 * changed since that session (frontend::compileMiniCReusing) and goes
 * through a cache-attached MatchingDriver, so resubmitting an edited
 * module re-solves only the functions whose structural contentHash()
 * changed — every unchanged function replays its cached matches,
 * re-anchored onto the freshly compiled IR (see driver/match_cache.h
 * for the keying and portability story).
 *
 * The MatchCache is shared across all sessions: two clients
 * submitting the same kernel body share one entry, regardless of
 * module or function names.
 *
 * All public methods are mutex-guarded; concurrent connections of the
 * socket server may call into one MatchService freely. Submitted
 * modules stay alive until their session is replaced, dropped or
 * reset.
 */
#ifndef SERVICE_SERVICE_H
#define SERVICE_SERVICE_H

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/driver.h"
#include "frontend/compiler.h"

namespace repro::service {

/** Service configuration. */
struct ServiceOptions
{
    /** Limits forwarded to every constraint solve. */
    solver::SolverLimits limits;
    /** Match-cache entry bound (LRU beyond this). */
    size_t cacheCapacity = driver::MatchCache::kDefaultCapacity;
    /**
     * Solve deadline applied to every submission that does not carry
     * its own DEADLINE_MS; 0 = unbounded. Deadline expiry degrades
     * the response (partial matches, degraded=deadline), it never
     * fails it.
     */
    uint64_t defaultDeadlineMillis = 0;
    /**
     * Backend selection surfaced on MATCH lines. Under CostModel
     * every submission additionally plans each match against all
     * legal backend targets (static workload estimates — the service
     * never executes client code) and MATCH lines grow
     * backend=/cost_ms=/alt= keys; Fixed (default) keeps the wire
     * format byte-identical to earlier protocol v1 servers.
     */
    transform::BackendPolicy backendPolicy =
        transform::BackendPolicy::Fixed;
};

/** One matched idiom instance, in wire-friendly form. */
struct MatchOutcome
{
    std::string function;
    std::string idiom;
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
    /** Backend selection (CostModel submissions only). */
    bool hasBackend = false;
    /** Chosen target token, e.g. "cuBLAS@GPU". */
    std::string backend;
    double predictedMs = 0.0;
    /** Rejected alternatives (token, predicted ms), cost-ascending. */
    std::vector<std::pair<std::string, double>> rejected;
};

/** Per-function result of one submission. */
struct FunctionOutcome
{
    std::string name;
    uint64_t contentHash = 0;
    size_t matches = 0;
    /** True when replayed from the cross-request cache. */
    bool fromCache = false;
};

/** Result of one SUBMIT. */
struct SubmitOutcome
{
    std::string module;
    bool ok = false;
    /** Compile diagnostics (first line) when !ok. */
    std::string error;

    /**
     * Empty for a complete solve; "budget" / "deadline" when the
     * solver gave up early. The matches listed are then valid but
     * possibly incomplete — and were NOT deposited into the shared
     * cache, so a later resubmission re-solves instead of replaying
     * the truncated result.
     */
    std::string degraded;

    size_t functions = 0;
    size_t matches = 0;
    /** Functions replayed from / missed in the shared cache. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    double compileMillis = 0.0;
    double matchMillis = 0.0;

    std::vector<FunctionOutcome> perFunction;
    std::vector<MatchOutcome> matchList;
};

/** Monotonic compile-side counters (reported by STATS). */
struct ServiceCounters
{
    /** Functions whose optimized IR a SUBMIT reused from its session. */
    uint64_t compileReused = 0;
    /** SUBMITs rejected by the final IR verifier ("invalid-ir"). */
    uint64_t invalidIr = 0;
    /** SUBMITs answered degraded=budget / degraded=deadline. */
    uint64_t degradedBudget = 0;
    uint64_t degradedDeadline = 0;
};

/** The long-lived matching service. */
class MatchService
{
  public:
    explicit MatchService(ServiceOptions opts = {});

    /**
     * Compile @p source as module @p moduleName and match it,
     * replaying every function already known to the cache. Replaces
     * the module's previous session on success; on a compile error
     * the previous session (if any) survives untouched.
     *
     * @p deadlineMillis bounds the solve wall-clock (0 = fall back
     * to ServiceOptions::defaultDeadlineMillis; 0 there too =
     * unbounded). An expired deadline still succeeds, with
     * SubmitOutcome::degraded set and partial matches.
     *
     * Every compiled module runs through the dominance-aware IR
     * verifier once, as compileMiniC's final check (always,
     * independent of the REPRO_VERIFY mode): a module with any
     * error-tier defect is rejected with a structured
     * "error: invalid-ir rule=... function=@..." error before it can
     * reach the session store or the shared cache.
     *
     * The compile runs against the module's previous session: every
     * function whose definition and the module's declarations are
     * token-identical to that session's keeps its optimized IR
     * (frontend::compileMiniCReusing), so a warm SUBMIT compiles only
     * what changed. compileMillis still covers everything from source
     * text to the verified module.
     */
    SubmitOutcome submit(const std::string &moduleName,
                         const std::string &source,
                         uint64_t deadlineMillis = 0);

    /** The last successful outcome for @p moduleName, if any. */
    bool lastOutcome(const std::string &moduleName,
                     SubmitOutcome *out) const;

    /** Drop one session; returns false when absent. */
    bool drop(const std::string &moduleName);

    /** Drop every session and every cache entry. */
    void reset();

    size_t sessionCount() const;

    driver::CacheCounters cacheCounters() const;
    ServiceCounters serviceCounters() const;
    size_t cacheSize() const;
    size_t cacheCapacity() const;
    void setCacheCapacity(size_t capacity);

    /** Identity of the idiom set all cache keys embed. */
    uint64_t idiomSetHash() const;

    /**
     * The shared match cache, for snapshot save/load (see
     * driver/cache_snapshot.h). The cache is internally synchronized,
     * so snapshotting while requests run is safe — the writer walks a
     * shared_ptr view, never the live LRU list.
     */
    driver::MatchCache &cache() { return *cache_; }
    const driver::MatchCache &cache() const { return *cache_; }

  private:
    struct Session
    {
        /** What module's functions were compiled from. */
        frontend::ReuseKeys keys;
        std::unique_ptr<ir::Module> module;
        SubmitOutcome outcome;
    };

    mutable std::mutex mutex_;
    ServiceOptions opts_;
    ServiceCounters counters_;
    std::shared_ptr<driver::MatchCache> cache_;
    driver::MatchingDriver driver_;
    std::map<std::string, Session> sessions_;
};

} // namespace repro::service

#endif // SERVICE_SERVICE_H
