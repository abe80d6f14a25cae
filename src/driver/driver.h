/**
 * @file
 * Batched end-to-end idiom-matching driver.
 *
 * Every evaluation binary of the paper (Tables 1-3, Figures 16-19)
 * needs the same pipeline: compile MiniC to optimized SSA, run the
 * idiom library's constraint solver over every function, and
 * optionally apply the idiom-to-API transformations. The
 * MatchingDriver packages that pipeline behind one entry point,
 * building the per-function analyses (dominators, loops, CFG,
 * candidate indices) once per function and sharing them across all
 * idioms solved against it, and aggregating SolveStats so callers get
 * the paper's search-effort numbers without threading counters
 * through their own loops.
 *
 * Matching is embarrassingly parallel across functions: solving
 * writes nothing outside per-function state (analyses, candidate
 * indices including the function's own value ids, solver stats), all
 * of which is owned by a single worker. matchModules exploits that
 * with a work-stealing shard pool whose results are byte-identical
 * for every thread count; one thread is the serial pipeline. The
 * guarantee is scoped per function: run at most one matching pass
 * over a given module at a time (two concurrent runs would both
 * build indices — and write ids — for the same functions).
 */
#ifndef DRIVER_DRIVER_H
#define DRIVER_DRIVER_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "driver/match_cache.h"
#include "idioms/library.h"
#include "ir/verifier.h"
#include "solver/solver.h"
#include "transform/transform.h"

namespace repro::driver {

/** Pipeline configuration. */
struct DriverOptions
{
    /** Limits forwarded to every constraint solve. */
    solver::SolverLimits limits;
    /**
     * Run the idiom-to-API transformation stage after matching. The
     * report's match solutions then dangle into rewritten IR; see
     * MatchReport.
     */
    bool applyTransforms = false;
    /**
     * Cross-request match cache shared between drivers, service
     * sessions and worker threads (see driver/match_cache.h). When
     * set, matchModule/matchModules replay cached solve results
     * for any function whose contentHash is already stored instead of
     * re-solving it. Null (the default) preserves the pure batch
     * pipeline byte for byte.
     */
    std::shared_ptr<MatchCache> cache;
    /**
     * Pass-boundary IR verification (ir/verifier.h). Defaults to the
     * REPRO_VERIFY environment switch. With VerifyMode::Boundaries
     * the pipeline re-verifies the module after frontend compilation
     * (per optimization stage), after every rewrite-engine commit and
     * rollback, and before bytecode lowering in the execution harness
     * — throwing InternalError naming the first broken boundary.
     */
    ir::VerifyMode verify = ir::defaultVerifyMode();
    /**
     * How the transform stage picks each replacement's backend
     * (transform/transform.h). Fixed — the default — lowers every
     * idiom class to its historical host target, keeping Table 1
     * counts and every byte-parity test unchanged; CostModel ranks
     * all legal (API, platform) lowerings by the cost model
     * (runtime/cost.h) against the call site's static workload
     * estimate (analysis/workload.h) and commits the cheapest.
     */
    transform::BackendPolicy backendPolicy =
        transform::BackendPolicy::Fixed;
    /**
     * Force the backend of every replacement of a given kind ("gemm",
     * "spmv", ...), overriding the policy — the differential sweep's
     * way of driving each legal alternative through the pipeline.
     */
    std::map<std::string, runtime::BackendTarget> forcedBackends;
};

/** Matches and solver effort of one function. */
struct FunctionReport
{
    ir::Function *function = nullptr;
    std::vector<idioms::IdiomMatch> matches;
    /** Solver effort spent on this function alone. When the result
     *  was replayed from the match cache these are the stats of the
     *  original solve, so warm reports stay byte-identical to cold
     *  ones. */
    solver::SolveStats stats;
    /** Structural hash (only computed when a cache is attached). */
    uint64_t contentHash = 0;
    /** True when the result was replayed from the match cache. */
    bool fromCache = false;
    /**
     * Worst solve status across this function's idiom solves.
     * Non-Complete means the matches are valid but possibly
     * incomplete; such results are reported to the caller and NEVER
     * deposited into the match cache (a later resubmission re-solves
     * instead of replaying a truncated result). Replayed entries are
     * always Complete — degraded results are uncacheable.
     */
    solver::SolveStatus status = solver::SolveStatus::Complete;
};

/**
 * Result of one batched run over a module.
 *
 * When the run applied transformations, the matches' solution
 * bindings may reference IR the rewriting stage has since erased:
 * use them for counting/classification only and take the surviving
 * structure from `replacements`.
 */
struct MatchReport
{
    std::vector<FunctionReport> functions;
    /** Replacements performed (empty unless applyTransforms). */
    std::vector<transform::Replacement> replacements;
    /** Solver effort summed over the whole batch (replayed functions
     *  contribute their original solve's stats). */
    solver::SolveStats totals;
    /** Functions replayed from / missed in the match cache. Both stay
     *  zero when no cache is attached. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** Worst per-function solve status (see FunctionReport::status). */
    solver::SolveStatus status = solver::SolveStatus::Complete;

    /** True when some solve stopped at a budget/deadline limit. */
    bool degraded() const
    {
        return status != solver::SolveStatus::Complete;
    }

    /** All matches flattened in module order. */
    std::vector<idioms::IdiomMatch> allMatches() const;

    /** Total number of matches across all functions. */
    size_t matchCount() const;
};

/**
 * Differential execution record of one benchmark program, produced by
 * MatchingDriver::verifyTransform. The harness runs the original and
 * the transformed program on identically seeded heaps, each under
 * both execution engines (bytecode Interpreter::run and tree-walking
 * Interpreter::runReference), and requires:
 *
 *  - byte-identical final heaps, return values, Profile counts and
 *    per-natural-loop dynamic instruction counts between the two
 *    engines, for the original and the transformed program alike; and
 *  - byte-identical watched output arrays and return values between
 *    the original and the transformed program (the paper's Figure 1
 *    claim: replacing idioms with heterogeneous API calls preserves
 *    results).
 */
struct TransformVerification
{
    std::string name;
    /** Idiom matches found / replacements actually applied. */
    size_t matches = 0;
    size_t replacements = 0;
    /** Natural loops whose dynamic counts were compared per engine. */
    size_t loopsCompared = 0;
    /** Dynamic instructions of the original / transformed program
     *  (reference engine; the bytecode engine must agree exactly). */
    uint64_t originalSteps = 0;
    uint64_t transformedSteps = 0;
    /** First mismatch description; empty when everything agreed. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/** Raw solve of one lowered constraint program (ablation studies). */
struct SolveOutcome
{
    std::vector<solver::Solution> solutions;
    solver::SolveStats stats;
    /** Wall-clock of the search itself, excluding solver setup. */
    double solveMillis = 0.0;
};

/**
 * The matching pipeline, usable one-shot or as a long-lived session
 * core. A driver holds no IR: every call builds the analyses it needs
 * for the functions it is handed and drops them before returning, so
 * one driver may serve any number of modules, in any order, across
 * their lifetimes. Its only state is the options, the accumulated
 * solver effort and the optional cross-request match cache.
 *
 * With a MatchCache attached (DriverOptions::cache or attachCache),
 * matchModule / matchModules become incremental across requests: each
 * function's solve result is stored portably under (contentHash,
 * idiomSetHash), and any later function hashing equal — the same
 * function resubmitted, or the same body from another client —
 * replays the stored matches re-anchored onto its own IR instead of
 * re-solving. Replayed functions contribute their original SolveStats
 * to the report (keeping warm reports byte-identical to cold ones) but
 * not to totals(), which keeps counting real solver effort only.
 * matchFunction/matchOne/solveProgram bypass the cache: their keys
 * (single idiom, ad-hoc program) live outside the full-idiom-set key
 * space.
 */
class MatchingDriver
{
  public:
    explicit MatchingDriver(DriverOptions opts = {});

    /**
     * Full pipeline: compile @p source into @p module (parse, codegen,
     * mem2reg, LICM, DCE), then match every function in a batch.
     * Throws FatalError on compilation failure.
     */
    MatchReport compileAndMatch(const std::string &source,
                                ir::Module &module);

    /** Batch-match every defined function of an existing module:
     *  matchModules over @p module alone, on the calling thread. */
    MatchReport matchModule(ir::Module &module);

    /**
     * Match every defined function of @p modules. The functions
     * become shards on one work-stealing queue drained by
     * @p numThreads workers (0 = hardware concurrency, 1 = inline on
     * the calling thread); a shared queue is the right shape when
     * every module has few functions (each of the paper's 21
     * benchmark programs compiles to a single-function module). Each
     * shard builds its own FunctionAnalyses and each worker keeps a
     * private SolveStats accumulator, merged at join, so the match
     * sets, the per-function stats and the aggregated totals are
     * byte-identical for every thread count and reported in module
     * order regardless of scheduling.
     *
     * With applyTransforms, a transform stage follows the join on the
     * same pool: module @p i becomes one shard, and a fresh
     * transactional Transformer applies that module's matches to it
     * (plan → resolve overlaps → validate → commit; see
     * transform/rewrite.h). Within one module the engine plans in
     * match order, so the replacement lists do not depend on the
     * thread count either. Reports are returned in @p modules order.
     */
    std::vector<MatchReport>
    matchModules(const std::vector<ir::Module *> &modules,
                 unsigned numThreads = 1);

    /**
     * Differentially verify one benchmark program end to end
     * (match -> transform -> bind -> execute); see
     * TransformVerification for the exact contract. Self-contained:
     * compiles private modules and drivers (only opts_ is read), so
     * it is safe to call concurrently from many workers.
     */
    TransformVerification
    verifyTransform(const benchmarks::BenchmarkProgram &program) const;

    /**
     * verifyTransform with a sabotage hook: @p tamper mutates the
     * transformed module after match + rewrite but before any
     * execution. The negative-oracle tests drive this to prove the
     * differential harness can actually fail — a deliberately broken
     * transformation (say, a dropped store) must surface as a
     * non-empty error, otherwise the 21-program green run proves
     * nothing. Pass a null hook for the production behavior.
     */
    TransformVerification
    verifyTransform(const benchmarks::BenchmarkProgram &program,
                    const std::function<void(ir::Module &)> &tamper)
        const;

    /**
     * verifyTransform over the whole NAS/Parboil suite. The programs
     * become shards on the same work-stealing pool matchModules uses
     * (0 = hardware concurrency); results are written to slots
     * preassigned in suite order, so they do not depend on
     * @p numThreads or on scheduling.
     */
    std::vector<TransformVerification>
    verifyTransforms(unsigned numThreads = 1) const;

    /** Match one function, all top-level idioms, with subsumption. */
    std::vector<idioms::IdiomMatch> matchFunction(ir::Function *func);

    /** Match one named idiom against one function (no subsumption). */
    std::vector<idioms::IdiomMatch>
    matchOne(ir::Function *func, const std::string &idiom);

    /**
     * Solve an already lowered constraint program against a function.
     * Used by ablations that perturb the program before solving.
     */
    SolveOutcome solveProgram(ir::Function *func,
                              const solver::ConstraintProgram &program);

    /** Solver effort accumulated over the driver's lifetime. Cache
     *  replays do not count: this is real search work only. */
    const solver::SolveStats &totals() const { return totals_; }

    /**
     * Replace the solver limits for subsequent solves. The service
     * front uses this to apply a per-request wall-clock deadline
     * (SolverLimits::deadline) to a long-lived session driver; the
     * caller must serialize this against concurrent runs (MatchService
     * holds its session mutex across set + match).
     */
    void setSolverLimits(const solver::SolverLimits &limits)
    {
        opts_.limits = limits;
    }

    /** Attach (or detach, with nullptr) the cross-request cache. */
    void attachCache(std::shared_ptr<MatchCache> cache);

  private:
    /**
     * Replay @p func's cached solve result into @p fr if the attached
     * cache holds its (contentHash, idiomSetHash) key and the entry
     * re-anchors cleanly. Counts the cache hit/miss. Requires
     * fr->contentHash to be set.
     */
    bool tryReplay(ir::Function *func, FunctionReport *fr);

    /**
     * Store @p fr's freshly solved matches in the attached cache.
     * Functions whose bindings cannot be encoded portably are left
     * uncached.
     */
    void storeSolveResult(ir::Function *func, const FunctionReport &fr);

    /** Backend-selection inputs for a Transformer, from the options. */
    transform::BackendConfig backendConfig() const;

    DriverOptions opts_;
    solver::SolveStats totals_;
};

} // namespace repro::driver

#endif // DRIVER_DRIVER_H
