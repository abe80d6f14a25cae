/**
 * @file
 * The transactional rewrite engine: plan → validate → commit.
 *
 * Replacing matches one at a time, with cleanup passes (unreachable-
 * block removal + aggressive DCE) after every replacement while later
 * matches in the same function still hold raw Value and Instruction
 * pointers from their solutions, invites two bug classes:
 *
 *  - overlap double-rewrite: two matches claiming the same loop
 *    blocks (a Reduction inside a GEMM nest) are both applied; the
 *    second rewrites blocks the first has already bypassed — or
 *    dereferences blocks the first's cleanup has erased;
 *  - stale solution pointers: the first replacement's DCE erases an
 *    instruction a later match's solution still references, a
 *    use-after-free even for fully disjoint matches.
 *
 * The RewriteEngine stages mutation instead:
 *
 *  1. PLAN — the planner of the match's idiom (the replacement kind
 *     of its idioms::idiomTable() row: spmv/gemm/reduce/histogram/
 *     stencil) runs as a pure function over unmutated IR inside a
 *     frame plan() shares across schemes, and emits a RewritePlan:
 *     the loop blocks it claims, the callee declaration to
 *     materialize, kernel slices to extract (classified, not yet
 *     cloned), and the call arguments as recorded values. The plan's
 *     backend target is chosen right there (BackendConfig). No IR is
 *     touched.
 *  2. RESOLVE — block claims are intersected across plans;
 *     overlapping claims are resolved most-specific-first (widest
 *     claim, then idiom table order, then match order) and the
 *     losers dropped, making applyAll's "most specific first"
 *     contract real.
 *  3. VALIDATE — every surviving plan is checked against the live IR
 *     before any mutation: dangling solution values, cross-function
 *     references, callee signature clashes, argument/parameter type
 *     mismatches, and bypassability of the claimed loop.
 *  4. COMMIT — surviving plans are applied in match order with an
 *     undo log per function; a mid-commit failure rolls the whole
 *     function back (its earlier replacements included) and poisons
 *     it, leaving every other function's rewrites intact. Values a
 *     committed plan rewired (a reduction accumulator becoming its
 *     API call result) are tracked in a remap so later plans resolve
 *     recorded values to their live replacements instead of
 *     re-wiring stale pointers. Cleanup passes run once per rewritten
 *     function at the very end, never between replacements.
 */
#ifndef TRANSFORM_REWRITE_H
#define TRANSFORM_REWRITE_H

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/function_analyses.h"
#include "idioms/library.h"
#include "ir/verifier.h"
#include "transform/extract.h"
#include "transform/loop_shape.h"
#include "transform/transform.h"

namespace repro::transform {

/** One recorded call argument and how commit lowers it. */
struct CallArg
{
    enum class Mode
    {
        Raw,   ///< pass the value unchanged
        ToI64, ///< sign-extend / re-intern to i64 when needed
        Decay, ///< decay pointer-to-array to element pointer via gep
    };
    Mode mode = Mode::Raw;
    ir::Value *value = nullptr;
};

/** One kernel function the commit stage will materialize. */
struct PlannedKernel
{
    std::string name;
    KernelSlice slice;
};

/**
 * Everything one idiom replacement will do, computed without mutating
 * the IR. Values are recorded as pointers into the still-unmutated
 * module; RewriteEngine::validate re-checks them against the live IR
 * before any commit mutates it, and commit resolves them through the
 * remap of already-committed rewrites.
 */
struct RewritePlan
{
    /** The matched idiom's table row (overlap specificity). */
    const idioms::IdiomInfo *idiom = nullptr;
    ir::Function *function = nullptr;
    /** Position in the planned match list (commit order). */
    size_t matchIndex = 0;

    /** Outermost loop the commit will bypass. */
    detail::LoopShape loop;
    /** Natural-loop blocks this plan claims (overlap currency). */
    std::vector<ir::BasicBlock *> claimedBlocks;

    /** Callee declaration to materialize (or reuse by
     *  record.calleeName). */
    ir::Type *calleeReturn = nullptr;
    std::vector<ir::Type *> calleeParams;
    /**
     * Library-backed schemes (spmv, gemm) share one declaration per
     * module, named per backend target.
     */
    bool reuseCallee = false;

    /** Kernel extractions ([0] = value kernel, [1] = index kernel). */
    std::vector<PlannedKernel> kernels;
    /** Arguments of the inserted call, in order. */
    std::vector<CallArg> args;

    /**
     * Reduction: out-of-claim uses of this value are rewired to the
     * inserted call's result at commit time.
     */
    ir::Value *resultReplaces = nullptr;

    /**
     * Replacement record (function pointers filled in at commit):
     * the kind, the callee name, the idiom class and the chosen
     * backend target with its ranked rejected alternatives.
     */
    Replacement record;
};

/**
 * Plans, validates and commits idiom replacements over one module.
 * Planning is pure; all mutation happens inside commit(). One engine
 * instance owns the kernel/callee name counter of its module, so use
 * exactly one engine (or one Transformer) per transform pass.
 */
class RewriteEngine
{
  public:
    /** Outcome counters of the engine's lifetime. */
    struct Stats
    {
        size_t planned = 0;     ///< matches that produced a plan
        size_t unplannable = 0; ///< matches no scheme could express
        size_t droppedOverlap = 0;
        size_t failedValidation = 0;
        size_t committed = 0;
        size_t rolledBack = 0; ///< plans undone by a commit failure
    };

    /**
     * With @p verify == VerifyMode::Boundaries, commit() re-verifies
     * every function it touched: after its cleanup passes when its
     * plans committed ("rewrite-commit"), and right after the undo
     * replay when a mid-commit failure rolled it back
     * ("rewrite-rollback"). A verification failure throws
     * InternalError naming the boundary — turning a silent
     * mis-rewrite into a hard stop at the pass that caused it.
     */
    explicit RewriteEngine(ir::Module &module,
                           ir::VerifyMode verify = ir::VerifyMode::Off,
                           BackendConfig backends = BackendConfig())
        : module_(module), verify_(verify),
          backends_(std::move(backends))
    {
    }

    /**
     * Plan one match against @p fa, the analyses of match.function;
     * nullopt when no scheme can express it. The frame shared by all
     * schemes finds the bypassed loop (the first of the row's claim
     * variables) and checks that it can be bypassed; the planner of
     * the row's replacement kind adds the rest. The plan leaves with its
     * backend target chosen: a forced target for its kind, else
     * runtime::fixedTarget under BackendPolicy::Fixed, else the
     * cheapest of runtime::rankTargets for the workload of the loop
     * the plan bypasses (the rest become record.rejected).
     * Planning analyzes the match's solution values, so the match
     * must be fresh — produced by detection on the module's current
     * IR. (Stale SOLUTIONS cannot be planned safely; stale PLANS are
     * what validate() exists to catch, by membership checks that
     * never dereference a recorded pointer.)
     */
    std::optional<RewritePlan> plan(const idioms::IdiomMatch &match,
                                    analysis::FunctionAnalyses &fa);

    /**
     * Plan every match, in order (assigns matchIndex), each with its
     * backend chosen. Builds one FunctionAnalyses per function it
     * plans and shares it across that function's matches; the
     * analyses die with the call, so a later planAll sees the IR as
     * it is then.
     */
    std::vector<RewritePlan>
    planAll(const std::vector<idioms::IdiomMatch> &matches);

    /**
     * Drop plans whose block claims overlap an accepted plan's,
     * most-specific-first: widest claim, then the idioms'
     * idioms::idiomTable() order, then match order. Survivors are
     * returned in match order.
     */
    std::vector<RewritePlan>
    resolveOverlaps(std::vector<RewritePlan> plans);

    /**
     * Check @p plan against the live IR: returns "" when it can
     * commit, otherwise a description of the first problem (dangling
     * value, cross-function reference, signature clash, type
     * mismatch, unbypassable loop). applyAll validates every
     * surviving plan after overlap resolution and BEFORE the first
     * commit — commits do not re-validate each other because they
     * defer all erasure to the final per-function cleanup, so no
     * commit can invalidate a sibling's validated plan (beyond the
     * bypass precondition, which commitPlan re-checks itself).
     */
    std::string validate(const RewritePlan &plan) const;

    /**
     * Apply plans in match order, atomically per function: a plan
     * that fails mid-commit rolls back every mutation already made to
     * its function (earlier plans included) and poisons the function
     * for the rest of the batch. Cleanup passes run once per
     * successfully rewritten function after all commits. Plans are
     * expected to be overlap-resolved and validated; commit still
     * re-checks the cheap structural preconditions it depends on.
     */
    std::vector<Replacement> commit(std::vector<RewritePlan> plans);

    /** The full pipeline: plan → resolve overlaps → validate → commit. */
    std::vector<Replacement>
    applyAll(const std::vector<idioms::IdiomMatch> &matches);

    const Stats &stats() const { return stats_; }

  private:
    /**
     * Apply one plan. Mutations are appended to @p undo (run in
     * reverse on rollback); values rewired by earlier commits resolve
     * through @p remap. @p calleeUsers tracks which functions hold
     * committed calls to each shared (reuseCallee) declaration, so a
     * rollback never destroys a declaration another function's call
     * still references — at worst it leaves an unused declaration
     * behind. Returns false on failure with the plan's own partial
     * mutations already recorded in @p undo.
     */
    bool
    commitPlan(RewritePlan &plan,
               std::vector<std::function<void()>> &undo,
               std::map<const ir::Value *, ir::Value *> &remap,
               std::map<ir::Function *, std::set<ir::Function *>>
                   &calleeUsers);

    ir::Module &module_;
    ir::VerifyMode verify_ = ir::VerifyMode::Off;
    BackendConfig backends_;
    int counter_ = 0;
    Stats stats_;
};

} // namespace repro::transform

#endif // TRANSFORM_REWRITE_H
