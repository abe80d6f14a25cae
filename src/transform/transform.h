/**
 * @file
 * Idiom-to-API transformation (section 6 of the paper).
 *
 * A detected idiom solution drives surgery on the IR: the matched
 * loop (nest) is bypassed, a call to a heterogeneous API entry point
 * is inserted in its place, and — for DSL-backed idioms — the loop
 * body's kernel function is extracted into a fresh IR function that
 * the runtime skeleton invokes per element.
 *
 * All rewriting is staged through the RewriteEngine (rewrite.h):
 * matches are planned purely, overlapping block claims are resolved
 * most-specific-first, every plan is validated against the live IR,
 * and mutation happens in one per-function-atomic commit with cleanup
 * passes run once at the end. Transformer is the stable entry point
 * in front of it.
 */
#ifndef TRANSFORM_TRANSFORM_H
#define TRANSFORM_TRANSFORM_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "idioms/library.h"
#include "ir/function.h"
#include "ir/verifier.h"
#include "runtime/cost.h"

namespace repro::transform {

class RewriteEngine;

/**
 * How the engine picks the backend of each replacement.
 *
 * Fixed (the default) lowers every idiom class to its historical
 * host target (runtime::fixedTarget) — byte-identical to the
 * pre-selection transform stack, so Table 1 counts and all parity
 * tests are unaffected. CostModel prices every legal (API, platform)
 * lowering against the call site's workload descriptor and commits
 * the cheapest (docs/BACKENDS.md).
 */
enum class BackendPolicy
{
    Fixed,
    CostModel,
};

/** Backend-selection inputs threaded through the transform stack. */
struct BackendConfig
{
    BackendPolicy policy = BackendPolicy::Fixed;

    /**
     * Force the target of every plan of a given kind ("gemm",
     * "spmv", ...), overriding the policy. The differential
     * verification sweep uses this to drive each legal alternative
     * through the full pipeline.
     */
    std::map<std::string, runtime::BackendTarget> forced;
};

/** Record of one applied replacement. */
struct Replacement
{
    std::string kind;        ///< "spmv" | "gemm" | "reduce" | ...
    std::string calleeName;  ///< the inserted API entry point
    ir::Function *callee = nullptr;
    ir::Function *kernel = nullptr;      ///< extracted kernel
    ir::Function *indexKernel = nullptr; ///< histogram index kernel
    int numReads = 0;
    int numInvariants = 0;
    /** Histogram: trailing invariants of the index kernel. */
    int numIndexInvariants = 0;
    /** Element type kinds of the collected reads, in order. */
    std::vector<ir::Type::Kind> readKinds;
    /** Stencil: flattened per-read offsets (innermost first). */
    std::vector<int64_t> readOffsets;
    int stencilDims = 0;
    /** Value kind of the accumulator / stored element. */
    ir::Type::Kind elemKind = ir::Type::Kind::Double;

    /** Idiom class of the source match. */
    idioms::IdiomClass cls = idioms::IdiomClass::Other;
    /** The backend this call site was lowered to. */
    runtime::BackendTarget target;
    /**
     * Legal alternatives the backend choice rejected, ranked by
     * ascending predicted cost. Empty under BackendPolicy::Fixed.
     */
    std::vector<runtime::BackendTarget> rejected;
    /** Costs were modeled (CostModel policy); Fixed leaves 0s. */
    bool costModeled = false;
};

/**
 * Applies idiom matches to the module. Replacements that the current
 * translation schemes cannot express (e.g. kernels with internal
 * control flow that does not reduce to selects) are skipped — the
 * idiom still counts as detected, it is just not exploited.
 *
 * One Transformer owns one RewriteEngine, and with it the module's
 * kernel/callee name counter: use a fresh instance per transform
 * pass.
 */
class Transformer
{
  public:
    /**
     * @p verify is forwarded to the engine: with
     * VerifyMode::Boundaries, every commit and rollback re-verifies
     * the touched function (see RewriteEngine).
     */
    explicit Transformer(ir::Module &module,
                         ir::VerifyMode verify = ir::VerifyMode::Off,
                         BackendConfig backends = BackendConfig());
    ~Transformer();

    /**
     * Apply every match, most specific first: plan all replacements
     * against the unmutated IR, drop overlapping claims, validate,
     * then commit atomically per function (see RewriteEngine).
     */
    std::vector<Replacement>
    applyAll(const std::vector<idioms::IdiomMatch> &matches);

    /** The engine behind applyAll (stats inspection). */
    const RewriteEngine &engine() const { return *engine_; }

  private:
    std::unique_ptr<RewriteEngine> engine_;
};

} // namespace repro::transform

#endif // TRANSFORM_TRANSFORM_H
