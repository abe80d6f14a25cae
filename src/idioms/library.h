/**
 * @file
 * The IDL idiom library and the detection driver.
 *
 * The library reconstructs the paper's ≈500 lines of IDL: building
 * blocks (SESE, For, ForNest, GepIndex, VectorRead/Store, MatrixRead/
 * Store, ReadRange, DotProductLoop, OffsetIndex, Flat3DIndex,
 * StencilRead) and the top-level idioms of Figures 9-14 (GEMM, SPMV,
 * Histogram, Reduction, Stencil) plus the FactorizationOpportunity
 * example of Figure 2.
 */
#ifndef IDIOMS_LIBRARY_H
#define IDIOMS_LIBRARY_H

#include <memory>
#include <string>
#include <vector>

#include "idl/ast.h"
#include "solver/solver.h"

namespace repro::idioms {

/** Idiom classes reported in Table 1 / Figure 16 of the paper. */
enum class IdiomClass
{
    ScalarReduction,
    HistogramReduction,
    Stencil,
    MatrixOp,
    SparseMatrixOp,
    Other,
};

const char *idiomClassName(IdiomClass cls);

/**
 * Idiom counts per Table 1 class: one benchmark's ground truth, a
 * detector's findings or a baseline's.
 */
struct ClassCounts
{
    int scalarReductions = 0;
    int histograms = 0;
    int stencils = 0;
    int matrixOps = 0;
    int sparseOps = 0;

    /** Count one idiom of @p cls; Other counts in no column. */
    void add(IdiomClass cls);

    int
    total() const
    {
        return scalarReductions + histograms + stencils + matrixOps +
               sparseOps;
    }
};

/**
 * One root idiom of the library: everything the detector, the rewrite
 * engine, the binder and the coverage reports know about it beyond its
 * IDL text. Adding an idiom means adding its IDL and one row.
 */
struct IdiomInfo
{
    std::string name; ///< IDL constraint name, e.g. "SPMV"
    IdiomClass cls;
    /** Variable whose binding deduplicates matches ("" = none). */
    std::string anchor;
    /**
     * Variables bound to the `comparison` of each loop a match
     * occupies, outermost first: subsumption, runtime coverage and
     * the loop a rewrite bypasses (the first) all read them.
     */
    std::vector<std::string> claimVars;
    /** Fewest collected reads (read_value[*]) a counted match binds. */
    size_t minReads;
    /**
     * Replacement::kind the transform stage lowers a match to
     * (transform/rewrite.cpp plans it, transform/binder.cpp binds
     * it); "" when no planner exists.
     */
    std::string rewriteKind;
};

/** One detected idiom instance. */
struct IdiomMatch
{
    std::string idiom;      ///< constraint name, e.g. "SPMV"
    IdiomClass cls = IdiomClass::Other;
    solver::Solution solution;
    ir::Function *function = nullptr;
};

/**
 * Stable serialization of a match's full identity — the comparison
 * key the equivalence tests, benches and examples share, and the
 * identity matches carry into cross-module stores. It embeds the
 * owning module's name and the function's structural
 * contentHash() next to the idiom, class, function name and every
 * solution binding, so two modules with a same-named function (or the
 * same function before and after an edit) never collide.
 */
std::string matchFingerprint(const IdiomMatch &match);

/**
 * Stable hash of the idiom set the detector searches: the full IDL
 * library source plus the ordered top-level idiom list. Any library
 * edit, idiom addition or reordering changes it, invalidating every
 * cross-request cache entry keyed on (function contentHash,
 * idiomSetHash) — see driver/match_cache.h.
 */
uint64_t idiomSetHash();

/** Source text of the complete IDL idiom library. */
const std::string &idiomLibrarySource();

/**
 * Parsed idiom library (shared, immutable). First use also runs the
 * IDL semantic analyzer (idl/check.h) over every solved root and
 * throws FatalError on any error-tier diagnostic, so a defective
 * library fails fast instead of silently never matching.
 */
const idl::IdlProgram &idiomLibrary();

/**
 * Every root idiom, most specific first: a row's index is its
 * specificity rank, which orders subsumption and the resolution of
 * overlapping rewrite claims (a GEMM nest beats the scalar Reduction
 * matched inside it). The detector searches the rows of the Table 1
 * classes in this order; FactorizationOpportunity (Figure 2, class
 * Other) is solved and linted but not detected.
 */
const std::vector<IdiomInfo> &idiomTable();

/** The row of @p idiom, or nullptr for names outside the table. */
const IdiomInfo *findIdiom(const std::string &idiom);

/** Every row's name: the lint roots of the library. */
const std::vector<std::string> &rootIdiomNames();

/**
 * Terminal variable-name components ("leaves" after the last '.')
 * that the transformation stage reads out of idiom solutions — the
 * rewrite ABI between the IDL library and the planners of
 * transform/rewrite.cpp.
 * Passed to the IDL lint as its exported-variable list so unused-var
 * never flags a binding whose single mention IS its export.
 */
const std::vector<std::string> &rewriteAbiVarLeaves();

/**
 * Pre-lowered constraint program of @p idiom, built once and shared
 * (lowering is function-independent, so re-lowering per matched
 * function is pure setup overhead). Covers every idiomTable() row;
 * returns nullptr for any other name. The
 * returned program is immutable and safe to solve from any thread.
 */
const solver::ConstraintProgram *
loweredIdiomOrNull(const std::string &idiom);

/**
 * Slot-addressed compilation of @p idiom's lowered program (see
 * solver/compiled.h), built once next to loweredIdiomOrNull and
 * shared the same way: immutable, thread-safe, nullptr for names
 * outside idiomTable(). The detection hot path solves
 * these; the lowered Node form remains available for ablations and
 * the golden reference engine.
 */
const solver::CompiledProgram *
compiledIdiomOrNull(const std::string &idiom);

/**
 * The detection driver: runs every detected idiomTable() row over a
 * function, deduplicates by anchor variable and applies subsumption (a
 * loop claimed by GEMM/SPMV/Stencil/Histogram is not additionally
 * counted as a scalar reduction).
 */
class IdiomDetector
{
  public:
    IdiomDetector();
    explicit IdiomDetector(const solver::SolverLimits &limits);

    /**
     * Detect all idioms in one function over analyses the caller
     * built for it. Whole modules go through
     * driver::MatchingDriver::matchModule.
     */
    std::vector<IdiomMatch> detect(ir::Function *func,
                                   analysis::FunctionAnalyses &fa);

    /** Search a single named idiom (no subsumption). */
    std::vector<IdiomMatch> detectOne(ir::Function *func,
                                      const std::string &idiom);

    /** Accumulated solver statistics. */
    const solver::SolveStats &stats() const { return stats_; }

    /**
     * Worst solve status across every solve this detector ran:
     * Complete unless some idiom's search stopped at a budget or
     * deadline limit — in which case the match lists are valid but
     * possibly incomplete (degraded, not wrong).
     */
    solver::SolveStatus status() const { return status_; }

  private:
    std::vector<IdiomMatch> runIdiom(ir::Function *func,
                                     const std::string &idiom,
                                     analysis::FunctionAnalyses &fa);

    solver::SolveStats stats_;
    solver::SolveStatus status_ = solver::SolveStatus::Complete;
    solver::SolverLimits limits_;
};

} // namespace repro::idioms

#endif // IDIOMS_LIBRARY_H
