/**
 * @file
 * Backtracking constraint solver over SSA IR values.
 *
 * This is the reproduction of the solver the paper bases on Ginsbach &
 * O'Boyle (CGO'17): given a lowered idiom formula, it enumerates every
 * assignment of constraint variables to IR values that satisfies the
 * formula. Candidate generation exploits the structure of atomics
 * (operand edges, opcode indices, phi incomings) so the search space
 * is pruned aggressively.
 *
 * The search runs on the slot-addressed CompiledProgram form
 * (solver/compiled.h): bindings are a flat vector indexed by interned
 * variable slots, atomic readiness is tracked by per-node unbound
 * counters, and the goal list is an index schedule over the node
 * arrays — no strings, maps or goal-vector copies on the hot path.
 * Name-keyed Solution objects are materialized only when a search
 * finishes, so every downstream consumer (transform, binder, benches)
 * keeps its API. The pre-compilation engine survives as
 * solveAllReference(), the golden reference the compiled engine is
 * cross-checked against (search order, solution sets and SolveStats
 * are byte-identical by construction — see
 * tests/test_solver_compiled.cpp).
 */
#ifndef SOLVER_SOLVER_H
#define SOLVER_SOLVER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/function_analyses.h"
#include "solver/compiled.h"
#include "solver/constraint.h"

namespace repro::solver {

/** One satisfying assignment: variable name -> IR value. */
struct Solution
{
    std::map<std::string, const ir::Value *> bindings;

    const ir::Value *
    lookup(const std::string &name) const
    {
        auto it = bindings.find(name);
        return it == bindings.end() ? nullptr : it->second;
    }

    /**
     * All bindings whose name matches prefix "p[k]suffix" pattern,
     * probing k = 0, 1, ... until the first gap. One key buffer is
     * reused across probes (no per-index string assembly beyond the
     * index digits), and the failing key is built exactly once.
     */
    std::vector<const ir::Value *>
    lookupArray(const std::string &pattern) const;

    std::string str() const;
};

/** Search effort counters (reported by Table 2 and perfbench). */
struct SolveStats
{
    uint64_t assignments = 0; ///< variable assignments tried
    uint64_t checks = 0;      ///< atomic evaluations
    uint64_t solutions = 0;
    uint64_t rotations = 0;   ///< stuck goals moved to the back
    uint64_t dedupHits = 0;   ///< duplicate candidates skipped

    SolveStats &
    operator+=(const SolveStats &other)
    {
        assignments += other.assignments;
        checks += other.checks;
        solutions += other.solutions;
        rotations += other.rotations;
        dedupHits += other.dedupHits;
        return *this;
    }
};

/**
 * How a solve ended. Search-budget exhaustion is a *normal, degradable
 * outcome* for a combinatorial matcher serving interactive traffic —
 * not an internal failure — so exceeding a limit never throws out of
 * the solver: the search stops, keeps every solution found so far,
 * and reports why it stopped through this status.
 */
enum class SolveStatus : uint8_t
{
    Complete,         ///< the search space was exhausted
    BudgetExhausted,  ///< stopped at SolverLimits::maxAssignments
    DeadlineExceeded, ///< stopped at SolverLimits::deadline
};

/** Wire/report token of a status: "", "budget", "deadline". */
const char *solveStatusToken(SolveStatus status);

/** The worse of two statuses (deadline > budget > complete). */
SolveStatus worseStatus(SolveStatus a, SolveStatus b);

/** Tunable limits protecting against pathological formulas. */
struct SolverLimits
{
    uint64_t maxAssignments = 20'000'000;
    size_t maxSolutions = 4096;

    /**
     * Absolute wall-clock deadline; the zero-initialized time_point
     * (the default) means none. Checked on entry to every search and
     * then once per kDeadlineCheckStride assignments, so the overhead
     * of reading the clock never touches the per-assignment hot path
     * and a deadline-free solve stays byte-identical in behavior and
     * stats. An already-expired deadline aborts before any search
     * work, which makes deadline tests deterministic.
     */
    std::chrono::steady_clock::time_point deadline{};

    /** Assignments between deadline probes (power of two). */
    static constexpr uint64_t kDeadlineCheckStride = 1024;

    bool
    hasDeadline() const
    {
        return deadline != std::chrono::steady_clock::time_point{};
    }

    /** Helper: deadline @p millis from now (0 = none). */
    static SolverLimits
    withDeadline(SolverLimits base, uint64_t millis)
    {
        if (millis > 0) {
            base.deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(millis);
        }
        return base;
    }
};

/**
 * Solves one idiom against one function.
 *
 * Construction is cheap: the value universe and candidate buckets
 * live in the analyses' CandidateIndex, built once per function and
 * shared by every Solver (one per idiom) created against it. Solving
 * touches no state outside the function's own analyses (index
 * construction assigns the function's argument/instruction ids;
 * nothing module-shared is written), so functions of one module can
 * be solved concurrently as long as each function's FunctionAnalyses
 * is owned by a single thread. The CompiledProgram is immutable and
 * may be shared across those threads (idioms::compiledIdiomOrNull).
 */
class Solver
{
  public:
    Solver(ir::Function *func, analysis::FunctionAnalyses &analyses);

    /**
     * Enumerate all solutions of the pre-compiled @p program — the
     * hot path every cached library idiom takes.
     */
    std::vector<Solution> solveAll(const CompiledProgram &program,
                                   const SolverLimits &limits = {});

    /**
     * Enumerate all solutions of @p program, compiling it first.
     * Convenience for one-off programs (custom idioms, ablations that
     * perturb the lowered tree before solving).
     */
    std::vector<Solution> solveAll(const ConstraintProgram &program,
                                   const SolverLimits &limits = {});

    /**
     * The pre-compilation engine: name-keyed bindings, goal-vector
     * copies, per-call opcode resolution. Kept as the golden
     * reference for the compiled engine — solution strings and
     * SolveStats must match solveAll() byte for byte on any program.
     */
    std::vector<Solution>
    solveAllReference(const ConstraintProgram &program,
                      const SolverLimits &limits = {});

    const SolveStats &stats() const { return stats_; }

    /**
     * How the most recent solveAll/solveAllReference call ended.
     * Complete until the first solve; sticky per call (each solve
     * overwrites it).
     */
    SolveStatus lastStatus() const { return lastStatus_; }

  private:
    ir::Function *func_;
    analysis::FunctionAnalyses &analyses_;
    const analysis::CandidateIndex &index_;
    SolveStats stats_;
    SolveStatus lastStatus_ = SolveStatus::Complete;
};

} // namespace repro::solver

#endif // SOLVER_SOLVER_H
