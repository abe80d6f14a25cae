/**
 * @file
 * Ablation for the design choice called out in section 4.4: "the
 * ordering impacts performance, as it determines how well the search
 * space is pruned". The library orders atomics so that each variable
 * is introduced by a candidate-generating constraint; reversing every
 * conjunction destroys that property and the solver falls back to
 * goal rotation and wide enumeration.
 *
 * Forward checking blunts the reversal: a check is evaluated as soon
 * as a binding completes it, wherever it sits in its conjunction, so
 * the reversed search no longer enumerates every generator
 * combination before the checks that reject them. The assignment
 * columns are deterministic and pinned in
 * CompiledSolverGolden.AblationOrderings (tests/test_solver_compiled.cpp).
 */
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "idl/lower.h"

using namespace repro;

namespace {

void
reverseConjunctions(solver::Node &node)
{
    if (node.kind == solver::Node::Kind::And ||
        node.kind == solver::Node::Kind::Or) {
        std::reverse(node.children.begin(), node.children.end());
    }
    for (auto &child : node.children)
        reverseConjunctions(*child);
    if (node.collectBody)
        reverseConjunctions(*node.collectBody);
}

struct Run
{
    uint64_t assignments;
    double ms;
    size_t solutions;
};

Run
solveWith(driver::MatchingDriver &drv, ir::Function *func,
          const solver::ConstraintProgram &prog)
{
    auto outcome = drv.solveProgram(func, prog);
    return {outcome.stats.assignments, outcome.solveMillis,
            outcome.solutions.size()};
}

} // namespace

int
main()
{
    std::printf("Ablation: solver variable/goal ordering\n");
    std::printf("%-10s %-10s | %12s %9s | %12s %9s | %s\n", "bench",
                "idiom", "ordered", "ms", "reversed", "ms",
                "slowdown");
    struct Case
    {
        const char *bench;
        const char *idiom;
    };
    for (const Case &c : {Case{"CG", "SPMV"}, Case{"sgemm", "GEMM"},
                          Case{"MG", "Stencil3D"},
                          Case{"LU", "Reduction"}}) {
        const auto &b = benchmarks::benchmarkByName(c.bench);
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        ir::Function *func = module.functionByName(b.entry);
        driver::MatchingDriver drv;

        auto ordered =
            idl::lowerIdiom(idioms::idiomLibrary(), c.idiom);
        Run r1 = solveWith(drv, func, ordered);

        auto reversed =
            idl::lowerIdiom(idioms::idiomLibrary(), c.idiom);
        reverseConjunctions(*reversed.root);
        Run r2 = solveWith(drv, func, reversed);

        if (r1.solutions != r2.solutions) {
            std::printf("WARNING: solution count differs (%zu vs "
                        "%zu)\n",
                        r1.solutions, r2.solutions);
        }
        std::printf("%-10s %-10s | %12llu %8.2f | %12llu %8.2f | "
                    "%.1fx\n",
                    c.bench, c.idiom,
                    static_cast<unsigned long long>(r1.assignments),
                    r1.ms,
                    static_cast<unsigned long long>(r2.assignments),
                    r2.ms,
                    r1.assignments
                        ? static_cast<double>(r2.assignments) /
                              static_cast<double>(r1.assignments)
                        : 0.0);
    }
    return 0;
}
