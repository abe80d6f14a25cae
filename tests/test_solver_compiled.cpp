/**
 * @file
 * Golden cross-check of the slot-addressed solver (solver/compiled.h)
 * against the retained pre-compilation reference engine
 * (Solver::solveAllReference), plus unit tests for symbol interning,
 * collect-template expansion and the forward-checking rule, and a
 * golden table of the suite's solutions.
 *
 * The contract under test is strict: on every Table 1 suite program,
 * every cached idiom, and both ablation orderings, the compiled
 * engine must produce byte-identical solution strings in the same
 * order and identical SolveStats (assignments, checks, solutions,
 * rotations, dedupHits). This is what makes the compilation step a
 * pure performance transformation with a mechanical correctness
 * argument. Both engines forward-check, so the same parity also holds
 * for the pruning.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>

#include "benchmarks/suite.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "idl/lower.h"
#include "idl/parser.h"
#include "solver/compiled.h"
#include "solver/solver.h"

using namespace repro;

namespace {

// ------------------------------------------------------ symbol table

TEST(SymbolTable, InternsDenseAndDeduplicates)
{
    solver::SymbolTable syms;
    EXPECT_EQ(syms.intern("a"), 0u);
    EXPECT_EQ(syms.intern("b.c"), 1u);
    EXPECT_EQ(syms.intern("a"), 0u);
    EXPECT_EQ(syms.intern("b.c[0]"), 2u);
    EXPECT_EQ(syms.size(), 3u);
    EXPECT_EQ(syms.name(1), "b.c");
    EXPECT_EQ(syms.lookup("b.c[0]"), 2u);
    EXPECT_EQ(syms.lookup("missing"), solver::SymbolTable::kNoSlot);
}

// ------------------------------------------- compiled program layout

TEST(CompiledProgram, CollectTemplatesExpandToIndexedSlots)
{
    const solver::ConstraintProgram *lowered =
        idioms::loweredIdiomOrNull("Reduction");
    ASSERT_NE(lowered, nullptr);
    solver::CompiledProgram prog(*lowered);

    // The collect body binds "read_value[#]"; its expansions must be
    // pre-interned, one slot per index below the collect bound.
    uint32_t tmpl = prog.symbols().lookup("read_value[#]");
    ASSERT_NE(tmpl, solver::SymbolTable::kNoSlot);
    ASSERT_TRUE(prog.isTemplateSlot(tmpl));
    ASSERT_GE(prog.maxCollect(), 1);
    for (int k = 0; k < prog.maxCollect(); ++k) {
        uint32_t slot = prog.expandedSlot(tmpl, k);
        EXPECT_EQ(prog.slotName(slot),
                  "read_value[" + std::to_string(k) + "]");
    }

    // The "[*]" wildcard list entry of the kernel-closure atomic must
    // resolve to the same slots the template expansion created.
    bool found_wildcard = false;
    for (uint32_t id = 0; id < prog.numNodes(); ++id) {
        const solver::CompiledNode &n = prog.node(id);
        if (n.kind != solver::Node::Kind::Atomic)
            continue;
        for (uint32_t li = n.listsBegin; li < n.listsEnd; ++li) {
            const solver::CompiledList &cl = prog.lists()[li];
            for (uint32_t e = cl.begin; e < cl.end; ++e) {
                const solver::ListEntry &entry =
                    prog.listEntries()[e];
                if (!entry.wildcard)
                    continue;
                found_wildcard = true;
                const auto &run = prog.wildcardRun(entry.id);
                ASSERT_GE(run.size(),
                          static_cast<size_t>(prog.maxCollect()));
                EXPECT_EQ(run[0], prog.expandedSlot(tmpl, 0));
            }
        }
    }
    EXPECT_TRUE(found_wildcard);

    // Template slots are listed in lexicographic name order (the
    // collect dedup key order), and orderedSlots covers every slot.
    const auto &tmpls = prog.templateSlotsByName();
    EXPECT_TRUE(std::is_sorted(
        tmpls.begin(), tmpls.end(), [&](uint32_t a, uint32_t b) {
            return prog.slotName(a) < prog.slotName(b);
        }));
    EXPECT_EQ(prog.orderedSlots().size(), prog.numSlots());
}

TEST(CompiledProgram, ExplicitIndexSharesSlotWithTemplateExpansion)
{
    // Stencil1D names "read[0].base_pointer" directly in an atomic
    // while the collect body binds "read[#].base_pointer" — the
    // expansion at k=0 must land on the very same slot, or the
    // deferred NotSame check would never see the collected binding.
    const solver::CompiledProgram *prog =
        idioms::compiledIdiomOrNull("Stencil1D");
    ASSERT_NE(prog, nullptr);
    uint32_t direct = prog->symbols().lookup("read[0].base_pointer");
    uint32_t tmpl = prog->symbols().lookup("read[#].base_pointer");
    ASSERT_NE(direct, solver::SymbolTable::kNoSlot);
    ASSERT_NE(tmpl, solver::SymbolTable::kNoSlot);
    EXPECT_EQ(prog->expandedSlot(tmpl, 0), direct);
}

// --------------------------------------------------- golden equality

std::vector<std::string>
solutionStrings(const std::vector<solver::Solution> &sols)
{
    std::vector<std::string> out;
    out.reserve(sols.size());
    for (const auto &s : sols)
        out.push_back(s.str());
    return out;
}

void
expectStatsEqual(const solver::SolveStats &a,
                 const solver::SolveStats &b, const std::string &what)
{
    EXPECT_EQ(a.assignments, b.assignments) << what;
    EXPECT_EQ(a.checks, b.checks) << what;
    EXPECT_EQ(a.solutions, b.solutions) << what;
    EXPECT_EQ(a.rotations, b.rotations) << what;
    EXPECT_EQ(a.dedupHits, b.dedupHits) << what;
}

/**
 * Solve @p program compiled and via the reference engine against
 * every defined function of @p module and require byte-identical
 * solution strings and SolveStats. Returns the compiled engine's
 * accumulated effort (so callers can assert non-vacuity without
 * re-running the sweep).
 */
solver::SolveStats
crossCheck(ir::Module &module, const solver::ConstraintProgram &lowered,
           const std::string &what,
           const solver::SolverLimits &limits = {})
{
    solver::CompiledProgram compiled(lowered);
    solver::SolveStats total;
    for (const auto &f : module.functions()) {
        if (f->isDeclaration())
            continue;
        analysis::FunctionAnalyses fa(f.get());

        solver::Solver fast(f.get(), fa);
        auto fastSols = fast.solveAll(compiled, limits);
        solver::Solver ref(f.get(), fa);
        auto refSols = ref.solveAllReference(lowered, limits);

        const std::string ctx = what + " @ " + f->name();
        EXPECT_EQ(solutionStrings(fastSols), solutionStrings(refSols))
            << ctx;
        expectStatsEqual(fast.stats(), ref.stats(), ctx);
        total += fast.stats();
    }
    return total;
}

TEST(CompiledSolverGolden, Table1SuiteAllIdioms)
{
    solver::SolveStats total;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        for (const auto &idiom : idioms::rootIdiomNames()) {
            const solver::ConstraintProgram *lowered =
                idioms::loweredIdiomOrNull(idiom);
            ASSERT_NE(lowered, nullptr) << idiom;
            total +=
                crossCheck(module, *lowered, b.name + "/" + idiom);
        }
    }
    // The sweep must have exercised a real search, not vacuous
    // early exits.
    EXPECT_GT(total.assignments, 0u);
    EXPECT_GT(total.checks, 0u);
    EXPECT_GT(total.solutions, 0u);
}

// ------------------------------------------ suite solution golden table

/** The solutions of one (suite program, idiom) pair: their count and
 *  the FNV-1a hash of "function: solution" lines in emission order
 *  over the program's defined functions. */
struct SolutionRow
{
    std::string program;
    std::string idiom;
    size_t solutions = 0;
    uint64_t hash = 0;
};

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
formatRow(const SolutionRow &r)
{
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxull",
                  static_cast<unsigned long long>(r.hash));
    return "    {\"" + r.program + "\", \"" + r.idiom + "\", " +
           std::to_string(r.solutions) + ", " + hex + "},\n";
}

// Generated from the compiled engine before forward checking existed;
// pruning must leave every row as it is. A (program, idiom) pair that
// is not listed yields no solution.
const std::vector<SolutionRow> kSuiteSolutions = {
    {"BT", "Reduction", 5, 0x8ca74b5d3e624f7cull},
    {"CG", "SPMV", 2, 0xf51193d883264015ull},
    {"CG", "Stencil1D", 1, 0xa708ce35b493a7faull},
    {"CG", "Reduction", 3, 0xf0d4fceb94e58e94ull},
    {"DC", "Reduction", 2, 0xec1195a5d3fef976ull},
    {"EP", "Histogram", 2, 0x22171abdfafd1cb5ull},
    {"EP", "Reduction", 1, 0x26ccfb955ef97551ull},
    {"FT", "Stencil1D", 1, 0xe7c95cc4f0fa59f8ull},
    {"FT", "Reduction", 3, 0x6d9e8082591ab3dfull},
    {"IS", "Histogram", 2, 0x48bfd39db4cc6983ull},
    {"IS", "Reduction", 1, 0x436d769c6adfb807ull},
    {"LU", "Reduction", 9, 0x80a7f8fe0b65a841ull},
    {"MG", "Stencil3D", 1, 0x3d3730f3b6592b24ull},
    {"MG", "Reduction", 1, 0x843cd4025baf7255ull},
    {"SP", "Reduction", 5, 0x5481ac92771cc263ull},
    {"UA", "Reduction", 6, 0x6a8fbb1a80bb1d2aull},
    {"bfs", "Stencil1D", 1, 0x7150ccdfa11b87ddull},
    {"bfs", "Reduction", 1, 0x936c90f050868bc9ull},
    {"cutcp", "Reduction", 1, 0xe8e88992e01ce028ull},
    {"histo", "Histogram", 4, 0x7a92393f0711b073ull},
    {"lbm", "Stencil3D", 3, 0x3e0ff817018b079full},
    {"mri-g", "Reduction", 2, 0x0c3a1cbf8de5975full},
    {"mri-q", "Reduction", 2, 0xd16a253d932eb84aull},
    {"sad", "Reduction", 1, 0x27f170ce1cb9258aull},
    {"sgemm", "GEMM", 1, 0x5812601b176f5a1eull},
    {"spmv", "SPMV", 1, 0xdf7d6b293d9ed26dull},
    {"stencil", "Stencil3D", 2, 0xca84f9c0d901143cull},
    {"tpacf", "Histogram", 2, 0xfbd3e4ee56b7a436ull},
    {"tpacf", "Reduction", 2, 0x182c21bc577fd2d3ull},
};

TEST(CompiledSolverGolden, SuiteSolutionsUnchanged)
{
    // Pruning may shrink the search but never change which solutions
    // come out or their order: the first solution per anchor is the
    // match the driver keeps. A mismatch prints the actual row.
    std::map<std::pair<std::string, std::string>, const SolutionRow *>
        golden;
    for (const SolutionRow &r : kSuiteSolutions)
        golden[{r.program, r.idiom}] = &r;
    size_t listed = 0;
    for (const auto &b : benchmarks::nasParboilSuite()) {
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        for (const auto &idiom : idioms::rootIdiomNames()) {
            const solver::CompiledProgram *prog =
                idioms::compiledIdiomOrNull(idiom);
            ASSERT_NE(prog, nullptr) << idiom;
            SolutionRow got{b.name, idiom, 0, 0};
            std::string lines;
            for (const auto &f : module.functions()) {
                if (f->isDeclaration())
                    continue;
                analysis::FunctionAnalyses fa(f.get());
                solver::Solver s(f.get(), fa);
                for (const auto &sol : s.solveAll(*prog)) {
                    lines += f->name() + ": " + sol.str() + "\n";
                    ++got.solutions;
                }
            }
            got.hash = fnv1a64(lines);
            auto it = golden.find({b.name, idiom});
            listed += it != golden.end();
            std::string want = it != golden.end()
                                   ? formatRow(*it->second)
                                   : "    (not listed: no solution)\n";
            std::string actual = got.solutions || it != golden.end()
                                     ? formatRow(got)
                                     : want;
            if (actual != want)
                ADD_FAILURE() << "golden row:\n" << want
                              << "actual row:\n" << actual;
        }
    }
    EXPECT_EQ(listed, kSuiteSolutions.size());
}

TEST(CompiledSolverGolden, BudgetExhaustionParity)
{
    // A blown assignment budget unwinds collect sub-searches
    // mid-flight; the pooled sub-search must shed that state and keep
    // tracking the reference engine (which builds a fresh search per
    // collect) both during and after the abort.
    for (uint64_t budget : {200u, 2000u, 20000u}) {
        solver::SolverLimits limits;
        limits.maxAssignments = budget;
        for (const char *bench : {"LU", "MG"}) {
            const auto &b = benchmarks::benchmarkByName(bench);
            ir::Module module;
            frontend::compileMiniCOrDie(b.source, module);
            for (const char *idiom : {"Reduction", "Stencil3D"}) {
                crossCheck(module,
                           *idioms::loweredIdiomOrNull(idiom),
                           std::string(bench) + "/" + idiom +
                               "/budget=" + std::to_string(budget),
                           limits);
            }
        }
    }
}

TEST(CompiledSolverGolden, DuplicateCandidatesCountAsDedupHits)
{
    // t+t presents the operand t twice to the HasDataFlowTo
    // generator; both engines must skip the duplicate, count it, and
    // still agree byte for byte.
    ir::Module module;
    frontend::compileMiniCOrDie(
        "int f(int a) { int t = a * a; return t + t; }", module);

    idl::IdlProgram program;
    DiagEngine diags;
    idl::parseIdlInto("Constraint Dup\n"
                      "( {s} is add instruction and\n"
                      "  {x} has data flow to {s} and\n"
                      "  {x} is mul instruction )\n"
                      "End",
                      program, diags);
    ASSERT_FALSE(diags.hasErrors()) << diags.dump();
    auto lowered = idl::lowerIdiom(program, "Dup");

    crossCheck(module, lowered, "Dup");

    ir::Function *func = module.functionByName("f");
    ASSERT_NE(func, nullptr);
    analysis::FunctionAnalyses fa(func);
    solver::Solver s(func, fa);
    auto sols = s.solveAll(lowered);
    EXPECT_EQ(sols.size(), 1u);
    EXPECT_GT(s.stats().dedupHits, 0u);
}

/** Lower the single-constraint IDL program @p text named @p name. */
solver::ConstraintProgram
lowerSnippet(const std::string &text, const std::string &name)
{
    idl::IdlProgram program;
    DiagEngine diags;
    idl::parseIdlInto(text, program, diags);
    EXPECT_FALSE(diags.hasErrors()) << diags.dump();
    return idl::lowerIdiom(program, name);
}

size_t
countOpcode(const ir::Function &f, ir::Opcode op)
{
    size_t n = 0;
    for (const auto &bb : f.blocks()) {
        for (const auto &inst : bb->insts())
            n += inst->opcode() == op;
    }
    return n;
}

TEST(ForwardCheck, CompletedCheckPrunesBeforeTheNextGenerator)
{
    // The flow check is last in the conjunction but complete once {a}
    // and {b} are bound: it must reject each (a, b) pair before {c}
    // is enumerated, so the search makes fewer assignments than the
    // |add| x |mul| x |sub| triples of an unpruned one.
    ir::Module module;
    frontend::compileMiniCOrDie(
        "int f(int a, int b) {\n"
        "  int x = a + b; int y = a * b; int z = x * 3;\n"
        "  int w = y + z; int u = w * a; int v = u - b;\n"
        "  int q = v - x; return q + y;\n"
        "}",
        module);
    auto lowered = lowerSnippet(
        "Constraint Chain\n"
        "( {a} is add instruction and {b} is mul instruction and\n"
        "  {c} is sub instruction and {a} has data flow to {b} )\n"
        "End",
        "Chain");
    solver::SolveStats stats = crossCheck(module, lowered, "Chain");

    const ir::Function *f = module.functionByName("f");
    ASSERT_NE(f, nullptr);
    size_t triples = countOpcode(*f, ir::Opcode::Add) *
                     countOpcode(*f, ir::Opcode::Mul) *
                     countOpcode(*f, ir::Opcode::Sub);
    EXPECT_LT(stats.assignments, triples);
    // 3 adds + 3x3 (add, mul) pairs + 2 subs for each of the 2 flowing
    // pairs; checks add the 9 forward checks and the 4 head checks.
    EXPECT_EQ(stats.assignments, 16u);
    EXPECT_EQ(stats.checks, 29u);
    EXPECT_EQ(stats.solutions, 4u);
}

TEST(ForwardCheck, UnchosenOrAlternativeNeverPrunes)
{
    // Only one direction of the disjunction holds. Were the atomics of
    // an alternative not yet chosen treated as pending, binding {y}
    // would evaluate the false direction and prune the only solution.
    ir::Module module;
    frontend::compileMiniCOrDie(
        "int f(int a) { int t = a * a; return t + 1; }", module);
    auto lowered = lowerSnippet(
        "Constraint Either\n"
        "( {x} is add instruction and {y} is mul instruction and\n"
        "  ( {x} has data flow to {y} or {y} has data flow to {x} ) )\n"
        "End",
        "Either");
    solver::SolveStats stats = crossCheck(module, lowered, "Either");
    EXPECT_EQ(stats.solutions, 1u);
}

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

} // namespace

TEST(CompiledSolverGolden, AblationOrderings)
{
    // The ordering ablation (bench_ablation_ordering) perturbs the
    // lowered tree before solving; the compiled engine must track the
    // reference on the hostile ordering too — including the rotation
    // counts the reversal provokes. The entry function's assignment
    // counts are the bench's deterministic columns, pinned here.
    struct Case
    {
        const char *bench;
        const char *idiom;
        uint64_t ordered, reversed;
    };
    solver::SolveStats reversedTotal;
    for (const Case &c : {Case{"CG", "SPMV", 2850, 58758},
                          Case{"sgemm", "GEMM", 251, 29790},
                          Case{"MG", "Stencil3D", 395, 83161},
                          Case{"LU", "Reduction", 1398, 17878}}) {
        const auto &b = benchmarks::benchmarkByName(c.bench);
        ir::Module module;
        frontend::compileMiniCOrDie(b.source, module);
        const std::string what = std::string(c.bench) + "/" + c.idiom;

        auto ordered = idl::lowerIdiom(idioms::idiomLibrary(), c.idiom);
        crossCheck(module, ordered, what + "/ordered");

        auto reversed =
            idl::lowerIdiom(idioms::idiomLibrary(), c.idiom);
        reverseConjunctions(*reversed.root);
        crossCheck(module, reversed, what + "/reversed");

        ir::Function *func = module.functionByName(b.entry);
        ASSERT_NE(func, nullptr);
        analysis::FunctionAnalyses fa(func);
        solver::Solver o(func, fa);
        o.solveAll(ordered);
        EXPECT_EQ(o.stats().assignments, c.ordered) << what;
        solver::Solver r(func, fa);
        r.solveAll(reversed);
        EXPECT_EQ(r.stats().assignments, c.reversed) << what;
        reversedTotal += r.stats();
    }
    // Reversal destroys the generate-before-check ordering, so the
    // goal-rotation fallback must actually fire.
    EXPECT_GT(reversedTotal.rotations, 0u);
}

} // namespace
