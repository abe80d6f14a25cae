/**
 * @file
 * Static-verification lint gate for CI (docs/ANALYSIS.md).
 *
 * Runs every pass-boundary check the pipeline owns, over everything
 * the repository ships:
 *
 *  - the IDL semantic analyzer (idl/check.h) over the full idiom
 *    library, rooted at the solver's actual root set — any error-tier
 *    diagnostic (unknown opcode, unbound variable, unsatisfiable
 *    atomic, ...) fails the gate, warnings are reported but pass; and
 *  - the dominance-aware IR verifier (ir/verifier.h) over all 21
 *    NAS/Parboil suite programs: each is compiled with
 *    VerifyMode::Boundaries (re-verifying after codegen, mem2reg and
 *    the optimizer), matched and transformed with rewrite-commit /
 *    rewrite-rollback verification on, and finally re-verified as a
 *    whole module.
 *
 * The JSON report additionally carries a backend-coverage table: for
 * every root idiom, its class and the legal (API, platform) lowering
 * targets the cost layer can choose between (runtime/cost.h). Idioms
 * with fewer than two legal targets are listed explicitly under
 * "undercovered" — never silently capped — so a device-model edit
 * that strands an idiom class on a single (or no) backend is visible
 * in the CI artifact.
 *
 * Modes:
 *   repro_lint                    human-readable report, exit 0 iff
 *                                 clean
 *   repro_lint --json             one JSON object on stdout (CI)
 *   repro_lint --max-warnings=N   fail the gate when the library
 *                                 carries more than N warnings
 *                                 (default: unlimited)
 *   repro_lint --self-test        negative oracle: seeds a
 *                                 typo'd-opcode idiom and a malformed
 *                                 IR function, and exits 0 only if
 *                                 BOTH fail their gates — proving the
 *                                 green run above means something.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "driver/driver.h"
#include "frontend/compiler.h"
#include "idioms/library.h"
#include "idl/check.h"
#include "idl/parser.h"
#include "ir/irbuilder.h"
#include "ir/verifier.h"
#include "runtime/cost.h"
#include "support/diagnostics.h"
#include "support/string_utils.h"

using namespace repro;

namespace {

struct ProgramResult
{
    std::string name;
    size_t matches = 0;
    size_t replacements = 0;
    std::string error; ///< empty = verifier-clean at every boundary
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

/** Lint one suite program through compile + match + transform. */
ProgramResult
lintProgram(const benchmarks::BenchmarkProgram &program)
{
    ProgramResult result;
    result.name = program.name;
    try {
        ir::Module module;
        frontend::compileMiniCOrDie(program.source, module,
                                    ir::VerifyMode::Boundaries);

        driver::DriverOptions opts;
        opts.applyTransforms = true;
        opts.verify = ir::VerifyMode::Boundaries;
        driver::MatchingDriver matcher(opts);
        driver::MatchReport report = matcher.matchModule(module);
        result.matches = report.matchCount();
        result.replacements = report.replacements.size();

        ir::VerifierReport vr = ir::verifyModuleDetailed(module);
        if (vr.errorCount() != 0)
            result.error = vr.firstError().str();
    } catch (const std::exception &e) {
        result.error = e.what();
    }
    return result;
}

/**
 * Negative oracle. Returns 0 when both seeded defects are caught:
 * a typo'd-opcode idiom must fail the IDL gate and a hand-built
 * use-before-def function must fail the IR verifier.
 */
int
selfTest()
{
    int failures = 0;

    // 1. The shipped library text plus one broken idiom must fail.
    idl::IdlProgram program;
    DiagEngine diags;
    if (!idl::parseIdlInto(idioms::idiomLibrarySource(), program,
                           diags) ||
        !idl::parseIdlInto("Constraint LintSelfTest ( {a} is "
                           "frobnicate instruction ) End",
                           program, diags)) {
        std::fprintf(stderr, "self-test: seeded library failed to "
                             "parse\n");
        return 1;
    }
    std::vector<std::string> roots = idioms::rootIdiomNames();
    roots.push_back("LintSelfTest");
    idl::CheckReport idlReport = idl::checkProgram(program, roots);
    if (idlReport.ok() || !idlReport.hasRule("unknown-opcode")) {
        std::fprintf(stderr, "self-test: typo'd opcode was NOT "
                             "rejected by the IDL gate\n");
        ++failures;
    }

    // 2. A use-before-def across blocks must fail the IR verifier.
    ir::Module module;
    ir::Function *f = module.createFunction(
        "self_test", module.types().i64Ty(),
        {module.types().i64Ty()});
    ir::IRBuilder b(module);
    ir::BasicBlock *entry = f->createBlock("entry");
    ir::BasicBlock *left = f->createBlock("left");
    ir::BasicBlock *right = f->createBlock("right");
    b.setInsertPoint(entry);
    b.condBr(b.icmp(ir::CmpPred::EQ, f->arg(0), b.i64(0)), left,
             right);
    b.setInsertPoint(left);
    ir::Instruction *def = b.add(f->arg(0), f->arg(0), "def");
    b.ret(def);
    b.setInsertPoint(right);
    b.ret(b.add(def, f->arg(0), "use"));
    ir::VerifierReport irReport = ir::verifyFunctionDetailed(f);
    if (irReport.errorCount() == 0 || !irReport.hasRule("dom-use")) {
        std::fprintf(stderr, "self-test: use-before-def was NOT "
                             "rejected by the IR verifier\n");
        ++failures;
    }

    if (failures == 0)
        std::printf("repro_lint self-test: both seeded defects "
                    "caught\n");
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    size_t maxWarnings = ~size_t(0);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strncmp(argv[i], "--max-warnings=", 15) == 0 &&
                   parseDecimal(argv[i] + 15, &maxWarnings)) {
            // A malformed count falls through to the usage line.
        } else if (std::strcmp(argv[i], "--self-test") == 0) {
            return selfTest();
        } else {
            std::fprintf(stderr, "usage: repro_lint [--json] "
                                 "[--max-warnings=N] [--self-test]\n");
            return 2;
        }
    }

    // IDL semantic lint over the shipped library, with the rewrite-ABI
    // export list so solution-output variables are not "unused".
    idl::CheckReport library = idl::checkProgram(
        idioms::idiomLibrary(), idioms::rootIdiomNames(),
        idioms::rewriteAbiVarLeaves());

    // IR boundary verification over the whole suite.
    std::vector<ProgramResult> programs;
    size_t brokenPrograms = 0;
    for (const auto &program : benchmarks::nasParboilSuite()) {
        programs.push_back(lintProgram(program));
        if (!programs.back().error.empty())
            ++brokenPrograms;
    }

    // Backend coverage: how many legal lowering targets the cost layer
    // can choose between, per root idiom.
    struct Coverage
    {
        std::string idiom;
        idioms::IdiomClass cls;
        std::vector<runtime::BackendTarget> targets;
    };
    std::vector<Coverage> coverage;
    size_t undercovered = 0;
    for (const idioms::IdiomInfo &row : idioms::idiomTable()) {
        Coverage c;
        c.idiom = row.name;
        c.cls = row.cls;
        c.targets = runtime::legalTargets(c.cls);
        if (c.targets.size() < 2)
            ++undercovered;
        coverage.push_back(std::move(c));
    }

    bool ok = library.errorCount() == 0 &&
              library.warningCount() <= maxWarnings &&
              brokenPrograms == 0;

    if (json) {
        std::printf("{\"ok\": %s, \"library\": {\"errors\": %zu, "
                    "\"warnings\": %zu, \"diags\": [",
                    ok ? "true" : "false", library.errorCount(),
                    library.warningCount());
        for (size_t i = 0; i < library.diags.size(); ++i)
            std::printf("%s\"%s\"", i ? ", " : "",
                        jsonEscape(library.diags[i].str()).c_str());
        std::printf("]}, \"backends\": {\"undercovered\": [");
        bool first = true;
        for (const auto &c : coverage) {
            if (c.targets.size() >= 2)
                continue;
            std::printf("%s\"%s\"", first ? "" : ", ",
                        jsonEscape(c.idiom).c_str());
            first = false;
        }
        std::printf("], \"coverage\": [");
        for (size_t i = 0; i < coverage.size(); ++i) {
            const Coverage &c = coverage[i];
            std::printf("%s{\"idiom\": \"%s\", \"class\": \"%s\", "
                        "\"targets\": [",
                        i ? ", " : "", jsonEscape(c.idiom).c_str(),
                        idioms::idiomClassName(c.cls));
            for (size_t t = 0; t < c.targets.size(); ++t)
                std::printf(
                    "%s\"%s\"", t ? ", " : "",
                    runtime::backendToken(c.targets[t]).c_str());
            std::printf("]}");
        }
        std::printf("]}, \"programs\": [");
        for (size_t i = 0; i < programs.size(); ++i) {
            const ProgramResult &p = programs[i];
            std::printf("%s{\"name\": \"%s\", \"matches\": %zu, "
                        "\"replacements\": %zu, \"error\": \"%s\"}",
                        i ? ", " : "", jsonEscape(p.name).c_str(),
                        p.matches, p.replacements,
                        jsonEscape(p.error).c_str());
        }
        std::printf("]}\n");
    } else {
        std::printf("idiom library: %zu errors, %zu warnings\n",
                    library.errorCount(), library.warningCount());
        for (const auto &d : library.diags)
            std::printf("  %s\n", d.str().c_str());
        for (const auto &c : coverage) {
            std::printf("backend coverage: %-26s %zu target%s%s\n",
                        c.idiom.c_str(), c.targets.size(),
                        c.targets.size() == 1 ? "" : "s",
                        c.targets.size() < 2 ? "  [undercovered]"
                                             : "");
        }
        for (const auto &p : programs) {
            if (p.error.empty())
                std::printf("%-10s ok (%zu matches, %zu "
                            "replacements)\n",
                            p.name.c_str(), p.matches,
                            p.replacements);
            else
                std::printf("%-10s FAIL: %s\n", p.name.c_str(),
                            p.error.c_str());
        }
        std::printf("repro_lint: %s\n", ok ? "clean" : "FAILED");
    }
    return ok ? 0 : 1;
}
