/**
 * @file
 * Link-time span wrappers for perfbench_traced.
 *
 * The traced executable is linked with `-Wl,--wrap=<symbol>` for each
 * symbol below (PB_WRAPPED_SYMBOLS in CMakeLists.txt), so every call
 * into it from another object file (the benchmark, or another layer of
 * the library) lands in __wrap_<symbol>, which opens a span and
 * forwards to the original, __real_<symbol>. Calls inside the defining
 * object file are not redirected; the symbols are chosen at the layer
 * boundaries, where calls cross files. The library itself is not
 * changed, and the timed executable has no wrappers at all.
 *
 * A symbol the library no longer defines (renamed, or its signature
 * changed) leaves its __real_<symbol> undefined, and the traced
 * executable fails to link: a layer never silently reads zero.
 */
#include <string>
#include <vector>

#include "analysis/candidate_index.h"
#include "analysis/cfg.h"
#include "analysis/dominators.h"
#include "analysis/function_analyses.h"
#include "analysis/loops.h"
#include "driver/driver.h"
#include "driver/match_cache.h"
#include "frontend/ast.h"
#include "frontend/parser.h"
#include "ir/verifier.h"
#include "service/protocol.h"
#include "service/service.h"
#include "solver/compiled.h"
#include "solver/solver.h"
#include "bench.h"

using namespace repro;
using pb::trace::Span;

/** Declare __real_SYM and define __wrap_SYM as a span around it. */
#define PB_WRAP(SYM, RET, NAME, PARAMS, ARGS)                          \
    extern "C" RET __real_##SYM PARAMS;                                \
    extern "C" RET __wrap_##SYM PARAMS                                 \
    {                                                                  \
        Span span_(NAME);                                              \
        return __real_##SYM ARGS;                                      \
    }

namespace {

/** Client index of a benchmark module name "client<k>", else -1. */
int32_t
clientTag(const std::string &module)
{
    if (module.rfind("client", 0) != 0 || module.size() == 6)
        return -1;
    return static_cast<int32_t>(std::atoi(module.c_str() + 6));
}

} // namespace

// ---------------------------------------------------------- frontend

extern "C" bool __real__ZN5repro8frontend12compileMiniCERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_2ir6ModuleERNS_10DiagEngineENS9_10VerifyModeE(
    const std::string &, ir::Module &, DiagEngine &, ir::VerifyMode);
extern "C" bool
__wrap__ZN5repro8frontend12compileMiniCERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_2ir6ModuleERNS_10DiagEngineENS9_10VerifyModeE(
    const std::string &source, ir::Module &module, DiagEngine &diags,
    ir::VerifyMode verify)
{
    bool ok;
    {
        Span span_("frontend.compile");
        ok = __real__ZN5repro8frontend12compileMiniCERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_2ir6ModuleERNS_10DiagEngineENS9_10VerifyModeE(
            source, module, diags, verify);
    }
    if (pb::trace::enabled())
        pb::trace::add(pb::trace::kIrInsts, pb::instructionCount(module));
    return ok;
}

PB_WRAP(_ZN5repro8frontend10parseMiniCERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_10DiagEngineE,
        std::unique_ptr<frontend::TranslationUnit>, "frontend.parse",
        (const std::string &source, DiagEngine &diags), (source, diags))

PB_WRAP(_ZN5repro8frontend10generateIRERKNS0_15TranslationUnitERNS_2ir6ModuleERNS_10DiagEngineE,
        bool, "frontend.codegen",
        (const frontend::TranslationUnit &unit, ir::Module &module,
         DiagEngine &diags),
        (unit, module, diags))

PB_WRAP(_ZN5repro8frontend23removeUnreachableBlocksEPNS_2ir8FunctionE, int,
        "frontend.codegen", (ir::Function * f), (f))

PB_WRAP(_ZN5repro8frontend13promoteModuleERNS_2ir6ModuleE, void,
        "frontend.mem2reg", (ir::Module & m), (m))

PB_WRAP(_ZN5repro8frontend13aggressiveDCEEPNS_2ir8FunctionE, int,
        "frontend.optimize", (ir::Function * f), (f))

PB_WRAP(_ZN5repro8frontend16optimizeFunctionEPNS_2ir8FunctionE, void,
        "frontend.optimize", (ir::Function * f), (f))

// ---------------------------------------------------------------- ir

PB_WRAP(_ZN5repro2ir12verifyModuleB5cxx11ERNS0_6ModuleE,
        std::vector<std::string>, "ir.verify", (ir::Module & m), (m))

PB_WRAP(_ZN5repro2ir20verifyModuleDetailedERNS0_6ModuleE,
        ir::VerifierReport, "ir.verify", (ir::Module & m), (m))

// ---------------------------------------------------------- analysis

PB_WRAP(_ZN5repro8analysis7DomTreeC1EPNS_2ir8FunctionEb, void,
        "analysis.build",
        (analysis::DomTree * self, ir::Function *f, bool post),
        (self, f, post))

PB_WRAP(_ZN5repro8analysis7InstCFGC1EPNS_2ir8FunctionE, void,
        "analysis.build", (analysis::InstCFG * self, ir::Function *f),
        (self, f))

PB_WRAP(_ZN5repro8analysis8LoopInfoC1EPNS_2ir8FunctionERKNS0_7DomTreeE,
        void, "analysis.build",
        (analysis::LoopInfo * self, ir::Function *f,
         const analysis::DomTree &dom),
        (self, f, dom))

PB_WRAP(_ZN5repro8analysis14CandidateIndexC1EPNS_2ir8FunctionE, void,
        "analysis.build",
        (analysis::CandidateIndex * self, ir::Function *f), (self, f))

// ------------------------------------------------------------ solver

PB_WRAP(_ZN5repro6idioms13IdiomDetector6detectEPNS_2ir8FunctionERNS_8analysis16FunctionAnalysesE,
        std::vector<idioms::IdiomMatch>, "solver.detect",
        (idioms::IdiomDetector * self, ir::Function *f,
         analysis::FunctionAnalyses &fa),
        (self, f, fa))

extern "C" std::vector<solver::Solution>
__real__ZN5repro6solver6Solver8solveAllERKNS0_15CompiledProgramERKNS0_12SolverLimitsE(
    solver::Solver *, const solver::CompiledProgram &,
    const solver::SolverLimits &);
extern "C" std::vector<solver::Solution>
__wrap__ZN5repro6solver6Solver8solveAllERKNS0_15CompiledProgramERKNS0_12SolverLimitsE(
    solver::Solver *self, const solver::CompiledProgram &program,
    const solver::SolverLimits &limits)
{
    if (!pb::trace::enabled())
        return __real__ZN5repro6solver6Solver8solveAllERKNS0_15CompiledProgramERKNS0_12SolverLimitsE(
            self, program, limits);
    const solver::SolveStats before = self->stats();
    std::vector<solver::Solution> out;
    {
        Span span_(pb::trace::intern("solver.idiom." + program.name()));
        out = __real__ZN5repro6solver6Solver8solveAllERKNS0_15CompiledProgramERKNS0_12SolverLimitsE(
            self, program, limits);
    }
    const solver::SolveStats &after = self->stats();
    pb::trace::add(pb::trace::kAssignments,
                   after.assignments - before.assignments);
    pb::trace::add(pb::trace::kChecks, after.checks - before.checks);
    pb::trace::add(pb::trace::kSolutions,
                   after.solutions - before.solutions);
    return out;
}

// ------------------------------------------------------------ driver

PB_WRAP(_ZN5repro6driver14MatchingDriver11matchModuleERNS_2ir6ModuleE,
        driver::MatchReport, "driver.match",
        (driver::MatchingDriver * self, ir::Module &m), (self, m))

PB_WRAP(_ZN5repro6driver10MatchCache6lookupERKNS0_8CacheKeyE,
        std::shared_ptr<const driver::CachedMatches>, "driver.replay",
        (driver::MatchCache * self, const driver::CacheKey &key),
        (self, key))

PB_WRAP(_ZN5repro6driver10MatchCache8reanchorERKSt6vectorINS0_13PortableMatchESaIS3_EEPNS_2ir8FunctionEPS2_INS_6idioms10IdiomMatchESaISC_EE,
        bool, "driver.replay",
        (const std::vector<driver::PortableMatch> &matches,
         ir::Function *f, std::vector<idioms::IdiomMatch> *out),
        (matches, f, out))

PB_WRAP(_ZN5repro6driver10MatchCache7captureERKSt6vectorINS_6idioms10IdiomMatchESaIS4_EEPKNS_2ir8FunctionEPS2_INS0_13PortableMatchESaISD_EE,
        bool, "driver.store",
        (const std::vector<idioms::IdiomMatch> &matches,
         const ir::Function *f, std::vector<driver::PortableMatch> *out),
        (matches, f, out))

// CachedMatches is passed by value: the Itanium ABI passes a
// non-trivially-copyable argument by invisible reference, which a
// pointer parameter mirrors exactly.
PB_WRAP(_ZN5repro6driver10MatchCache6insertERKNS0_8CacheKeyENS0_13CachedMatchesE,
        void, "driver.store",
        (driver::MatchCache * self, const driver::CacheKey &key,
         driver::CachedMatches *value),
        (self, key, value))

// ----------------------------------------------------------- service

PB_WRAP(_ZN5repro7service12parseRequestERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
        service::Request, "service.protocol_parse",
        (const std::string &line), (line))

PB_WRAP(_ZN5repro7service20formatSubmitResponseB5cxx11ERKNS0_13SubmitOutcomeE,
        std::vector<std::string>, "service.protocol_format",
        (const service::SubmitOutcome &outcome), (outcome))

extern "C" service::SubmitOutcome
__real__ZN5repro7service12MatchService6submitERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_m(
    service::MatchService *, const std::string &, const std::string &,
    uint64_t);
extern "C" service::SubmitOutcome
__wrap__ZN5repro7service12MatchService6submitERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_m(
    service::MatchService *self, const std::string &module,
    const std::string &source, uint64_t deadlineMillis)
{
    Span span_("service.submit", clientTag(module));
    return __real__ZN5repro7service12MatchService6submitERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_m(
        self, module, source, deadlineMillis);
}
