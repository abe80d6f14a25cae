#include "driver/driver.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>

#include "analysis/function_analyses.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "transform/binder.h"

namespace repro::driver {

std::vector<idioms::IdiomMatch>
MatchReport::allMatches() const
{
    std::vector<idioms::IdiomMatch> all;
    for (const auto &fr : functions)
        all.insert(all.end(), fr.matches.begin(), fr.matches.end());
    return all;
}

size_t
MatchReport::matchCount() const
{
    size_t n = 0;
    for (const auto &fr : functions)
        n += fr.matches.size();
    return n;
}

MatchingDriver::MatchingDriver(DriverOptions opts) : opts_(opts) {}

MatchReport
MatchingDriver::compileAndMatch(const std::string &source,
                                ir::Module &module)
{
    frontend::compileMiniCOrDie(source, module, opts_.verify);
    return matchModule(module);
}

MatchReport
MatchingDriver::matchModule(ir::Module &module)
{
    MatchReport report;
    for (const auto &f : module.functions()) {
        if (f->isDeclaration())
            continue;
        ir::Function *func = f.get();
        FunctionReport &fr = report.functions.emplace_back();
        fr.function = func;
        if (opts_.cache) {
            fr.contentHash = func->contentHash();
            if (tryReplay(func, &fr)) {
                // Replays count in the report but not in totals_,
                // which measures real search work only.
                ++report.cacheHits;
                report.totals += fr.stats;
                continue;
            }
            ++report.cacheMisses;
        }
        analysis::FunctionAnalyses fa(func);
        idioms::IdiomDetector detector(opts_.limits);
        fr.matches = detector.detect(func, fa);
        fr.stats = detector.stats();
        fr.status = detector.status();
        totals_ += fr.stats;
        report.totals += fr.stats;
        report.status = solver::worseStatus(report.status, fr.status);
        if (opts_.cache)
            storeSolveResult(func, fr);
    }
    if (opts_.applyTransforms) {
        transform::Transformer transformer(module, opts_.verify,
                                           opts_.backends);
        report.replacements = transformer.applyAll(report.allMatches());
    }
    return report;
}

namespace {

/** Everything one interpreted run leaves behind. */
struct ExecutionSnapshot
{
    interp::RuntimeValue ret;
    /** Heap bytes from Memory::kBase to the final heap end. */
    std::vector<uint8_t> heap;
    interp::Profile profile;
    benchmarks::Instance instance;
};

/**
 * Seed a fresh heap with the program's setup, execute its entry
 * through one engine, and snapshot heap/return/profile.
 */
ExecutionSnapshot
runBenchmark(ir::Module &module,
             const benchmarks::BenchmarkProgram &program,
             const std::vector<transform::Replacement> &replacements,
             bool reference)
{
    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    interp::registerMathBuiltins(interp);
    transform::bindReplacements(interp, replacements);
    interp.enableProfile(true);

    ExecutionSnapshot snap;
    snap.instance = program.setup(mem);
    ir::Function *entry = module.functionByName(program.entry);
    snap.ret = reference ? interp.runReference(entry, snap.instance.args)
                         : interp.run(entry, snap.instance.args);
    snap.profile = interp.profile();

    const uint64_t base = interp::Memory::kBase;
    interp::Memory::RawSpan span(mem, base, mem.size() - base);
    snap.heap.assign(span.data(), span.data() + span.size());
    return snap;
}

/**
 * Byte-compare two engine runs of the same module: final heap,
 * return value, full Profile, and the dynamic instruction count of
 * every natural loop (the quantity Figures 16-19 report per loop).
 * Returns the first mismatch description, or "" when identical.
 */
std::string
compareEngines(const ir::Module &module, const ExecutionSnapshot &ref,
               const ExecutionSnapshot &fast, const char *label,
               size_t *loopsCompared)
{
    const std::string what(label);
    if (ref.heap.size() != fast.heap.size())
        return what + ": final heap sizes differ between engines";
    if (!ref.heap.empty() &&
        std::memcmp(ref.heap.data(), fast.heap.data(),
                    ref.heap.size()) != 0) {
        return what + ": final heap bytes differ between engines";
    }
    if (!interp::RuntimeValue::bitsEqual(ref.ret, fast.ret))
        return what + ": return values differ between engines";
    if (ref.profile.totalSteps != fast.profile.totalSteps)
        return what + ": total dynamic instruction counts differ";
    if (ref.profile.counts != fast.profile.counts)
        return what + ": per-instruction profiles differ";

    for (const auto &func : module.functions()) {
        if (func->isDeclaration())
            continue;
        analysis::FunctionAnalyses fa(func.get());
        for (const auto &loop : fa.loopInfo().loops()) {
            std::set<const ir::Instruction *> body;
            for (ir::BasicBlock *bb : loop->blocks) {
                for (const auto &inst : bb->insts())
                    body.insert(inst.get());
            }
            if (ref.profile.countIn(body) !=
                fast.profile.countIn(body)) {
                return what + ": per-loop dynamic counts differ in @" +
                       func->name();
            }
            ++*loopsCompared;
        }
    }
    return "";
}

/**
 * Byte-compare the watched output arrays and return values of the
 * original and the transformed run (their heaps as a whole are not
 * comparable: the transformed module allocates extracted-kernel
 * state the original never had).
 */
std::string
compareResults(const ExecutionSnapshot &original,
               const ExecutionSnapshot &transformed)
{
    if (original.instance.watchDoubles !=
            transformed.instance.watchDoubles ||
        original.instance.watchInts != transformed.instance.watchInts)
        return "setup produced diverging watch lists";
    if (!interp::RuntimeValue::bitsEqual(original.ret, transformed.ret))
        return "transform changed the return value";

    // "" = identical; distinguishes a malformed watch list (a
    // harness/setup bug) from a genuine semantic divergence. The
    // bounds math is overflow-safe, same discipline as
    // Memory::checkRange: no `offset + len` that could wrap.
    auto compareRegions =
        [&](const std::vector<std::pair<uint64_t, size_t>> &watches,
            uint64_t elemSize, const char *what) -> std::string {
        const uint64_t snapLen =
            std::min<uint64_t>(original.heap.size(),
                               transformed.heap.size());
        for (const auto &[addr, count] : watches) {
            std::string malformed = std::string("watched ") + what +
                                    " array lies outside the heap "
                                    "snapshot";
            if (addr < interp::Memory::kBase)
                return malformed;
            uint64_t offset = addr - interp::Memory::kBase;
            if (count > snapLen / elemSize)
                return malformed;
            uint64_t len = elemSize * count;
            if (offset > snapLen - len)
                return malformed;
            if (std::memcmp(original.heap.data() + offset,
                            transformed.heap.data() + offset,
                            len) != 0) {
                return std::string("transform changed a watched ") +
                       what + " array";
            }
        }
        return "";
    };
    std::string err =
        compareRegions(original.instance.watchDoubles, 8, "double");
    if (err.empty())
        err = compareRegions(original.instance.watchInts, 4, "int");
    return err;
}

} // namespace

TransformVerification
MatchingDriver::verifyTransform(
    const benchmarks::BenchmarkProgram &program) const
{
    return verifyTransform(program, nullptr);
}

TransformVerification
MatchingDriver::verifyTransform(
    const benchmarks::BenchmarkProgram &program,
    const std::function<void(ir::Module &)> &tamper) const
{
    TransformVerification v;
    v.name = program.name;

    // The original program, executed by both engines over identical
    // seeded heaps.
    ir::Module original;
    frontend::compileMiniCOrDie(program.source, original,
                                opts_.verify);
    ExecutionSnapshot refO = runBenchmark(original, program, {}, true);
    ExecutionSnapshot fastO =
        runBenchmark(original, program, {}, false);
    v.originalSteps = refO.profile.totalSteps;
    v.error =
        compareEngines(original, refO, fastO, "original",
                       &v.loopsCompared);
    if (!v.error.empty())
        return v;

    // The transformed program: match, rewrite, bind the native
    // skeletons, then execute by both engines.
    ir::Module transformed;
    DriverOptions localOpts = opts_;
    localOpts.applyTransforms = true;
    localOpts.cache = nullptr;
    MatchingDriver local(localOpts);
    MatchReport report =
        local.compileAndMatch(program.source, transformed);
    v.matches = report.matchCount();
    v.replacements = report.replacements.size();
    if (tamper)
        tamper(transformed);
    ExecutionSnapshot refT =
        runBenchmark(transformed, program, report.replacements, true);
    ExecutionSnapshot fastT =
        runBenchmark(transformed, program, report.replacements, false);
    v.transformedSteps = refT.profile.totalSteps;
    v.error = compareEngines(transformed, refT, fastT, "transformed",
                             &v.loopsCompared);
    if (!v.error.empty())
        return v;

    // Original vs transformed: the Figure 1 preservation claim.
    v.error = compareResults(refO, refT);
    return v;
}

std::vector<TransformVerification>
MatchingDriver::verifyTransforms() const
{
    std::vector<TransformVerification> out;
    for (const auto &program : benchmarks::nasParboilSuite())
        out.push_back(verifyTransform(program));
    return out;
}

SolveOutcome
MatchingDriver::solveProgram(ir::Function *func,
                             const solver::ConstraintProgram &program)
{
    analysis::FunctionAnalyses fa(func);
    // Build the lazy analyses up front so solveMillis measures the
    // search alone.
    fa.domTree();
    fa.postDomTree();
    fa.cfg();
    fa.loopInfo();
    solver::Solver solver(func, fa);
    SolveOutcome outcome;
    auto t0 = std::chrono::steady_clock::now();
    outcome.solutions = solver.solveAll(program, opts_.limits);
    auto dt = std::chrono::steady_clock::now() - t0;
    outcome.solveMillis =
        std::chrono::duration<double, std::milli>(dt).count();
    outcome.stats = solver.stats();
    totals_ += outcome.stats;
    return outcome;
}

void
MatchingDriver::attachCache(std::shared_ptr<MatchCache> cache)
{
    opts_.cache = std::move(cache);
}

bool
MatchingDriver::tryReplay(ir::Function *func, FunctionReport *fr)
{
    CacheKey key{fr->contentHash, idioms::idiomSetHash()};
    std::shared_ptr<const CachedMatches> entry =
        opts_.cache->lookup(key);
    // The signature check demotes a contentHash collision (different
    // body, equal 64-bit hash) to a miss; reanchor's membership
    // validation alone could silently accept such an entry.
    if (entry && entry->signature == MatchCache::signatureOf(func) &&
        MatchCache::reanchor(entry->matches, func, &fr->matches)) {
        fr->stats = entry->stats;
        fr->fromCache = true;
        opts_.cache->countHit();
        return true;
    }
    opts_.cache->countMiss();
    return false;
}

void
MatchingDriver::storeSolveResult(ir::Function *func,
                                 const FunctionReport &fr)
{
    // A degraded solve (budget/deadline) found a valid but possibly
    // incomplete match set. Caching it would freeze the truncation:
    // every later resubmission would replay the partial result as if
    // it were complete. Leave the key cold so a warm resubmit
    // re-solves under whatever budget it arrives with.
    if (fr.status != solver::SolveStatus::Complete)
        return;
    CachedMatches entry;
    if (!MatchCache::capture(fr.matches, func, &entry.matches))
        return;
    entry.signature = MatchCache::signatureOf(func);
    entry.stats = fr.stats;
    opts_.cache->insert(CacheKey{fr.contentHash,
                                 idioms::idiomSetHash()},
                        std::move(entry));
}

} // namespace repro::driver
