/**
 * @file
 * Implementation of the fault-injection campaign (harden_campaign.h).
 *
 * Every run — golden and injected alike — gets a completely fresh
 * Memory and Interpreter, so state can never leak between runs and
 * the campaign is a pure function of (program, options). Injection
 * sites come from a splitmix64 stream keyed by (seed, program name,
 * variant, injection index): no global RNG, no time, no addresses.
 */
#include "driver/harden_campaign.h"

#include "driver/sharded.h"
#include "frontend/compiler.h"
#include "interp/builtins.h"
#include "support/diagnostics.h"
#include "transform/transform.h"

namespace repro::driver {

namespace {

/** splitmix64 finalizer: the campaign's deterministic site stream. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Everything one run leaves behind for classification. */
struct RunOutput
{
    interp::RuntimeValue ret;
    /** The watched output regions, concatenated byte-for-byte. */
    std::vector<uint8_t> watched;
    uint64_t boundaries = 0;
    uint64_t steps = 0;
};

std::vector<uint8_t>
watchedSnapshot(interp::Memory &mem, const benchmarks::Instance &inst)
{
    std::vector<uint8_t> bytes;
    auto grab = [&](const std::vector<std::pair<uint64_t, size_t>> &ws,
                    uint64_t elemSize) {
        for (const auto &[addr, count] : ws) {
            interp::Memory::RawSpan span(mem, addr, elemSize * count);
            bytes.insert(bytes.end(), span.data(),
                         span.data() + span.size());
        }
    };
    // Watched regions are allocated by setup, before any fault can
    // fire, so they are in bounds on every classified run.
    grab(inst.watchDoubles, 8);
    grab(inst.watchInts, 4);
    return bytes;
}

/**
 * One armed execution over a fresh heap. FaultDetected / FatalError
 * propagate to the caller for classification.
 */
RunOutput
executeOnce(ir::Module &module,
            const benchmarks::BenchmarkProgram &program,
            const interp::FaultPlan &plan, bool reference,
            uint64_t stepLimit)
{
    interp::Memory mem;
    interp::Interpreter interp(module, mem);
    interp::registerMathBuiltins(interp);
    if (stepLimit)
        interp.setStepLimit(stepLimit);

    benchmarks::Instance inst = program.setup(mem);
    ir::Function *entry = module.functionByName(program.entry);
    if (!entry)
        throw FatalError("harden campaign: no entry function @" +
                         program.entry);
    interp.armFault(plan);

    RunOutput out;
    out.ret = reference ? interp.runReference(entry, inst.args)
                        : interp.run(entry, inst.args);
    out.boundaries = interp.faultCounter();
    out.steps = interp.stepsExecuted();
    out.watched = watchedSnapshot(mem, inst);
    return out;
}

const char *
protectAttributeFor(const transform::HardenOptions &mode)
{
    if (mode.duplicate && mode.signatures)
        return "protect";
    return mode.duplicate ? "protect:eddi" : "protect:cfcss";
}

} // namespace

HardenCampaignResult
runHardenCampaign(const benchmarks::BenchmarkProgram &program,
                  const HardenCampaignOptions &opts)
{
    HardenCampaignResult res;
    res.program = program.name;
    res.hardened = opts.harden;

    ir::Module module;
    frontend::compileMiniCOrDie(program.source, module);
    if (opts.harden) {
        ir::Function *entry = module.functionByName(program.entry);
        if (!entry)
            throw FatalError("harden campaign: no entry function @" +
                             program.entry);
        entry->addAttribute(protectAttributeFor(opts.mode));
        transform::Transformer transformer(module);
        auto reps = transformer.applyAll({});
        if (reps.size() != 1 || reps[0].kind != "harden") {
            throw FatalError(
                "harden campaign: hardening did not commit");
        }
    }

    // Golden run: a probe plan with step = UINT64_MAX never fires, so
    // the fault counter reports how many injectable boundaries the
    // entry function executed — the range steps are drawn from.
    interp::FaultPlan probe;
    probe.function = program.entry;
    probe.step = UINT64_MAX;
    RunOutput golden = executeOnce(module, program, probe,
                                   opts.useReferenceEngine, 0);
    res.goldenSteps = golden.steps;
    res.goldenBoundaries = golden.boundaries;
    if (res.goldenBoundaries == 0) {
        throw FatalError("harden campaign: entry function executed "
                         "no injectable boundaries");
    }

    // A flipped loop bound must not stall the sweep for minutes: any
    // injected run beyond 8x the golden step count is runaway and the
    // watchdog classifies it as crashed.
    const uint64_t stepLimit = golden.steps * 8 + 1024;
    const uint64_t stream = mix64(opts.seed) ^ mix64(fnv1a(program.name)) ^
                            (opts.harden ? 0xA5A5A5A5A5A5A5A5ULL
                                         : 0x5A5A5A5A5A5A5A5AULL);

    for (size_t i = 0; i < opts.injectionsPerProgram; ++i) {
        FaultRun run;
        run.plan.function = program.entry;
        run.plan.step =
            mix64(stream + 3 * i + 1) % res.goldenBoundaries;
        run.plan.valueIndex =
            static_cast<uint32_t>(mix64(stream + 3 * i + 2));
        run.plan.bit =
            static_cast<uint32_t>(mix64(stream + 3 * i + 3) % 64);

        try {
            RunOutput out =
                executeOnce(module, program, run.plan,
                            opts.useReferenceEngine, stepLimit);
            bool same =
                interp::RuntimeValue::bitsEqual(out.ret, golden.ret) &&
                out.watched == golden.watched;
            run.outcome =
                same ? FaultOutcome::Masked : FaultOutcome::Sdc;
        } catch (const interp::FaultDetected &) {
            run.outcome = FaultOutcome::Detected;
        } catch (const FatalError &) {
            run.outcome = FaultOutcome::Crashed;
        }

        switch (run.outcome) {
          case FaultOutcome::Detected: ++res.detected; break;
          case FaultOutcome::Masked: ++res.masked; break;
          case FaultOutcome::Sdc: ++res.sdc; break;
          case FaultOutcome::Crashed: ++res.crashed; break;
        }
        res.runs.push_back(std::move(run));
    }
    return res;
}

std::vector<HardenCampaignResult>
runHardenCampaignSuite(const HardenCampaignOptions &opts,
                       unsigned numThreads)
{
    const auto &suite = benchmarks::nasParboilSuite();
    std::vector<HardenCampaignResult> out(suite.size());
    // Programs are independent shards writing preassigned slots, so
    // scheduling cannot reorder or interleave results: serial and
    // parallel sweeps are byte-identical (pinned by test_harden).
    runSharded(suite.size(), resolveThreads(numThreads, suite.size()),
               [&](size_t i, unsigned) {
                   out[i] = runHardenCampaign(suite[i], opts);
               });
    return out;
}

} // namespace repro::driver
