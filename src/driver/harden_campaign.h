/**
 * @file
 * Deterministic fault-injection campaign for the hardening passes.
 *
 * The hardening transformations (transform/harden.h) claim to detect
 * single-bit data and control-flow faults. This harness puts a number
 * on that claim, EDDI/ASPIS-paper style: for each benchmark program
 * of the NAS/Parboil suite it compiles the program, optionally
 * hardens its entry function, executes one golden (fault-free) run,
 * then sweeps deterministic single-bit faults (interp::FaultPlan)
 * across the dynamic execution and classifies every injected run:
 *
 *  - **detected** — the hardening checks trapped (FaultDetected);
 *  - **masked** — the run finished and its watched outputs and return
 *    value are byte-identical to the golden run (the flipped bit was
 *    dead, logically masked, or overwritten);
 *  - **sdc** — silent data corruption: the run finished with
 *    different outputs and no one noticed — the outcome hardening
 *    exists to eliminate;
 *  - **crashed** — the runtime system aborted the run (FatalError:
 *    out-of-bounds access, division by zero, step-limit watchdog).
 *    Detection by crash is a property of the interpreter's bounds
 *    checking, not of the hardening passes, so it is reported
 *    separately and excluded from the detection rate.
 *
 * detectionRate() = detected / (detected + sdc): of the faults that
 * would otherwise corrupt results silently, the fraction the checks
 * caught. The campaign is bit-for-bit deterministic: injection sites
 * derive from a seeded splitmix64 stream over (seed, program,
 * variant, index), the golden boundary count comes from a
 * never-firing probe plan, and both execution engines classify every
 * plan identically (tests/test_harden.cpp pins this).
 */
#ifndef DRIVER_HARDEN_CAMPAIGN_H
#define DRIVER_HARDEN_CAMPAIGN_H

#include <cstdint>
#include <string>
#include <vector>

#include "benchmarks/suite.h"
#include "interp/interpreter.h"
#include "transform/harden.h"

namespace repro::driver {

/** Classification of one injected run. */
enum class FaultOutcome
{
    Detected,
    Masked,
    Sdc,
    Crashed,
};

/** One injected run: the plan and what happened. */
struct FaultRun
{
    interp::FaultPlan plan;
    FaultOutcome outcome = FaultOutcome::Masked;
};

/** Campaign configuration. */
struct HardenCampaignOptions
{
    /** Single-bit faults injected per program. */
    size_t injectionsPerProgram = 40;
    /** Harden the entry function before injecting (false = baseline
     *  sweep measuring how much SDC unprotected code suffers). */
    bool harden = true;
    /** Pass selection when hardening. */
    transform::HardenOptions mode;
    /** Stream seed for injection-site selection. */
    uint64_t seed = 0x48415244; // "HARD"
    /** Classify with the tree-walking reference engine instead of the
     *  bytecode engine. Outcomes must be identical either way. */
    bool useReferenceEngine = false;
};

/** Aggregated campaign result of one program variant. */
struct HardenCampaignResult
{
    std::string program;
    bool hardened = false;
    /** Dynamic instructions of the golden run. */
    uint64_t goldenSteps = 0;
    /** Injectable boundaries the entry function executed (the range
     *  FaultPlan::step is drawn from). */
    uint64_t goldenBoundaries = 0;
    size_t detected = 0;
    size_t masked = 0;
    size_t sdc = 0;
    size_t crashed = 0;
    /** Every injected run, in injection order. */
    std::vector<FaultRun> runs;

    /**
     * Of the faults that either trapped or silently corrupted output,
     * the fraction the hardening checks caught. 1.0 when no fault did
     * either (nothing to detect).
     */
    double
    detectionRate() const
    {
        size_t denom = detected + sdc;
        return denom == 0 ? 1.0
                          : static_cast<double>(detected) /
                                static_cast<double>(denom);
    }
};

/**
 * Run the campaign over one benchmark program. Throws FatalError when
 * the program fails to compile, the golden run fails, or (hardened
 * variant) the hardening rewrite does not commit.
 */
HardenCampaignResult
runHardenCampaign(const benchmarks::BenchmarkProgram &program,
                  const HardenCampaignOptions &opts);

/**
 * The campaign over the whole NAS/Parboil suite, in suite order.
 * Programs are independent shards: results are written to
 * preassigned slots, so any @p numThreads (1 = inline) produces
 * byte-identical results.
 */
std::vector<HardenCampaignResult>
runHardenCampaignSuite(const HardenCampaignOptions &opts,
                       unsigned numThreads = 1);

} // namespace repro::driver

#endif // DRIVER_HARDEN_CAMPAIGN_H
