#include "benchmarks/coverage.h"

#include <map>
#include <set>

#include "analysis/function_analyses.h"

namespace repro::benchmarks {

double
runtimeCoverage(const std::vector<idioms::IdiomMatch> &matches,
                const interp::Profile &profile)
{
    if (profile.totalSteps == 0)
        return 0.0;

    std::map<ir::Function *, analysis::FunctionAnalyses> analyses;
    std::set<const ir::Instruction *> claimed;
    for (const auto &match : matches) {
        ir::Function *func = match.function;
        const analysis::LoopInfo &loops =
            analyses.try_emplace(func, func).first->second.loopInfo();
        const idioms::IdiomInfo *row = idioms::findIdiom(match.idiom);
        if (!row)
            continue;
        for (const auto &var : row->claimVars) {
            const ir::Value *cmp = match.solution.lookup(var);
            if (!cmp || !cmp->isInstruction())
                continue;
            const auto *inst =
                static_cast<const ir::Instruction *>(cmp);
            for (const auto &loop : loops.loops()) {
                if (loop->header != inst->parent())
                    continue;
                for (ir::BasicBlock *bb : loop->blocks) {
                    for (const auto &i : bb->insts())
                        claimed.insert(i.get());
                }
            }
        }
    }

    uint64_t in_idioms = profile.countIn(claimed);
    return static_cast<double>(in_idioms) /
           static_cast<double>(profile.totalSteps);
}

} // namespace repro::benchmarks
