#include "frontend/compiler.h"

#include "frontend/codegen.h"
#include "frontend/licm.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "ir/verifier.h"

namespace repro::frontend {

bool
compileMiniC(const std::string &source, ir::Module &module,
             DiagEngine &diags, ir::VerifyMode verify)
{
    const bool boundaries = verify == ir::VerifyMode::Boundaries;
    auto unit = parseMiniC(source, diags);
    if (!unit)
        return false;
    if (!generateIR(*unit, module, diags))
        return false;
    for (const auto &f : module.functions())
        removeUnreachableBlocks(f.get());
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-codegen");
    promoteModule(module);
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-mem2reg");
    for (const auto &f : module.functions()) {
        aggressiveDCE(f.get());
        optimizeFunction(f.get());
    }
    if (boundaries)
        ir::verifyOrThrow(module, "frontend-optimize");

    auto problems = ir::verifyModule(module);
    for (const auto &p : problems)
        diags.error({}, "invalid-ir " + p);
    return problems.empty();
}

void
compileMiniCOrDie(const std::string &source, ir::Module &module,
                  ir::VerifyMode verify)
{
    DiagEngine diags;
    if (!compileMiniC(source, module, diags, verify))
        throw FatalError("MiniC compilation failed:\n" + diags.dump());
}

} // namespace repro::frontend
