#include "frontend/compiler.h"

#include <map>

#include "frontend/codegen.h"
#include "frontend/licm.h"
#include "frontend/mem2reg.h"
#include "frontend/parser.h"
#include "frontend/passes.h"
#include "ir/verifier.h"

namespace repro::frontend {

namespace {

ReuseKeys
reuseKeys(const TranslationUnit &unit)
{
    ReuseKeys keys;
    keys.declarations = unit.declarationsHash;
    std::map<std::string, int> definitions;
    for (const auto &f : unit.functions) {
        if (f->body && ++definitions[f->name] == 1)
            keys.definitions.emplace(f->name, f->definitionHash);
    }
    for (const auto &[name, count] : definitions) {
        if (count > 1)
            keys.definitions.erase(name);
    }
    return keys;
}

} // namespace

CompileResult
compileMiniCReusing(const std::string &source, ir::Module &module,
                    DiagEngine &diags, PreviousCompile previous,
                    ir::VerifyMode verify)
{
    CompileResult result;
    const bool boundaries = verify == ir::VerifyMode::Boundaries;
    auto unit = parseMiniC(source, diags);
    if (!unit)
        return result;
    result.keys = reuseKeys(*unit);

    // A reusable function loses its body here, so codegen declares it
    // in its place and every pass below skips it.
    std::vector<std::string> reused;
    if (previous.module &&
        previous.keys->declarations == result.keys.declarations) {
        const auto &earlier = previous.keys->definitions;
        for (auto &f : unit->functions) {
            auto now = result.keys.definitions.find(f->name);
            auto before = earlier.find(f->name);
            if (f->body && now != result.keys.definitions.end() &&
                before != earlier.end() &&
                now->second == before->second) {
                f->body.reset();
                reused.push_back(f->name);
            }
        }
    }

    if (!generateIR(*unit, module, diags))
        return result;
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

    // The final check runs before the clones, while reused functions
    // are still declarations: each clone copies a body that passed
    // this check when it was compiled, from a module the caller keeps
    // unchanged, and equal declaration keys pin every signature and
    // global it refers to.
    auto problems = ir::verifyModule(module);
    for (const auto &p : problems)
        diags.error({}, "invalid-ir " + p);
    result.invalidIr = !problems.empty();
    if (result.invalidIr)
        return result;

    for (const std::string &name : reused) {
        module.functionByName(name)->cloneBodyFrom(
            *previous.module->functionByName(name));
    }
    if (boundaries && !reused.empty())
        ir::verifyOrThrow(module, "frontend-reuse");
    result.reused = std::move(reused);
    result.ok = true;
    return result;
}

bool
compileMiniC(const std::string &source, ir::Module &module,
             DiagEngine &diags, ir::VerifyMode verify)
{
    return compileMiniCReusing(source, module, diags, {}, verify).ok;
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
