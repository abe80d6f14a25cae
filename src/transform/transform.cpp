#include "transform/transform.h"

#include "transform/rewrite.h"

namespace repro::transform {

Transformer::Transformer(ir::Module &module, ir::VerifyMode verify,
                         BackendConfig backends)
    : engine_(std::make_unique<RewriteEngine>(module, verify,
                                              std::move(backends)))
{
}

Transformer::~Transformer() = default;

std::vector<Replacement>
Transformer::applyAll(const std::vector<idioms::IdiomMatch> &matches)
{
    return engine_->applyAll(matches);
}

} // namespace repro::transform
