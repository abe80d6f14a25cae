#include "ir/basic_block.h"

#include <algorithm>

#include "ir/function.h"
#include "support/diagnostics.h"

namespace repro::ir {

Instruction *
BasicBlock::append(std::unique_ptr<Instruction> inst)
{
    inst->setParent(this);
    insts_.push_back(std::move(inst));
    return insts_.back().get();
}

Instruction *
BasicBlock::insert(size_t index, std::unique_ptr<Instruction> inst)
{
    reproAssert(index <= insts_.size(), "insert: index out of range");
    inst->setParent(this);
    auto it = insts_.begin() + static_cast<ptrdiff_t>(index);
    it = insts_.insert(it, std::move(inst));
    return it->get();
}

int
BasicBlock::indexOf(const Instruction *inst) const
{
    for (size_t i = 0; i < insts_.size(); ++i) {
        if (insts_[i].get() == inst)
            return static_cast<int>(i);
    }
    return -1;
}

void
BasicBlock::erase(Instruction *inst)
{
    int idx = indexOf(inst);
    reproAssert(idx >= 0, "erase: instruction not in block");
    reproAssert(inst->unused(), "erase: instruction still has users");
    insts_.erase(insts_.begin() + idx);
}

std::unique_ptr<Instruction>
BasicBlock::detach(Instruction *inst)
{
    int idx = indexOf(inst);
    reproAssert(idx >= 0, "detach: instruction not in block");
    std::unique_ptr<Instruction> out = std::move(insts_[idx]);
    insts_.erase(insts_.begin() + idx);
    out->setParent(nullptr);
    return out;
}

const std::vector<BasicBlock *> &
BasicBlock::successors() const
{
    static const std::vector<BasicBlock *> none;
    Instruction *term = terminator();
    return term ? term->blockTargets() : none;
}

std::vector<BasicBlock *>
BasicBlock::predecessors() const
{
    std::vector<BasicBlock *> preds;
    for (const auto &bb : parent_->blocks()) {
        const auto &succs = bb->successors();
        if (std::find(succs.begin(), succs.end(), this) != succs.end())
            preds.push_back(bb.get());
    }
    return preds;
}

} // namespace repro::ir
