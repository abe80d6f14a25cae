#include "baselines/baselines.h"

#include <set>

#include "analysis/function_analyses.h"

namespace repro::baselines {

using analysis::DomTree;
using analysis::Loop;
using analysis::LoopInfo;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

const Instruction *
asInst(const Value *v)
{
    return v && v->isInstruction()
               ? static_cast<const Instruction *>(v)
               : nullptr;
}

/** Loop skeleton recovered structurally (no IDL involved). */
struct LoopParts
{
    const Instruction *iterator = nullptr;  ///< header phi
    const Instruction *comparison = nullptr;
    const Value *iterBegin = nullptr;
    const Value *iterEnd = nullptr;
    bool valid = false;
};

LoopParts
analyzeLoop(const Loop &loop)
{
    LoopParts parts;
    // The guard compare sits in the header and feeds its terminator.
    Instruction *term = loop.header->terminator();
    if (!term || !term->isConditionalBranch())
        return parts;
    const Instruction *cmp = asInst(term->operand(0));
    if (!cmp || !cmp->is(Opcode::ICmp))
        return parts;
    const Instruction *iter = asInst(cmp->operand(0));
    if (!iter || !iter->is(Opcode::Phi) ||
        iter->parent() != loop.header) {
        return parts;
    }
    parts.iterator = iter;
    parts.comparison = cmp;
    parts.iterEnd = cmp->operand(1);
    for (size_t i = 0; i < iter->numOperands(); ++i) {
        if (!loop.contains(iter->incomingBlocks()[i]))
            parts.iterBegin = iter->operand(i);
    }
    parts.valid = parts.iterBegin != nullptr;
    return parts;
}

/** Does the computation of @p v involve a memory load? */
bool
derivesFromLoad(const Value *v, int depth = 12)
{
    const Instruction *inst = asInst(v);
    if (!inst || depth == 0)
        return false;
    if (inst->is(Opcode::Load))
        return true;
    if (inst->is(Opcode::Phi))
        return false; // iterator-like; fine
    for (const Value *op : inst->operands()) {
        if (derivesFromLoad(op, depth - 1))
            return true;
    }
    return false;
}

/**
 * Affine subscript in the iterators of @p nest_iters: sums/differences
 * of iterators and constants, with multiplications by constants only.
 */
bool
isAffine(const Value *v, const std::set<const Value *> &nest_iters,
         int depth = 12)
{
    if (depth == 0)
        return false;
    if (v->isConstant())
        return true;
    if (nest_iters.count(v))
        return true;
    const Instruction *inst = asInst(v);
    if (!inst)
        return false; // runtime parameter: not a static subscript
    switch (inst->opcode()) {
      case Opcode::SExt:
        return isAffine(inst->operand(0), nest_iters, depth - 1);
      case Opcode::Add:
      case Opcode::Sub:
        return isAffine(inst->operand(0), nest_iters, depth - 1) &&
               isAffine(inst->operand(1), nest_iters, depth - 1);
      case Opcode::Mul: {
        bool c0 = inst->operand(0)->isConstant();
        bool c1 = inst->operand(1)->isConstant();
        if (!c0 && !c1)
            return false; // product of iterators: not affine
        return isAffine(inst->operand(0), nest_iters, depth - 1) &&
               isAffine(inst->operand(1), nest_iters, depth - 1);
      }
      default:
        return false;
    }
}

/** Accumulator phis of one loop: non-iterator header phis updated by
 *  a plain add/fadd/mul/fmul of themselves. */
int
plainAccumulators(const Loop &loop, const LoopParts &parts)
{
    int count = 0;
    for (const auto &inst : loop.header->insts()) {
        if (!inst->is(Opcode::Phi))
            break;
        if (inst.get() == parts.iterator)
            continue;
        const Instruction *phi = inst.get();
        for (size_t i = 0; i < phi->numOperands(); ++i) {
            if (!loop.contains(phi->incomingBlocks()[i]))
                continue;
            const Instruction *update = asInst(phi->operand(i));
            if (!update)
                continue;
            bool is_arith = update->is(Opcode::FAdd) ||
                            update->is(Opcode::Add) ||
                            update->is(Opcode::FMul) ||
                            update->is(Opcode::Mul);
            if (!is_arith)
                continue;
            if (update->operand(0) == phi ||
                update->operand(1) == phi) {
                ++count;
            }
        }
    }
    return count;
}

// ----------------------------------------------------------- ICC-like

/** ICC-like: innermost, straight-line, call/select-free loops with a
 *  computable (non-memory-dependent) trip count. */
int
iccReductionsInLoop(const Loop &loop)
{
    if (!loop.children.empty())
        return 0; // reported on innermost loops only
    LoopParts parts = analyzeLoop(loop);
    if (!parts.valid)
        return 0;
    // Trip count must not depend on memory (CSR-style bounds defeat
    // the dependence analysis).
    if (derivesFromLoad(parts.iterBegin) ||
        derivesFromLoad(parts.iterEnd)) {
        return 0;
    }
    // Straight-line body: header, one body block, optional latch.
    if (loop.blocks.size() > 3)
        return 0;
    for (BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Call) || inst->is(Opcode::Select))
                return 0;
        }
    }
    return plainAccumulators(loop, parts);
}

// ---------------------------------------------------------- Polly-like

/** SCoP test: constant bounds, affine accesses, no calls, no
 *  data-dependent control, nested loops equally well behaved. */
bool
isScop(const Loop &loop, std::set<const Value *> nest_iters)
{
    LoopParts parts = analyzeLoop(loop);
    if (!parts.valid)
        return false;
    if (!parts.iterBegin->isConstant() || !parts.iterEnd->isConstant())
        return false;
    nest_iters.insert(parts.iterator);

    // Headers of all nested loops may carry their guard branches.
    std::set<const BasicBlock *> child_headers;
    std::vector<const Loop *> stack(loop.children.begin(),
                                    loop.children.end());
    while (!stack.empty()) {
        const Loop *child = stack.back();
        stack.pop_back();
        child_headers.insert(child->header);
        stack.insert(stack.end(), child->children.begin(),
                     child->children.end());
    }

    for (BasicBlock *bb : loop.blocks) {
        // Blocks of nested loops are re-checked in the recursion with
        // their iterators in scope.
        bool in_child = false;
        for (const Loop *child : loop.children)
            in_child = in_child || child->contains(bb);
        if (in_child)
            continue;
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Call))
                return false;
            if (inst->is(Opcode::Load) || inst->is(Opcode::Store)) {
                size_t addr_at = inst->is(Opcode::Load) ? 0 : 1;
                const Instruction *gep =
                    asInst(inst->operand(addr_at));
                if (!gep || !gep->is(Opcode::GEP))
                    return false;
                for (size_t k = 1; k < gep->numOperands(); ++k) {
                    if (!isAffine(gep->operand(k), nest_iters))
                        return false;
                }
            }
            if (inst->isConditionalBranch() &&
                bb != loop.header && !child_headers.count(bb)) {
                return false; // data dependent control flow
            }
        }
    }
    for (const Loop *child : loop.children) {
        if (!isScop(*child, nest_iters))
            return false;
    }
    return true;
}

/** Stencil-shaped parallel loop: a store plus displaced loads from a
 *  different base array. */
bool
isStencilLoop(const Loop &loop)
{
    if (!loop.children.empty())
        return false;
    const Instruction *store = nullptr;
    for (BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(Opcode::Store)) {
                if (store)
                    return false;
                store = inst.get();
            }
        }
    }
    if (!store)
        return false;
    const Value *store_base =
        analysis::basePointerOf(store->operand(1));
    int displaced_loads = 0;
    for (BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (!inst->is(Opcode::Load))
                continue;
            const Value *base =
                analysis::basePointerOf(inst->operand(0));
            if (base == store_base)
                return false; // in-place update: not a stencil
            ++displaced_loads;
        }
    }
    return displaced_loads >= 2;
}

void
countPollyLoop(const Loop &loop, idioms::ClassCounts &counts)
{
    // Reductions inside the SCoP.
    LoopParts parts = analyzeLoop(loop);
    if (loop.children.empty() && parts.valid)
        counts.scalarReductions += plainAccumulators(loop, parts);
    if (isStencilLoop(loop))
        ++counts.stencils;
    for (const Loop *child : loop.children)
        countPollyLoop(*child, counts);
}

} // namespace

idioms::ClassCounts
runPollyLike(ir::Module &module)
{
    idioms::ClassCounts counts;
    for (const auto &func : module.functions()) {
        if (func->isDeclaration())
            continue;
        DomTree dom(func.get(), false);
        LoopInfo loops(func.get(), dom);
        for (Loop *top : loops.topLevel()) {
            if (isScop(*top, {}))
                countPollyLoop(*top, counts);
        }
    }
    return counts;
}

idioms::ClassCounts
runIccLike(ir::Module &module)
{
    idioms::ClassCounts counts;
    for (const auto &func : module.functions()) {
        if (func->isDeclaration())
            continue;
        DomTree dom(func.get(), false);
        LoopInfo loops(func.get(), dom);
        for (const auto &loop : loops.loops())
            counts.scalarReductions += iccReductionsInLoop(*loop);
    }
    return counts;
}

} // namespace repro::baselines
