/**
 * @file
 * Shared building blocks of the transform layer's rewrite schemes:
 * the loop skeleton bound by a For solution, the trampoline-block
 * instruction inserter, the loop-bypass surgery, and the purity /
 * effect-coverage predicates every scheme checks before claiming a
 * loop. The RewriteEngine's planners and commit stage (rewrite.h)
 * build on them; any change here that alters a planner's checks or the
 * IR a commit produces shows up in Transform.Table1SuiteGolden.
 */
#ifndef TRANSFORM_LOOP_SHAPE_H
#define TRANSFORM_LOOP_SHAPE_H

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/loops.h"
#include "ir/function.h"
#include "solver/solver.h"

namespace repro::transform::detail {

inline ir::Instruction *
asInst(const ir::Value *v)
{
    if (!v || !v->isInstruction())
        return nullptr;
    return const_cast<ir::Instruction *>(
        static_cast<const ir::Instruction *>(v));
}

inline ir::Value *
asValue(const ir::Value *v)
{
    return const_cast<ir::Value *>(v);
}

/** The loop skeleton bound by a For solution under @p prefix. */
struct LoopShape
{
    ir::Instruction *precursor = nullptr;
    ir::Instruction *comparison = nullptr;
    ir::Instruction *iterator = nullptr;
    ir::Instruction *successor = nullptr;
    ir::Instruction *bodyBegin = nullptr;
    ir::Instruction *latch = nullptr;
    ir::Value *iterBegin = nullptr;
    ir::Value *iterEnd = nullptr;

    bool
    complete() const
    {
        return precursor && comparison && iterator && successor &&
               bodyBegin && latch && iterBegin && iterEnd;
    }

    ir::BasicBlock *header() const { return comparison->parent(); }
    ir::BasicBlock *exitBlock() const { return successor->parent(); }
};

inline LoopShape
loopFromSolution(const solver::Solution &sol, const std::string &prefix)
{
    LoopShape shape;
    shape.precursor = asInst(sol.lookup(prefix + "precursor"));
    shape.comparison = asInst(sol.lookup(prefix + "comparison"));
    shape.iterator = asInst(sol.lookup(prefix + "iterator"));
    shape.successor = asInst(sol.lookup(prefix + "successor"));
    shape.bodyBegin = asInst(sol.lookup(prefix + "body_begin"));
    shape.latch = asInst(sol.lookup(prefix + "latch"));
    shape.iterBegin = asValue(sol.lookup(prefix + "iter_begin"));
    shape.iterEnd = asValue(sol.lookup(prefix + "iter_end"));
    return shape;
}

/** Inserts instructions into a trampoline block before its branch. */
class Inserter
{
  public:
    Inserter(ir::Module &module, ir::BasicBlock *bb)
        : module_(module), bb_(bb)
    {}

    ir::Instruction *
    add(std::unique_ptr<ir::Instruction> inst)
    {
        size_t pos = bb_->terminator() ? bb_->size() - 1 : bb_->size();
        return bb_->insert(pos, std::move(inst));
    }

    /** Sign-extend to i64 when needed. */
    ir::Value *
    toI64(ir::Value *v)
    {
        ir::Type *i64 = module_.types().i64Ty();
        if (v->type() == i64)
            return v;
        if (v->isConstant()) {
            return module_.intConst(
                i64, static_cast<ir::Constant *>(v)->intValue());
        }
        auto sext = std::make_unique<ir::Instruction>(ir::Opcode::SExt,
                                                      i64, "");
        sext->addOperand(v);
        return add(std::move(sext));
    }

    /** Decay pointer-to-array values to element pointers via gep. */
    ir::Value *
    decay(ir::Value *v)
    {
        while (v->type()->isPointer() &&
               v->type()->element()->isArray()) {
            ir::Type *arr = v->type()->element();
            auto gep = std::make_unique<ir::Instruction>(
                ir::Opcode::GEP,
                module_.types().pointerTo(arr->element()), "");
            gep->setAccessType(arr);
            gep->addOperand(v);
            gep->addOperand(
                module_.intConst(module_.types().i64Ty(), 0));
            gep->addOperand(
                module_.intConst(module_.types().i64Ty(), 0));
            v = add(std::move(gep));
        }
        return v;
    }

    ir::Instruction *
    call(ir::Function *callee, const std::vector<ir::Value *> &args)
    {
        auto inst = std::make_unique<ir::Instruction>(
            ir::Opcode::Call, callee->returnType(), "");
        inst->setCallee(callee);
        for (ir::Value *a : args)
            inst->addOperand(a);
        return add(std::move(inst));
    }

  private:
    ir::Module &module_;
    ir::BasicBlock *bb_;
};

/**
 * True when bypassLoop can succeed on @p loop right now: the exit
 * block must carry no phis and the loop-entering branch must actually
 * target the header. Pure; the RewriteEngine checks this both at plan
 * time and again during validation against the live IR.
 */
inline bool
canBypassLoop(const LoopShape &loop)
{
    ir::BasicBlock *exit = loop.exitBlock();
    if (!exit->empty() && exit->front()->is(ir::Opcode::Phi))
        return false;
    for (ir::BasicBlock *target : loop.precursor->blockTargets()) {
        if (target == loop.header())
            return true;
    }
    return false;
}

/**
 * Create a trampoline block that will hold the API call, rewire the
 * loop-entering branch through it to the loop exit, and return the
 * trampoline. Returns null when the surgery preconditions fail.
 */
inline ir::BasicBlock *
bypassLoop(ir::Module &module, const LoopShape &loop)
{
    // One source of truth for the preconditions: checked here before
    // any mutation, so a failed bypass never leaves a stray block.
    if (!canBypassLoop(loop))
        return nullptr;
    ir::BasicBlock *header = loop.header();
    ir::BasicBlock *exit = loop.exitBlock();
    ir::Function *func = header->parent();

    ir::BasicBlock *tramp =
        func->createBlock(func->uniqueName("hetero.call"));
    auto br = std::make_unique<ir::Instruction>(
        ir::Opcode::Br, module.types().voidTy(), "");
    br->addBlockTarget(exit);
    tramp->append(std::move(br));

    for (size_t i = 0; i < loop.precursor->blockTargets().size();
         ++i) {
        if (loop.precursor->blockTargets()[i] == header)
            loop.precursor->setBlockTarget(i, tramp);
    }
    return tramp;
}

/** Blocks of the natural loop headed by @p shape's header. */
inline const analysis::Loop *
findLoop(const analysis::LoopInfo &loops, const LoopShape &shape)
{
    for (const auto &loop : loops.loops()) {
        if (loop->header == shape.header())
            return loop.get();
    }
    return nullptr;
}

/**
 * Verify that no value defined inside the loop is used outside it
 * (the @p allowed value — a reduction result — excepted).
 */
inline bool
loopIsSelfContained(const analysis::Loop &loop,
                    const ir::Value *allowed)
{
    for (ir::BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst.get() == allowed)
                continue;
            for (const ir::Instruction *user : inst->users()) {
                if (!loop.contains(user->parent()))
                    return false;
            }
        }
    }
    return true;
}

/**
 * Removing the loop must remove no observable effect beyond the
 * idiom: every store must be in @p allowed_stores, and calls — whose
 * originals die with the loop — may only be pure builtins (extracted
 * kernels re-create them).
 */
inline bool
loopEffectsAreCovered(const analysis::Loop &loop,
                      const std::set<const ir::Value *> &allowed_stores,
                      bool allow_builtin_calls)
{
    for (ir::BasicBlock *bb : loop.blocks) {
        for (const auto &inst : bb->insts()) {
            if (inst->is(ir::Opcode::Store) &&
                !allowed_stores.count(inst.get())) {
                return false;
            }
            if (inst->is(ir::Opcode::Call)) {
                if (!allow_builtin_calls ||
                    !inst->callee()->isDeclaration()) {
                    return false;
                }
            }
            if (inst->is(ir::Opcode::Alloca))
                return false;
        }
    }
    return true;
}

/**
 * Structural equality of pure address computations: the same gep
 * expression recomputed at two program points (codegen does not CSE).
 */
inline bool
structurallyEqual(const ir::Value *a, const ir::Value *b,
                  int depth = 8)
{
    if (a == b)
        return true;
    if (depth == 0 || !a || !b || !a->isInstruction() ||
        !b->isInstruction()) {
        return false;
    }
    const auto *ia = static_cast<const ir::Instruction *>(a);
    const auto *ib = static_cast<const ir::Instruction *>(b);
    switch (ia->opcode()) {
      case ir::Opcode::GEP:
      case ir::Opcode::SExt:
      case ir::Opcode::Add:
      case ir::Opcode::Sub:
      case ir::Opcode::Mul:
        break;
      default:
        return false;
    }
    if (ia->opcode() != ib->opcode() ||
        ia->numOperands() != ib->numOperands() ||
        ia->accessType() != ib->accessType()) {
        return false;
    }
    for (size_t i = 0; i < ia->numOperands(); ++i) {
        if (!structurallyEqual(ia->operand(i), ib->operand(i),
                               depth - 1)) {
            return false;
        }
    }
    return true;
}

inline const ir::Value *
stripSext(const ir::Value *v)
{
    while (v && v->isInstruction()) {
        const auto *inst = static_cast<const ir::Instruction *>(v);
        if (!inst->is(ir::Opcode::SExt))
            break;
        v = inst->operand(0);
    }
    return v;
}

/** Element type behind a pointer-ish base value. */
inline ir::Type *
pointeeElement(const ir::Value *base)
{
    ir::Type *t = base->type();
    if (!t->isPointer())
        return nullptr;
    t = t->element();
    while (t->isArray())
        t = t->element();
    return t;
}

} // namespace repro::transform::detail

#endif // TRANSFORM_LOOP_SHAPE_H
