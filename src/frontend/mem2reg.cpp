#include "frontend/mem2reg.h"

#include <memory>
#include <vector>

#include "analysis/dominators.h"
#include "support/diagnostics.h"
#include "support/pointer_map.h"

namespace repro::frontend {

using analysis::DomTree;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::Value;

namespace {

/** True if every use of @p alloca is a direct scalar load or store. */
bool
isPromotable(Instruction *alloca)
{
    if (alloca->accessType()->isArray())
        return false;
    for (Instruction *user : alloca->users()) {
        if (user->is(Opcode::Load))
            continue;
        if (user->is(Opcode::Store) && user->operand(1) == alloca &&
            user->operand(0) != alloca) {
            continue;
        }
        return false;
    }
    return true;
}

Value *
zeroFor(ir::Module &module, ir::Type *type)
{
    if (type->isFloatingPoint())
        return module.fpConst(type, 0.0);
    return module.intConst(type, 0);
}

/** Promotes one function's allocas. */
class Promoter
{
  public:
    explicit Promoter(Function *func)
        : func_(func), dom_(func, false)
    {
        const auto &blocks = func->blocks();
        blockIndex_.reserve(blocks.size());
        for (size_t i = 0; i < blocks.size(); ++i)
            blockIndex_.insert(blocks[i].get(), static_cast<int>(i));
        domChildren_.resize(blocks.size());
        for (const auto &bb : blocks) {
            BasicBlock *d = dom_.idom(bb.get());
            if (d)
                domChildren_[indexOf(d)].push_back(bb.get());
        }
    }

    int
    run()
    {
        std::vector<Instruction *> allocas;
        for (const auto &bb : func_->blocks()) {
            for (const auto &inst : bb->insts()) {
                if (inst->is(Opcode::Alloca) &&
                    isPromotable(inst.get())) {
                    allocaIndex_.insert(inst.get(),
                                        static_cast<int>(allocas.size()));
                    allocas.push_back(inst.get());
                }
            }
        }
        if (allocas.empty())
            return 0;

        for (size_t a = 0; a < allocas.size(); ++a)
            placePhis(allocas[a], static_cast<int>(a));

        std::vector<Value *> incoming;
        for (Instruction *a : allocas)
            incoming.push_back(
                zeroFor(*func_->parentModule(), a->accessType()));
        rename(std::move(incoming));

        // Delete the dead stores, loads and allocas. Every use of a
        // promoted alloca is one of them, so its uses go in one step
        // (dropping them one erased load or store at a time rescans
        // the alloca's user list per use: quadratic in its uses).
        size_t uses = 0;
        for (Instruction *a : allocas)
            uses += a->users().size();
        reproAssert(uses == toErase_.size(), "mem2reg: alloca still used");
        for (Instruction *a : allocas)
            a->dropUses();
        for (Instruction *inst : toErase_)
            inst->dropOperands();
        for (Instruction *inst : toErase_)
            inst->eraseFromParent();
        for (Instruction *a : allocas)
            a->eraseFromParent();
        return static_cast<int>(allocas.size());
    }

  private:
    size_t
    indexOf(const BasicBlock *bb) const
    {
        return static_cast<size_t>(blockIndex_.find(bb));
    }

    /** Index of the promoted alloca @p addr names, or -1. */
    int
    allocaOf(const Value *addr) const
    {
        return addr->isInstruction() ? allocaIndex_.find(addr) : -1;
    }

    void
    placePhis(Instruction *alloca, int index)
    {
        // Blocks containing a store to this alloca.
        std::vector<BasicBlock *> work;
        for (Instruction *user : alloca->users()) {
            if (user->is(Opcode::Store))
                work.push_back(user->parent());
        }
        std::vector<bool> hasPhi(func_->blocks().size());
        while (!work.empty()) {
            BasicBlock *bb = work.back();
            work.pop_back();
            for (BasicBlock *fr : dom_.frontier(bb)) {
                if (hasPhi[indexOf(fr)])
                    continue;
                hasPhi[indexOf(fr)] = true;
                auto phi = std::make_unique<Instruction>(
                    Opcode::Phi, alloca->accessType(),
                    func_->uniqueName(alloca->name() + ".phi"));
                phiAlloca_.insert(fr->insert(0, std::move(phi)), index);
                work.push_back(fr);
            }
        }
    }

    /**
     * The renaming walk over the dominator tree, in preorder with
     * children in block order. @p incoming holds each alloca's
     * current value; a block's updates are logged and undone when its
     * subtree is done, so every block starts from the values its
     * immediate dominator ended with. An explicit stack instead of
     * recursion: the tree is as deep as the code is long.
     */
    void
    rename(std::vector<Value *> incoming)
    {
        struct Undo
        {
            size_t alloca;
            Value *value;
        };
        std::vector<Undo> undo;
        auto set = [&](size_t a, Value *v) {
            undo.push_back({a, incoming[a]});
            incoming[a] = v;
        };
        // (block, undo depth); a null block ends the subtree whose
        // updates start at that depth.
        std::vector<std::pair<BasicBlock *, size_t>> work{
            {func_->entry(), 0}};
        while (!work.empty()) {
            auto [bb, mark] = work.back();
            work.pop_back();
            if (!bb) {
                for (; undo.size() > mark; undo.pop_back())
                    incoming[undo.back().alloca] = undo.back().value;
                continue;
            }
            work.push_back({nullptr, undo.size()});

            // Phis placed in this block define new values first.
            for (const auto &phi : bb->insts()) {
                if (!phi->is(Opcode::Phi))
                    break;
                int a = phiAlloca_.find(phi.get());
                if (a >= 0)
                    set(static_cast<size_t>(a), phi.get());
            }
            for (const auto &inst_ptr : bb->insts()) {
                Instruction *inst = inst_ptr.get();
                if (inst->is(Opcode::Load)) {
                    int a = allocaOf(inst->operand(0));
                    if (a >= 0) {
                        inst->replaceAllUsesWith(
                            incoming[static_cast<size_t>(a)]);
                        toErase_.push_back(inst);
                    }
                } else if (inst->is(Opcode::Store)) {
                    int a = allocaOf(inst->operand(1));
                    if (a >= 0) {
                        set(static_cast<size_t>(a), inst->operand(0));
                        toErase_.push_back(inst);
                    }
                }
            }
            // Feed phi nodes of successors, in block order: a value
            // feeding several phis then lists them as users in an
            // order that does not depend on heap addresses.
            for (BasicBlock *succ : bb->successors()) {
                for (const auto &phi : succ->insts()) {
                    if (!phi->is(Opcode::Phi))
                        break;
                    int a = phiAlloca_.find(phi.get());
                    if (a >= 0)
                        phi->addIncoming(incoming[static_cast<size_t>(a)],
                                         bb);
                }
            }
            const auto &children = domChildren_[indexOf(bb)];
            for (auto it = children.rbegin(); it != children.rend(); ++it)
                work.push_back({*it, 0});
        }
    }

    Function *func_;
    DomTree dom_;
    /** Position of each block in func_->blocks(). */
    PointerMap blockIndex_;
    /** Dominator-tree children, by block position. */
    std::vector<std::vector<BasicBlock *>> domChildren_;
    /** Promoted alloca -> its index. */
    PointerMap allocaIndex_;
    /** Placed phi -> index of the alloca it stands for. */
    PointerMap phiAlloca_;
    std::vector<Instruction *> toErase_;
};

} // namespace

int
promoteAllocas(Function *func)
{
    if (func->isDeclaration())
        return 0;
    Promoter promoter(func);
    return promoter.run();
}

void
promoteModule(ir::Module &module)
{
    for (const auto &f : module.functions())
        promoteAllocas(f.get());
}

} // namespace repro::frontend
