#include "frontend/passes.h"

#include <deque>
#include <set>
#include <vector>

namespace repro::frontend {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Opcode;

int
removeUnreachableBlocks(Function *func)
{
    if (func->isDeclaration())
        return 0;
    std::set<BasicBlock *> reachable;
    std::deque<BasicBlock *> queue;
    queue.push_back(func->entry());
    reachable.insert(func->entry());
    while (!queue.empty()) {
        BasicBlock *bb = queue.front();
        queue.pop_front();
        for (BasicBlock *s : bb->successors()) {
            if (reachable.insert(s).second)
                queue.push_back(s);
        }
    }

    std::vector<BasicBlock *> dead;
    for (const auto &bb : func->blocks()) {
        if (!reachable.count(bb.get()))
            dead.push_back(bb.get());
    }
    if (dead.empty())
        return 0;

    // Remove phi incomings that reference dead predecessors.
    for (const auto &bb : func->blocks()) {
        if (!reachable.count(bb.get()))
            continue;
        for (const auto &inst : bb->insts()) {
            if (!inst->is(Opcode::Phi))
                continue;
            Instruction *phi = inst.get();
            bool any_dead = false;
            std::vector<std::pair<ir::Value *, BasicBlock *>> keep;
            for (size_t k = 0; k < phi->numOperands(); ++k) {
                BasicBlock *in = phi->incomingBlocks()[k];
                if (reachable.count(in))
                    keep.emplace_back(phi->operand(k), in);
                else
                    any_dead = true;
            }
            if (any_dead) {
                phi->clearIncoming();
                for (auto &[v, b] : keep)
                    phi->addIncoming(v, b);
            }
        }
    }

    // Drop operand edges inside dead blocks, then delete the blocks.
    for (BasicBlock *bb : dead) {
        for (const auto &inst : bb->insts())
            inst->dropOperands();
    }
    for (BasicBlock *bb : dead) {
        // Instructions in dead blocks may still formally "use" each
        // other; operand edges were dropped above so destruction is
        // safe even with users tracked.
        while (!bb->empty())
            bb->detach(bb->insts().back().get());
        func->eraseBlock(bb);
    }
    return static_cast<int>(dead.size());
}

int
aggressiveDCE(Function *func)
{
    if (func->isDeclaration())
        return 0;
    std::set<Instruction *> live;
    std::deque<Instruction *> queue;

    auto mark = [&](ir::Value *v) {
        if (!v->isInstruction())
            return;
        auto *inst = static_cast<Instruction *>(v);
        if (live.insert(inst).second)
            queue.push_back(inst);
    };

    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            bool root = inst->isTerminator() ||
                        inst->is(Opcode::Store) ||
                        inst->is(Opcode::Call);
            if (root)
                mark(inst.get());
        }
    }
    while (!queue.empty()) {
        Instruction *inst = queue.front();
        queue.pop_front();
        for (ir::Value *op : inst->operands())
            mark(op);
    }

    std::vector<Instruction *> dead;
    for (const auto &bb : func->blocks()) {
        for (const auto &inst : bb->insts()) {
            if (!live.count(inst.get()))
                dead.push_back(inst.get());
        }
    }
    for (Instruction *inst : dead)
        inst->dropOperands();
    for (Instruction *inst : dead)
        inst->eraseFromParent();
    return static_cast<int>(dead.size());
}

} // namespace repro::frontend
