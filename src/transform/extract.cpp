#include "transform/extract.h"

#include <algorithm>
#include <functional>
#include <set>

namespace repro::transform {

using analysis::DomTree;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Type;
using ir::Value;

namespace {

bool
isClonable(const Instruction *inst)
{
    switch (inst->opcode()) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::Alloca:
      case Opcode::Br:
      case Opcode::Ret:
      case Opcode::Phi:
        return false;
      case Opcode::Call:
        return inst->callee()->isDeclaration(); // pure builtins
      default:
        return true;
    }
}

} // namespace

std::optional<KernelSlice>
planKernelSlice(const Value *out, const Instruction *region_begin,
                const std::vector<const Value *> &inputs,
                const DomTree &dom, const Instruction *call_point)
{
    std::set<const Value *> input_set(inputs.begin(), inputs.end());
    auto in_region = [&](const Instruction *inst) {
        return dom.dominates(region_begin, inst);
    };

    // Classify the backward slice.
    KernelSlice slice;
    slice.out = out;
    slice.regionBegin = region_begin;
    slice.inputs = inputs;
    std::set<const Value *> seen;
    std::vector<const Value *> stack{out};
    seen.insert(out);
    while (!stack.empty()) {
        const Value *v = stack.back();
        stack.pop_back();
        if (input_set.count(v))
            continue;
        if (v->isConstant() || v->isGlobal())
            continue;
        if (v->isArgument()) {
            if (std::find(slice.invariants.begin(),
                          slice.invariants.end(),
                          v) == slice.invariants.end()) {
                slice.invariants.push_back(v);
            }
            continue;
        }
        const auto *inst = static_cast<const Instruction *>(v);
        if (!in_region(inst)) {
            // Loop invariant: must be available at the call site.
            if (!dom.dominates(inst, call_point))
                return std::nullopt;
            if (std::find(slice.invariants.begin(),
                          slice.invariants.end(),
                          v) == slice.invariants.end()) {
                slice.invariants.push_back(v);
            }
            continue;
        }
        if (!isClonable(inst))
            return std::nullopt;
        for (const Value *op : inst->operands()) {
            if (seen.insert(op).second)
                stack.push_back(op);
        }
    }
    return slice;
}

Function *
materializeKernel(Module &module, const std::string &name,
                  const KernelSlice &slice,
                  const std::map<const Value *, Value *> &remap)
{
    std::vector<Type *> params;
    for (const Value *v : slice.inputs)
        params.push_back(v->type());
    for (const Value *v : slice.invariants)
        params.push_back(v->type());
    Function *func = module.createFunction(name, slice.out->type(),
                                           std::move(params));
    ir::BasicBlock *entry = func->createBlock("entry");

    std::map<const Value *, Value *> mapping;
    // A slice value rewired by an earlier commit (remap) must reach
    // the same parameter through either pointer: region instructions
    // may still hold the planned value or already the substitute.
    auto map_param = [&](const Value *v, Value *arg) {
        mapping[v] = arg;
        auto it = remap.find(v);
        if (it != remap.end())
            mapping[it->second] = arg;
    };
    for (size_t i = 0; i < slice.inputs.size(); ++i) {
        map_param(slice.inputs[i], func->arg(i));
        func->arg(i)->setName("in" + std::to_string(i));
    }
    for (size_t i = 0; i < slice.invariants.size(); ++i) {
        map_param(slice.invariants[i],
                  func->arg(slice.inputs.size() + i));
        func->arg(slice.inputs.size() + i)
            ->setName("param" + std::to_string(i));
    }

    // Clone in dependency order (recursive with memoization; the
    // slice is a DAG because phis were rejected).
    std::function<Value *(const Value *)> clone =
        [&](const Value *v) -> Value * {
        auto it = mapping.find(v);
        if (it != mapping.end())
            return it->second;
        if (v->isConstant() || v->isGlobal())
            return const_cast<Value *>(v);
        const auto *inst = static_cast<const Instruction *>(v);
        auto copy = std::make_unique<Instruction>(
            inst->opcode(), inst->type(), inst->name());
        copy->setCmpPred(inst->cmpPred());
        copy->setAccessType(inst->accessType());
        copy->setCallee(inst->callee());
        // Clone operands first.
        std::vector<Value *> ops;
        ops.reserve(inst->numOperands());
        for (const Value *op : inst->operands())
            ops.push_back(clone(op));
        for (Value *op : ops)
            copy->addOperand(op);
        Instruction *placed = entry->append(std::move(copy));
        mapping[v] = placed;
        return placed;
    };

    Value *result = clone(slice.out);
    auto ret = std::make_unique<Instruction>(
        Opcode::Ret, module.types().voidTy(), "");
    ret->addOperand(result);
    entry->append(std::move(ret));
    return func;
}

} // namespace repro::transform
