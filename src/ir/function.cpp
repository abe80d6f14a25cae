#include "ir/function.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>

#include "support/diagnostics.h"

namespace repro::ir {

Function::Function(Type *func_type, std::string name, Module *parent)
    : Value(ValueKind::FunctionRef, func_type, std::move(name)),
      module_(parent), funcType_(func_type)
{
    const auto &params = func_type->params();
    for (size_t i = 0; i < params.size(); ++i) {
        args_.emplace_back(new Argument(params[i],
                                        "arg" + std::to_string(i), this,
                                        static_cast<int>(i)));
    }
}

void
Function::dropAllReferences()
{
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb->insts())
            inst->dropOperands();
    }
}

BasicBlock *
Function::createBlock(const std::string &name)
{
    blocks_.emplace_back(new BasicBlock(name, this));
    return blocks_.back().get();
}

BasicBlock *
Function::blockByName(const std::string &name) const
{
    for (const auto &bb : blocks_) {
        if (bb->name() == name)
            return bb.get();
    }
    return nullptr;
}

int
Function::blockIndex(const BasicBlock *bb) const
{
    for (size_t i = 0; i < blocks_.size(); ++i) {
        if (blocks_[i].get() == bb)
            return static_cast<int>(i);
    }
    return -1;
}

void
Function::eraseBlock(BasicBlock *bb)
{
    int idx = blockIndex(bb);
    reproAssert(idx >= 0, "eraseBlock: block not in function");
    blocks_.erase(blocks_.begin() + idx);
}

std::vector<Value *>
Function::renumber()
{
    std::vector<Value *> values;
    int next = 0;
    for (const auto &a : args_) {
        a->setId(next++);
        values.push_back(a.get());
    }
    std::set<Value *> const_seen;
    for (const auto &bb : blocks_) {
        for (const auto &inst : bb->insts()) {
            inst->setId(next++);
            values.push_back(inst.get());
            for (Value *op : inst->operands()) {
                if ((op->isConstant() || op->isGlobal()) &&
                    const_seen.insert(op).second) {
                    op->setId(next++);
                    values.push_back(op);
                }
            }
        }
    }
    return values;
}

namespace {

/** FNV-1a accumulator behind Function::contentHash(). */
struct ContentHasher
{
    uint64_t h = 14695981039346656037ull;

    void
    mixByte(uint8_t b)
    {
        h ^= b;
        h *= 1099511628211ull;
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            mixByte(static_cast<uint8_t>(v & 0xff));
            v >>= 8;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(s.size());
        for (char c : s)
            mixByte(static_cast<uint8_t>(c));
    }

    /**
     * Structural type mix: kinds and shapes only, never Type
     * addresses, so functions of different modules (whose
     * TypeContexts intern separately) hash alike.
     */
    void
    mixType(const Type *t)
    {
        if (!t) {
            mix(uint64_t(0xff));
            return;
        }
        mix(static_cast<uint64_t>(t->kind()));
        switch (t->kind()) {
          case Type::Kind::Pointer:
            mixType(t->element());
            break;
          case Type::Kind::Array:
            mixType(t->element());
            mix(t->arraySize());
            break;
          case Type::Kind::Function:
            mixType(t->returnType());
            mix(t->params().size());
            for (Type *p : t->params())
                mixType(p);
            break;
          default:
            break;
        }
    }
};

} // namespace

uint64_t
Function::contentHash() const
{
    ContentHasher hasher;

    // Dense positional identities for every locally defined value and
    // block; forward references (phis) resolve because the maps are
    // built before any operand is visited.
    std::unordered_map<const Value *, uint32_t> local;
    std::unordered_map<const BasicBlock *, uint32_t> blockIdx;
    uint32_t next = 0;
    for (const auto &a : args_)
        local.emplace(a.get(), next++);
    for (const auto &bb : blocks_) {
        blockIdx.emplace(bb.get(),
                         static_cast<uint32_t>(blockIdx.size()));
        for (const auto &inst : bb->insts())
            local.emplace(inst.get(), next++);
    }

    hasher.mix(args_.size());
    for (const auto &a : args_)
        hasher.mixType(a->type());
    hasher.mixType(returnType());

    hasher.mix(blocks_.size());
    for (const auto &bb : blocks_) {
        hasher.mix(bb->size());
        for (const auto &inst : bb->insts()) {
            hasher.mix(static_cast<uint64_t>(inst->opcode()));
            hasher.mixType(inst->type());
            if (inst->is(Opcode::ICmp) || inst->is(Opcode::FCmp))
                hasher.mix(static_cast<uint64_t>(inst->cmpPred()));
            if (inst->accessType())
                hasher.mixType(inst->accessType());
            if (inst->callee())
                hasher.mix(inst->callee()->name());

            hasher.mix(inst->numOperands());
            for (const Value *op : inst->operands()) {
                auto it = local.find(op);
                if (it != local.end()) {
                    hasher.mix(uint64_t(0x10));
                    hasher.mix(it->second);
                    continue;
                }
                switch (op->kind()) {
                  case ValueKind::Constant: {
                    const auto *c = static_cast<const Constant *>(op);
                    hasher.mix(c->isFP() ? uint64_t(0xC1)
                                         : uint64_t(0xC0));
                    hasher.mixType(c->type());
                    uint64_t bits;
                    if (c->isFP()) {
                        double d = c->fpValue();
                        std::memcpy(&bits, &d, sizeof(bits));
                    } else {
                        bits = static_cast<uint64_t>(c->intValue());
                    }
                    hasher.mix(bits);
                    break;
                  }
                  case ValueKind::GlobalVariable:
                    hasher.mix(uint64_t(0x60));
                    hasher.mix(op->name());
                    break;
                  case ValueKind::FunctionRef:
                    hasher.mix(uint64_t(0xF0));
                    hasher.mix(op->name());
                    break;
                  default:
                    // A value defined in another function: no stable
                    // positional identity exists, but the edge itself
                    // must still perturb the hash.
                    hasher.mix(uint64_t(0xEE));
                    hasher.mix(op->name());
                    break;
                }
            }

            const auto &targets = inst->blockTargets();
            hasher.mix(targets.size());
            for (const BasicBlock *t : targets) {
                auto bt = blockIdx.find(t);
                hasher.mix(bt != blockIdx.end() ? bt->second
                                                : uint32_t(~0u));
            }
        }
    }
    return hasher.h;
}

size_t
Function::instructionCount() const
{
    size_t n = 0;
    for (const auto &bb : blocks_)
        n += bb->size();
    return n;
}

void
Function::cloneBodyFrom(const Function &src)
{
    reproAssert(isDeclaration() && args_.size() == src.args_.size(),
                "cloneBodyFrom: target must be a matching declaration");
    Module &module = *module_;
    std::unordered_map<const Type *, Type *> types;
    auto mapType = [&](const Type *t) -> Type * {
        if (!t)
            return nullptr;
        auto [it, fresh] = types.emplace(t, nullptr);
        if (fresh)
            it->second = module.types().import(t);
        return it->second;
    };

    // Locals first, so forward references (phis) resolve.
    std::unordered_map<const Value *, Value *> values;
    std::unordered_map<const BasicBlock *, BasicBlock *> blocks;
    values.reserve(args_.size() + 2 * src.instructionCount());
    blocks.reserve(src.blocks_.size());
    for (size_t i = 0; i < args_.size(); ++i)
        values.emplace(src.arg(i), arg(i));
    for (const auto &bb : src.blocks_) {
        BasicBlock *copy = createBlock(bb->name());
        blocks.emplace(bb.get(), copy);
        for (const auto &inst : bb->insts()) {
            auto clone = std::make_unique<Instruction>(
                inst->opcode(), mapType(inst->type()), inst->name());
            clone->setCmpPred(inst->cmpPred());
            clone->setAccessType(mapType(inst->accessType()));
            if (inst->callee())
                clone->setCallee(
                    module.functionByName(inst->callee()->name()));
            values.emplace(inst.get(), copy->append(std::move(clone)));
        }
    }
    auto mapValue = [&](const Value *v) -> Value * {
        auto it = values.find(v);
        if (it != values.end())
            return it->second;
        Value *out = nullptr;
        if (v->isConstant()) {
            const auto *c = static_cast<const Constant *>(v);
            out = c->isFP() ? module.fpConst(mapType(c->type()),
                                             c->fpValue())
                            : module.intConst(mapType(c->type()),
                                              c->intValue());
        } else if (v->isGlobal()) {
            out = module.globalByName(v->name());
        } else if (v->kind() == ValueKind::FunctionRef) {
            out = module.functionByName(v->name());
        }
        reproAssert(out != nullptr,
                    "cloneBodyFrom: operand without a counterpart");
        values.emplace(v, out);
        return out;
    };
    for (size_t b = 0; b < blocks_.size(); ++b) {
        const auto &from = src.blocks_[b]->insts();
        const auto &to = blocks_[b]->insts();
        for (size_t i = 0; i < from.size(); ++i) {
            for (const Value *op : from[i]->operands())
                to[i]->addOperand(mapValue(op));
            for (const BasicBlock *t : from[i]->blockTargets())
                to[i]->addBlockTarget(blocks.at(t));
        }
    }

    // The loop above appended this function's uses of every value to
    // the tail of its users list in operand order; restore src's.
    std::vector<Instruction *> order;
    for (const auto &[from, to] : values) {
        order.clear();
        for (Instruction *user : from->users_) {
            auto it = values.find(user);
            if (it != values.end())
                order.push_back(static_cast<Instruction *>(it->second));
        }
        std::copy(order.begin(), order.end(),
                  to->users_.end() - static_cast<ptrdiff_t>(order.size()));
    }
    nameCounter_ = src.nameCounter_;
}

std::string
Function::uniqueName(const std::string &prefix)
{
    return prefix + std::to_string(nameCounter_++);
}

Function *
Module::createFunction(const std::string &name, Type *ret,
                       std::vector<Type *> params)
{
    Type *fty = types_.functionTy(ret, std::move(params));
    functions_.emplace_back(new Function(fty, name, this));
    return functions_.back().get();
}

void
Module::removeFunction(Function *func)
{
    for (size_t i = 0; i < functions_.size(); ++i) {
        if (functions_[i].get() == func) {
            functions_.erase(functions_.begin() +
                             static_cast<ptrdiff_t>(i));
            return;
        }
    }
    reproAssert(false, "removeFunction: function not in module");
}

Function *
Module::functionByName(const std::string &name) const
{
    for (const auto &f : functions_) {
        if (f->name() == name)
            return f.get();
    }
    return nullptr;
}

std::vector<const Constant *>
Module::internedConstants() const
{
    std::vector<const Constant *> out;
    out.reserve(intConsts_.size() + fpConsts_.size());
    for (const auto &[key, c] : intConsts_)
        out.push_back(c.get());
    for (const auto &[key, c] : fpConsts_)
        out.push_back(c.get());
    return out;
}

GlobalVariable *
Module::createGlobal(const std::string &name, Type *stored)
{
    globals_.emplace_back(
        new GlobalVariable(types_.pointerTo(stored), stored, name));
    return globals_.back().get();
}

GlobalVariable *
Module::globalByName(const std::string &name) const
{
    for (const auto &g : globals_) {
        if (g->name() == name)
            return g.get();
    }
    return nullptr;
}

Constant *
Module::intConst(Type *type, int64_t value)
{
    auto key = std::make_pair(type, value);
    auto it = intConsts_.find(key);
    if (it != intConsts_.end())
        return it->second.get();
    auto c = std::make_unique<Constant>(type, value);
    Constant *out = c.get();
    intConsts_[key] = std::move(c);
    return out;
}

Constant *
Module::fpConst(Type *type, double value)
{
    auto key = std::make_pair(type, value);
    auto it = fpConsts_.find(key);
    if (it != fpConsts_.end())
        return it->second.get();
    auto c = std::make_unique<Constant>(type, value);
    Constant *out = c.get();
    fpConsts_[key] = std::move(c);
    return out;
}

} // namespace repro::ir
