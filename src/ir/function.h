/**
 * @file
 * Function and Module containers of the SSA IR.
 */
#ifndef IR_FUNCTION_H
#define IR_FUNCTION_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/basic_block.h"

namespace repro::ir {

class Module;

/** A function: arguments plus a CFG of basic blocks. */
class Function : public Value
{
  public:
    Function(Type *func_type, std::string name, Module *parent);
    ~Function() override { dropAllReferences(); }

    /**
     * Drop every operand edge of every instruction so the function can
     * be destroyed regardless of cross-block or cross-object use
     * edges.
     */
    void dropAllReferences();

    Module *parentModule() const { return module_; }
    Type *functionType() const { return funcType_; }
    Type *returnType() const { return funcType_->returnType(); }

    bool isDeclaration() const { return blocks_.empty(); }

    // Arguments ----------------------------------------------------------
    size_t numArgs() const { return args_.size(); }
    Argument *arg(size_t i) const { return args_[i].get(); }
    const std::vector<std::unique_ptr<Argument>> &args() const
    {
        return args_;
    }

    // Blocks -------------------------------------------------------------
    BasicBlock *createBlock(const std::string &name);
    const std::vector<std::unique_ptr<BasicBlock>> &blocks() const
    {
        return blocks_;
    }
    BasicBlock *entry() const
    {
        return blocks_.empty() ? nullptr : blocks_.front().get();
    }
    BasicBlock *blockByName(const std::string &name) const;
    int blockIndex(const BasicBlock *bb) const;

    /** Remove an unreachable block (must have no live instructions). */
    void eraseBlock(BasicBlock *bb);

    /**
     * Assign dense ids to arguments and instructions and return every
     * value in the function in a stable order. Constants used as
     * operands are included once each.
     */
    std::vector<Value *> renumber();

    /** Total number of instructions across all blocks. */
    size_t instructionCount() const;

    /**
     * Stable structural hash of the function body.
     *
     * A layout-order walk over blocks, instructions and operands:
     * instructions and blocks are identified by their position, local
     * values (arguments, instruction results) by dense indices,
     * constants by type and bit pattern, globals and callees by name.
     * SSA value names, heap addresses and the uniqueName() counter do
     * not participate, so two structurally identical functions — the
     * same function recompiled, or the same body under another name in
     * another module — hash equal, while any edit to an instruction,
     * operand, type, branch target or embedded constant changes the
     * hash. This is the content fingerprint the cross-request
     * MatchCache and the service layer key on.
     */
    uint64_t contentHash() const;

    std::string handle() const override { return "@" + name(); }

    /**
     * Give this declaration a copy of @p src's body, where @p src is
     * a function of the same signature in another module: blocks,
     * instructions, phis, names and the uniqueName() counter, with
     * types, constants, globals and callees remapped by name into
     * this function's module (all must already exist there). Each
     * value's users() keep @p src's order within the function, so
     * the clone prints, hashes and is matched exactly like the body
     * it copies, and later rewrites name their values alike.
     */
    void cloneBodyFrom(const Function &src);

    /** Pick a fresh SSA name with the given prefix. */
    std::string uniqueName(const std::string &prefix);

  private:
    Module *module_;
    Type *funcType_;
    std::vector<std::unique_ptr<Argument>> args_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    int nameCounter_ = 0;
};

/** Top-level container: functions, globals and interned constants. */
class Module
{
  public:
    Module() = default;
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /**
     * Client-facing module identity (empty by default). The service
     * layer keys sessions by it and matchFingerprint embeds it, so two
     * clients' same-named functions never collide in cross-module
     * stores.
     */
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    ~Module()
    {
        // Sever all operand edges before members are destroyed so the
        // destruction order of functions, globals and interned
        // constants cannot matter.
        for (auto &f : functions_)
            f->dropAllReferences();
        functions_.clear();
    }

    TypeContext &types() { return types_; }

    Function *createFunction(const std::string &name, Type *ret,
                             std::vector<Type *> params);

    /**
     * Remove @p func from the module and destroy it (rollback path of
     * a failed rewrite commit). The function must have no remaining
     * call sites; its own operand edges are dropped first so interned
     * constants and globals it references survive intact.
     */
    void removeFunction(Function *func);

    Function *functionByName(const std::string &name) const;
    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return functions_;
    }

    GlobalVariable *createGlobal(const std::string &name, Type *stored);
    GlobalVariable *globalByName(const std::string &name) const;
    const std::vector<std::unique_ptr<GlobalVariable>> &globals() const
    {
        return globals_;
    }

    /** Interned integer constant. */
    Constant *intConst(Type *type, int64_t value);
    /** Interned floating point constant. */
    Constant *fpConst(Type *type, double value);

    /**
     * Every constant interned so far. Rewrite-plan validation builds
     * its whitelist of safely-referenceable values from this: a
     * pointer recorded in a plan may dangle, so liveness must be
     * decided by set membership alone, never by dereferencing.
     */
    std::vector<const Constant *> internedConstants() const;

  private:
    TypeContext types_;
    std::string name_;
    std::vector<std::unique_ptr<Function>> functions_;
    std::vector<std::unique_ptr<GlobalVariable>> globals_;
    std::map<std::pair<Type *, int64_t>, std::unique_ptr<Constant>>
        intConsts_;
    std::map<std::pair<Type *, double>, std::unique_ptr<Constant>>
        fpConsts_;
};

} // namespace repro::ir

#endif // IR_FUNCTION_H
