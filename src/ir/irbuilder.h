/**
 * @file
 * IRBuilder: convenience factory that appends instructions to a block.
 */
#ifndef IR_IRBUILDER_H
#define IR_IRBUILDER_H

#include <memory>
#include <string>

#include "ir/function.h"

namespace repro::ir {

/**
 * Builds instructions at the end of a chosen insertion block, mirroring
 * llvm::IRBuilder. Used by the MiniC code generator, tests and examples.
 */
class IRBuilder
{
  public:
    explicit IRBuilder(Module &module) : module_(module) {}

    void setInsertPoint(BasicBlock *bb) { block_ = bb; }
    BasicBlock *insertBlock() const { return block_; }

    Module &module() { return module_; }
    TypeContext &types() { return module_.types(); }

    // Arithmetic ---------------------------------------------------------
    Instruction *binary(Opcode op, Value *lhs, Value *rhs,
                        const std::string &name = "");

    Instruction *add(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::Add, l, r, n); }
    Instruction *sub(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::Sub, l, r, n); }
    Instruction *mul(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::Mul, l, r, n); }
    Instruction *fadd(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::FAdd, l, r, n); }
    Instruction *fsub(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::FSub, l, r, n); }
    Instruction *fmul(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::FMul, l, r, n); }
    Instruction *fdiv(Value *l, Value *r, const std::string &n = "")
    { return binary(Opcode::FDiv, l, r, n); }

    // Memory -------------------------------------------------------------
    Instruction *alloca_(Type *type, const std::string &name = "");
    Instruction *load(Value *ptr, const std::string &name = "");
    Instruction *store(Value *value, Value *ptr);
    /** getelementptr with one or more indices. */
    Instruction *gep(Value *base, const std::vector<Value *> &indices,
                     const std::string &name = "");

    // Comparison / select --------------------------------------------------
    Instruction *icmp(CmpPred pred, Value *l, Value *r,
                      const std::string &name = "");
    Instruction *fcmp(CmpPred pred, Value *l, Value *r,
                      const std::string &name = "");
    Instruction *select(Value *cond, Value *t, Value *f,
                        const std::string &name = "");

    // Control flow ---------------------------------------------------------
    Instruction *br(BasicBlock *dest);
    Instruction *condBr(Value *cond, BasicBlock *t, BasicBlock *f);
    Instruction *ret(Value *value);
    Instruction *retVoid();

    // Phi ------------------------------------------------------------------
    Instruction *phi(Type *type, const std::string &name = "");

    // Conversions ------------------------------------------------------------
    Instruction *cast(Opcode op, Value *v, Type *to,
                      const std::string &name = "");

    // Calls ------------------------------------------------------------------
    Instruction *call(Function *callee, const std::vector<Value *> &args,
                      const std::string &name = "");

    // Constants ----------------------------------------------------------
    Constant *i64(int64_t v) { return module_.intConst(types().i64Ty(), v); }
    Constant *i32(int32_t v) { return module_.intConst(types().i32Ty(), v); }
    Constant *i1(bool v) { return module_.intConst(types().i1Ty(), v); }
    Constant *f64(double v)
    { return module_.fpConst(types().doubleTy(), v); }

  private:
    Instruction *emit(std::unique_ptr<Instruction> inst);

    Module &module_;
    BasicBlock *block_ = nullptr;
};

} // namespace repro::ir

#endif // IR_IRBUILDER_H
